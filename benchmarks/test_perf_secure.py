"""Secure-stack benchmark: what do bucket crypto and the hash tree cost?

One seeded trace of uniform requests, half of them writes of 128-byte
payloads, runs in alternating windows against two identically-seeded,
prefilled 4,096-block flat Path ORAMs: one on ``storage="integrity"``
(counter-scheme bucket encryption plus the Path-ORAM-integrated
authentication tree, Sections 2.2.2 and 5) and one on ``storage="flat"``
(no crypto).  Every window replays the same slice of the trace on both,
back to back so load drift hits both sides of a pair; the side that runs
first alternates from window to window.

The recorded ``tax`` is ``flat rate / integrity rate`` per window pair
(min / median / max, also as ``paired_ratios``), written with both
median-pair rates to the ``secure`` section of ``BENCH_engine.json``.  The
section has no committed floor yet, so ``check_perf_floors.py`` does not
gate it.  Reads are checked
against a shadow copy of every write on both stacks, so a fast but wrong
secure stack fails here.

After the timed pairs, one more window of the same trace runs on the
integrity stack alone with its five path-level layer calls (``raw_path``,
``verify_path``, ``open_path``, ``seal_path``, ``update_path``) wrapped by
``perf_counter``: the section's ``layers`` record holds microseconds per
access for each, the whole access, and the remainder (the protocol, plus the
wrappers' own cost).  It is a ledger, not a gate.
"""

import gc
import random
import time

from conftest import alternating, median_pair, ratio_spread, record_perf, scaled

from repro.backends import OramSpec, build_oram
from repro.core.config import ORAMConfig
from repro.core.types import Operation

WORKING_SET = 4096
WINDOWS = 5
#: The secure layer's path-level calls, by the attribute of
#: ``IntegrityVerifiedStorage`` that owns each: its encrypted device
#: (``inner``) or its authentication tree (``authenticator``).
LAYERS = (
    ("inner", "raw_path"),
    ("authenticator", "verify_path"),
    ("inner", "open_path"),
    ("inner", "seal_path"),
    ("authenticator", "update_path"),
)
CONFIG = ORAMConfig(working_set_blocks=WORKING_SET, stash_capacity=200)


def payload(address: int, version: int) -> bytes:
    return (address.to_bytes(8, "little") + version.to_bytes(8, "little")) * 8


def build(storage: str):
    oram = build_oram(OramSpec(protocol="flat", storage=storage, key_seed=3), CONFIG, seed=7)
    for address in range(1, WORKING_SET + 1):
        oram.access(address, Operation.WRITE, payload(address, 0))
    return oram


def run_window(oram, ops, shadow) -> float:
    """Replay ``ops`` as individual accesses; accesses/sec, reads checked."""
    gc.collect()
    access = oram.access
    start = time.perf_counter()
    for address, version in ops:
        if version:
            access(address, Operation.WRITE, payload(address, version))
            shadow[address] = version
        else:
            assert access(address).data == payload(address, shadow.get(address, 0))
    return len(ops) / (time.perf_counter() - start)


def layer_ledger(oram, ops, shadow) -> dict:
    """Replay ``ops`` on the integrity stack with each of :data:`LAYERS`
    timed; microseconds per access for each, the access, and the rest."""
    spent = dict.fromkeys([name for _, name in LAYERS], 0.0)
    owners = {owner: getattr(oram.storage, owner) for owner, _ in LAYERS}

    def timed(name, method):
        def call(*args):
            start = time.perf_counter()
            try:
                return method(*args)
            finally:
                spent[name] += time.perf_counter() - start

        return call

    for owner, name in LAYERS:
        setattr(owners[owner], name, timed(name, getattr(owners[owner], name)))
    try:
        total = len(ops) / run_window(oram, ops, shadow)
    finally:
        for owner, name in LAYERS:
            delattr(owners[owner], name)
    per_access = {name: seconds * 1e6 / len(ops) for name, seconds in spent.items()}
    per_access["access"] = total * 1e6 / len(ops)
    per_access["remainder"] = per_access["access"] - sum(spent.values()) * 1e6 / len(ops)
    return {name: round(us, 2) for name, us in per_access.items()}


def test_integrity_tax_over_flat(benchmark):
    measured = scaled(1500, minimum=200)
    rng = random.Random(29)
    # (address, version): version 0 is a read, otherwise a write of that version.
    trace = [
        (1 + rng.randrange(WORKING_SET), step + 1 if rng.random() < 0.5 else 0)
        for step in range((WINDOWS + 1) * measured)
    ]

    def _run():
        secure, flat = build("integrity"), build("flat")
        secure_shadow, flat_shadow = {}, {}
        pairs = []
        for window in range(WINDOWS):
            ops = trace[window * measured : (window + 1) * measured]
            secure_rate, flat_rate = alternating(
                window,
                lambda: run_window(secure, ops, secure_shadow),
                lambda: run_window(flat, ops, flat_shadow),
            )
            pairs.append((flat_rate, secure_rate))
        assert secure.stats.fingerprint() == flat.stats.fingerprint()
        ledger = layer_ledger(secure, trace[WINDOWS * measured :], secure_shadow)
        return pairs, ledger

    pairs, ledger = benchmark.pedantic(_run, rounds=1, iterations=1)
    spread = ratio_spread(pairs)
    flat_rate, secure_rate = median_pair(pairs)

    record = {
        "config": (
            f"flat Path ORAM, Z={CONFIG.z}, working set {WORKING_SET} blocks, "
            f"{CONFIG.block_bytes}-byte blocks, prefilled; integrity (counter-scheme "
            "bucket encryption + authentication tree) vs flat (no crypto)"
        ),
        "workload": (
            "one seeded uniform trace, 50% writes of 128-byte payloads, "
            "one access() call per request"
        ),
        "window_pairs": WINDOWS,
        "accesses_per_window": measured,
        "integrity_accesses_per_sec": round(secure_rate, 1),
        "flat_accesses_per_sec": round(flat_rate, 1),
        "tax": spread,
        "paired_ratios": spread,
        "layers": {"unit": "us per access, one extra window, wrapped calls", **ledger},
    }
    record_perf(
        "secure",
        record,
        f"Secure-stack tax — integrity vs flat storage ({WORKING_SET}-block flat ORAM)",
    )
    # Crypto and hashing can only add work over the no-crypto stack.
    assert spread["min"] > 1.0
