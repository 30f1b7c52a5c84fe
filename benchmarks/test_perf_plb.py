"""PosMap Lookaside Buffer and chain-coalescing throughput benchmarks.

Two paired-window sections over one recursive hierarchy on the list-backed
``flat`` stack (a 2^16-block data ORAM under 16-byte position-map blocks):

* ``chain_coalescing`` — a SPEC-like ``libquantum`` trace (the paper's
  memory-bound streaming benchmark) replayed with position-map path-op
  coalescing (a capacity-1 PLB) against the seed chain replay consuming
  the same stream.  Sequential SPEC streams resolve through the same
  position-map blocks for long runs, so most position-map path operations
  collapse into the op that read the block; the record carries the
  measured coalesced-ops rate.
* ``plb`` — SPEC-like ``mcf`` (pointer-chasing, the PLB's hard case) and
  ``libquantum`` (sequential streaming, its easy case) at three chain
  configurations:

  * ``plb0`` — the uncoalesced baseline chain (every access walks every
    position-map level physically);
  * ``plb1`` — a capacity-1 PLB, the single-op suffix memo that coalesces
    consecutive accesses through the same position-map block;
  * ``plb8`` — an 8-entries-per-level PLB, the paper-scale on-chip budget.

  All three replay identical derived-seed streams window for window
  (lock-stepped harness RNGs), so the throughput ratio and the
  position-map-ops-saved rates measure the cache alone.  Each round runs
  the three in turn, in reverse on every other round.  ``speedup`` is the
  median window pair of plb8 over the uncoalesced chain on the libquantum
  stream; the mcf-like stream must additionally save at least 0.5 of the
  chain's 3 position-map ops per access at the 8-entry budget (a
  multi-entry win the single-op memo cannot reach), and libquantum must
  keep the >= 1.9 the memo already delivered.

Both sections land in ``BENCH_engine.json`` and are gated by committed
floors in ``benchmarks/perf_floors.json``.
"""

import gc
import random
import time
from functools import partial

from conftest import (
    alternating,
    median_pair,
    paired_throughput,
    perf_floor,
    ratio_spread,
    record_perf,
    scaled,
)
from seed_reference import SeedReferenceHierarchicalORAM

from repro.backends import OramSpec, build_oram
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.workloads.spec_like import benchmark_trace

#: A 2^16-block data ORAM under 16-byte position-map blocks — a 4-ORAM
#: chain, so the uncached walk costs 3 PM path ops per access.
HIER_WORKING_SET = 1 << 16

#: Interleaved measurement windows per configuration.
WINDOWS = 3

#: The PLB capacities under test (0 = uncoalesced, 1 = the PR 4 memo).
CAPACITIES = (0, 1, 8)

SPEEDUP_FLOOR = perf_floor("plb")
COALESCING_FLOOR = perf_floor("chain_coalescing")

#: ISSUE acceptance bars on position-map ops saved per access (of 3).
MCF_SAVED_FLOOR = 0.5
LIBQUANTUM_SAVED_FLOOR = 1.9


def _hierarchy() -> HierarchyConfig:
    data = ORAMConfig(
        working_set_blocks=HIER_WORKING_SET, z=4, block_bytes=128, stash_capacity=200
    )
    return HierarchyConfig(
        data_oram=data,
        position_map_block_bytes=16,
        position_map_z=3,
        onchip_position_map_limit_bytes=512,
        name="plb-bench",
    )


def _build(capacity: int):
    spec = OramSpec(
        protocol="hierarchical", storage="flat", plb_entries_per_level=capacity
    )
    oram = build_oram(spec, _hierarchy(), seed=7)
    oram.access_many(range(1, HIER_WORKING_SET + 1))
    return oram


def _replay_addresses(rng, measured: int, bench: str) -> tuple[list, list]:
    """One window's SPEC stream as (warm-up, timed) address lists.

    The trace seed comes from the harness RNG, so lock-stepped RNGs replay
    identical streams.
    """
    warmup = max(1, measured // 20)
    trace = benchmark_trace(bench, warmup + measured, seed=rng.getrandbits(32))
    addresses = [
        (record.address // 128) % HIER_WORKING_SET + 1 for record in trace
    ]
    return addresses[:warmup], addresses[warmup:]


def _window(oram, rng, measured: int, bench: str) -> float:
    """One SPEC replay window through ``access_many``; returns accesses/s."""
    warmup, timed = _replay_addresses(rng, measured, bench)
    oram.access_many(warmup)
    gc.collect()
    start = time.perf_counter()
    oram.access_many(timed)
    return measured / (time.perf_counter() - start)


def _libquantum_window(oram, rng, measured: int, _working_set: int) -> float:
    return _window(oram, rng, measured, "libquantum")


def _libquantum_window_loop(oram, rng, measured: int, _working_set: int) -> float:
    """The seed side of :func:`_libquantum_window` (per-access replay)."""
    warmup, timed = _replay_addresses(rng, measured, "libquantum")
    for address in warmup:
        oram.access(address)
    gc.collect()
    start = time.perf_counter()
    for address in timed:
        oram.access(address)
    return measured / (time.perf_counter() - start)


def test_chain_coalescing_spec_replay_vs_seed(benchmark):
    hierarchy = _hierarchy()
    measured = scaled(4000, minimum=800)

    def _run():
        engine = _build(1)
        seed = SeedReferenceHierarchicalORAM(hierarchy, rng=random.Random(7))
        for address in range(1, HIER_WORKING_SET + 1):
            seed.access(address)
        before_coalesced = sum(o.stats.coalesced_ops for o in engine.orams)
        before_real = engine.stats.real_accesses
        paired = paired_throughput(
            engine,
            seed,
            WINDOWS,
            measured,
            HIER_WORKING_SET,
            trace_seed=11,
            engine_window=_libquantum_window,
            reference_window=_libquantum_window_loop,
        )
        coalesced = sum(o.stats.coalesced_ops for o in engine.orams) - before_coalesced
        accesses = engine.stats.real_accesses - before_real
        engine_stored = sum(
            oram.stash_occupancy + oram.storage.occupancy() for oram in engine.orams
        )
        assert engine_stored == seed.total_blocks_stored()
        return paired, coalesced / accesses, hierarchy.num_orams

    ((engine_rate, seed_rate), spread), coalesced_per_access, num_orams = (
        benchmark.pedantic(_run, rounds=1, iterations=1)
    )
    speedup = engine_rate / seed_rate

    record = {
        "config": (
            f"{num_orams}-level recursive hierarchy, data working_set="
            f"{HIER_WORKING_SET} blocks, 16B position-map blocks, all on "
            "the list-backed flat stack"
        ),
        "baseline": "seed chain replay consuming the same libquantum stream",
        "engine_path": (
            "access_many fused chain with position-map path-op coalescing "
            "(plb_entries_per_level=1)"
        ),
        "workload": "spec-like libquantum (sequential streaming)",
        "accesses_per_window": measured,
        "window_pairs": WINDOWS,
        "engine_accesses_per_sec": round(engine_rate, 1),
        "seed_reference_accesses_per_sec": round(seed_rate, 1),
        "position_map_ops_coalesced_per_access": round(coalesced_per_access, 2),
        "position_map_ops_per_access_uncoalesced": num_orams - 1,
        "paired_ratios": spread,
        "speedup": round(speedup, 2),
    }
    record_perf(
        "chain_coalescing",
        record,
        "Chain coalescing — recursive SPEC replay on the flat stack vs. "
        "seed chain",
    )

    assert speedup >= COALESCING_FLOOR, (
        f"coalescing chain only {speedup:.2f}x over seed chain replay"
    )
    assert coalesced_per_access > 0, "the replay must actually coalesce"


def _pm_counters(oram) -> tuple[int, int, int, int]:
    pm = [o.stats for o in oram.orams[1:]]
    return (
        oram.stats.real_accesses,
        sum(s.real_accesses for s in pm),
        sum(s.coalesced_ops for s in pm),
        sum(s.plb_hits for s in pm),
    )


def test_plb_spec_replay_vs_uncoalesced_chain(benchmark):
    measured = scaled(4000, minimum=800)

    def _run():
        engines = {capacity: _build(capacity) for capacity in CAPACITIES}
        for capacity, oram in engines.items():
            assert oram.plb_active == (capacity > 0)
        results = {}
        for bench in ("mcf", "libquantum"):
            before = {c: _pm_counters(oram) for c, oram in engines.items()}
            rngs = {c: random.Random(11) for c in CAPACITIES}
            rates = {c: [] for c in CAPACITIES}
            # Interleave windows across the capacities (lock-stepped RNGs:
            # every configuration replays the identical streams), the order
            # reversed on every other round.
            for index in range(WINDOWS):
                windows = [
                    partial(_window, engines[capacity], rngs[capacity], measured, bench)
                    for capacity in CAPACITIES
                ]
                for capacity, rate in zip(CAPACITIES, alternating(index, *windows)):
                    rates[capacity].append(rate)
            stats = {}
            for capacity, oram in engines.items():
                acc0, pm0, co0, hit0 = before[capacity]
                acc1, pm1, co1, hit1 = _pm_counters(oram)
                accesses = acc1 - acc0
                stats[capacity] = {
                    "rates": rates[capacity],
                    "pm_ops_per_access": (pm1 - pm0) / accesses,
                    "saved_per_access": (co1 - co0) / accesses,
                    "hits_per_access": (hit1 - hit0) / accesses,
                }
            results[bench] = stats
        num_orams = engines[0].num_orams
        return results, num_orams

    results, num_orams = benchmark.pedantic(_run, rounds=1, iterations=1)

    mcf8 = results["mcf"][8]
    libq8 = results["libquantum"][8]
    libq_pairs = list(zip(libq8["rates"], results["libquantum"][0]["rates"]))
    libq8_rate, libq0_rate = median_pair(libq_pairs)
    speedup = libq8_rate / libq0_rate
    mcf8_rate, mcf0_rate = median_pair(list(zip(mcf8["rates"], results["mcf"][0]["rates"])))
    mcf_speedup = mcf8_rate / mcf0_rate

    record = {
        "config": (
            f"{num_orams}-level recursive hierarchy, data working_set="
            f"{HIER_WORKING_SET} blocks, 16B position-map blocks, all on the "
            "list-backed flat stack, PLB capacities 0/1/8 entries per level"
        ),
        "baseline": "the same chain with the PLB off (plb_entries_per_level=0)",
        "engine_path": "access_many fused chain with the PosMap Lookaside Buffer",
        "workload": "spec-like mcf (pointer chasing) + libquantum (streaming)",
        "accesses_per_window": measured,
        "window_pairs": WINDOWS,
        "pm_ops_per_access_uncoalesced": num_orams - 1,
        "mcf_saved_per_access_plb8": round(mcf8["saved_per_access"], 2),
        "mcf_saved_per_access_memo": round(
            results["mcf"][1]["saved_per_access"], 2
        ),
        "mcf_hit_rate_proxy_hits_per_access": round(mcf8["hits_per_access"], 2),
        "mcf_speedup_plb8": round(mcf_speedup, 2),
        "libquantum_saved_per_access_plb8": round(libq8["saved_per_access"], 2),
        "libquantum_saved_per_access_memo": round(
            results["libquantum"][1]["saved_per_access"], 2
        ),
        "libquantum_accesses_per_sec_plb8": round(libq8_rate, 1),
        "libquantum_accesses_per_sec_uncoalesced": round(libq0_rate, 1),
        "paired_ratios": ratio_spread(libq_pairs),
        "speedup": round(speedup, 2),
    }
    record_perf(
        "plb",
        record,
        "PosMap Lookaside Buffer — SPEC replays at 0/1/8 entries per level "
        "on the flat chain",
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"PLB chain only {speedup:.2f}x over the uncoalesced chain"
    )
    assert mcf8["saved_per_access"] >= MCF_SAVED_FLOOR, (
        f"mcf-like stream saved only {mcf8['saved_per_access']:.2f} of "
        f"{num_orams - 1} PM ops per access at 8 entries/level"
    )
    assert libq8["saved_per_access"] >= LIBQUANTUM_SAVED_FLOOR, (
        f"libquantum stream saved only {libq8['saved_per_access']:.2f} of "
        f"{num_orams - 1} PM ops per access at 8 entries/level"
    )
    # The multi-entry PLB must beat the single-op memo on pointer chasing.
    assert mcf8["saved_per_access"] > results["mcf"][1]["saved_per_access"]
    # The baseline chain must not coalesce anything.
    assert results["mcf"][0]["saved_per_access"] == 0.0
