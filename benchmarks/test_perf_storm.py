"""Eviction-storm benchmark: how fast do background-eviction dummies run?

The slowest points of the Figure 8 sweep are Z=1 configurations at 75-80%
utilization, which spend almost all their time in back-to-back dummy
accesses while the stash sits over its threshold ``C - Z(L+1)``.  This
benchmark rebuilds such a state: the sweep's Z=1, u=0.8 configuration is
filled address by address, with every storm drained by explicit dummy
accesses, until a storm runs ``STUCK`` dummies plus one window's worth
without draining; the ORAM is snapshotted ``STUCK`` dummies into that
storm, on the classified ``flat`` stack and on the ``plain`` reference
stack (the generic path op).

Each window restores both snapshots and issues the same ``dummies`` dummy
accesses on each, all with the stash over the threshold, back to back;
the side that runs first alternates from window to window.  The recorded
``speedup`` is ``flat rate / plain rate`` per window pair (min / median /
max, also as ``paired_ratios``), written with both median-pair rates to
the ``eviction_storm`` section of ``BENCH_engine.json``.  The section has
no committed floor, so ``check_perf_floors.py`` lists it as ``info:``.
The two stacks must end every window in the same state.
"""

import gc
import time

from conftest import alternating, median_pair, ratio_spread, record_perf, scaled

from repro.analysis.sweep import SWEEP_SPEC, utilization_config
from repro.backends import build_oram
from repro.core.path_oram import PathORAM

WINDOWS = 5
#: Dummies a storm must have run, undrained, before the state is captured.
STUCK = 1000
CONFIG = utilization_config(1, 0.8, 2048, stash_slack=25)


def storm_snapshot(storage: str, dummies: int) -> dict:
    """Snapshot taken ``STUCK`` dummies into the first storm that runs
    ``STUCK + dummies`` dummies without draining."""
    oram = build_oram(SWEEP_SPEC.with_updates(storage=storage, eviction="none"), CONFIG, seed=1)
    threshold = oram.eviction_threshold
    for address in range(1, CONFIG.working_set_blocks + 1):
        oram.access(address)
        issued = 0
        while oram.stash_occupancy > threshold:
            oram.dummy_access()
            issued += 1
            if issued == STUCK:
                snapshot = oram.snapshot()
            elif issued == STUCK + dummies:
                return snapshot
    raise AssertionError("no storm ran long enough to capture")


def run_window(snapshot: dict, dummies: int) -> tuple[float, PathORAM]:
    """Restore ``snapshot`` and issue ``dummies`` storm dummies; dummies/sec."""
    oram = PathORAM.restore(snapshot)
    threshold = oram.eviction_threshold
    gc.collect()
    start = time.perf_counter()
    for _ in range(dummies):
        oram.dummy_access()
    elapsed = time.perf_counter() - start
    assert oram.stash_occupancy > threshold, "the storm drained inside the window"
    return dummies / elapsed, oram


def test_storm_dummies_flat_vs_plain(benchmark):
    dummies = scaled(2000, minimum=200)

    def _run():
        flat, plain = storm_snapshot("flat", dummies), storm_snapshot("plain", dummies)
        pairs = []
        for window in range(WINDOWS):
            (flat_rate, flat_oram), (plain_rate, plain_oram) = alternating(
                window,
                lambda: run_window(flat, dummies),
                lambda: run_window(plain, dummies),
            )
            assert flat_oram.stats.fingerprint() == plain_oram.stats.fingerprint()
            assert flat_oram.stash_addresses() == plain_oram.stash_addresses()
            pairs.append((flat_rate, plain_rate))
        return pairs

    pairs = benchmark.pedantic(_run, rounds=1, iterations=1)
    spread = ratio_spread(pairs)
    flat_rate, plain_rate = median_pair(pairs)
    record = {
        "config": (
            f"Figure 8 sweep point Z=1, u=0.8: {CONFIG.working_set_blocks}-block working "
            f"set, {CONFIG.levels + 1}-level tree, stash {CONFIG.stash_capacity} "
            f"(threshold {CONFIG.eviction_threshold}); state captured {STUCK} dummies "
            "into the first storm that outlasts a window; flat (classified op) vs "
            "plain (generic op)"
        ),
        "workload": "back-to-back dummy accesses with the stash over its threshold",
        "window_pairs": WINDOWS,
        "dummies_per_window": dummies,
        "flat_dummies_per_sec": round(flat_rate, 1),
        "plain_dummies_per_sec": round(plain_rate, 1),
        "speedup": spread["median"],
        "paired_ratios": spread,
    }
    record_perf(
        "eviction_storm",
        record,
        "Eviction storm — dummy accesses over the threshold, flat vs plain",
    )
    # The classified op does strictly less work per dummy than the generic one.
    assert spread["min"] > 1.0
