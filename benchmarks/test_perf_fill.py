"""Fill benchmark: how fast does a fresh ORAM take its working set?

Every Figure 8 point prefills its whole working set before it measures, so
each of those accesses creates its block on a miss.  On the classified
``flat`` op such a block skips the stash when the stash is otherwise empty
(it goes straight to the deepest free slot the path's own blocks leave);
the ``plain`` twin runs the generic op, which stashes it and pools the
stash.  Each window builds a fresh ``flat`` ORAM and its ``plain`` twin for
the sweep's Z=4, u=0.5 point and fills both address by address through one
``access_many`` call; the side that runs first alternates from window to
window.  The twins must end every window in the same state.

The recorded ``speedup`` is ``flat rate / plain rate`` per window pair
(min / median / max, also as ``paired_ratios``), written with both
median-pair rates and each twin's ``stash_leaves_examined`` to the ``fill``
section of ``BENCH_engine.json``.  The section has no committed floor, so
``check_perf_floors.py`` lists it as ``info:``.
"""

import gc
import time

from conftest import alternating, median_pair, ratio_spread, record_perf

from repro.analysis.sweep import SWEEP_SPEC, utilization_config
from repro.backends import build_oram

WINDOWS = 5
CONFIG = utilization_config(4, 0.5, 2048, stash_slack=25)


def fill_window(storage: str):
    """Fill a fresh ``storage`` ORAM; returns (accesses/sec, the ORAM)."""
    oram = build_oram(SWEEP_SPEC.with_updates(storage=storage), CONFIG, seed=1)
    addresses = list(range(1, CONFIG.working_set_blocks + 1))
    gc.collect()
    start = time.perf_counter()
    oram.access_many(addresses)
    return len(addresses) / (time.perf_counter() - start), oram


def state(oram) -> tuple:
    storage = oram.storage
    tree = tuple(
        tuple((block.address, block.leaf) for block in storage.read_bucket(index))
        for index in range(storage.num_buckets)
    )
    return (
        tree,
        oram.stash_addresses(),
        tuple(oram.position_map.leaves),
        oram.stats.fingerprint(),
        oram.max_stash_occupancy,
    )


def test_fill_flat_vs_plain(benchmark):
    def _run():
        pairs, examined = [], None
        for window in range(WINDOWS):
            (flat_rate, flat), (plain_rate, plain) = alternating(
                window, lambda: fill_window("flat"), lambda: fill_window("plain")
            )
            assert state(flat) == state(plain)
            pairs.append((flat_rate, plain_rate))
            examined = (flat.stats.stash_leaves_examined, plain.stats.stash_leaves_examined)
        return pairs, examined

    pairs, (flat_examined, plain_examined) = benchmark.pedantic(_run, rounds=1, iterations=1)
    spread = ratio_spread(pairs)
    flat_rate, plain_rate = median_pair(pairs)
    record = {
        "config": (
            f"Figure 8 sweep point Z=4, u=0.5: {CONFIG.working_set_blocks}-block working "
            f"set, {CONFIG.levels + 1}-level tree, stash {CONFIG.stash_capacity}; a fresh "
            "ORAM per window; flat (classified op) vs plain (generic op)"
        ),
        "workload": "one access_many over addresses 1..N: every access creates its block",
        "window_pairs": WINDOWS,
        "accesses_per_window": CONFIG.working_set_blocks,
        "flat_accesses_per_sec": round(flat_rate, 1),
        "plain_accesses_per_sec": round(plain_rate, 1),
        "flat_stash_leaves_examined": flat_examined,
        "plain_stash_leaves_examined": plain_examined,
        "speedup": spread["median"],
        "paired_ratios": spread,
    }
    record_perf("fill", record, "Fill — a fresh ORAM takes its working set, flat vs plain")
