"""PosMap Lookaside Buffer throughput and PM-ops-saved benchmark.

Replays SPEC-like ``mcf`` (pointer-chasing, the PLB's hard case) and
``libquantum`` (sequential streaming, its easy case) through the same
recursive hierarchy as the ``chain_coalescing`` benchmark at three chain
configurations:

* ``plb0`` — the uncoalesced baseline chain (every access walks every
  position-map level physically);
* ``plb1`` — a capacity-1 PLB, the single-op suffix memo that coalesces
  consecutive accesses through the same position-map block;
* ``plb8`` — an 8-entries-per-level PLB, the paper-scale on-chip budget.

All three replay identical derived-seed streams window for window
(lock-stepped harness RNGs), so the throughput ratio and the
position-map-ops-saved rates measure the cache alone.  The section lands
in ``BENCH_engine.json`` with ``speedup`` = plb8 over the uncoalesced
chain on the libquantum stream, gated by the committed ``plb`` floor;
the mcf-like stream must additionally save at least 0.5 of the chain's 3
position-map ops per access at the 8-entry budget (a multi-entry win the
single-op memo cannot reach), and libquantum must keep the >= 1.9 the
memo already delivered.
"""

import gc
import random
import time

import pytest

np = pytest.importorskip("numpy")

from conftest import perf_floor, record_perf, scaled  # noqa: E402

from repro.backends import OramSpec, build_oram  # noqa: E402
from repro.core.config import HierarchyConfig, ORAMConfig  # noqa: E402
from repro.workloads.spec_like import benchmark_trace  # noqa: E402

#: Same recursive geometry as the chain_coalescing benchmark: a
#: 2^16-block column-native data ORAM under 16-byte position-map blocks —
#: a 4-ORAM chain, so the uncached walk costs 3 PM path ops per access.
HIER_WORKING_SET = 1 << 16

#: Interleaved measurement windows per configuration.
WINDOWS = 3

#: The PLB capacities under test (0 = uncoalesced, 1 = the PR 4 memo).
CAPACITIES = (0, 1, 8)

SPEEDUP_FLOOR = perf_floor("plb")

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
        protocol="hierarchical",
        storage="numpy-flat",
        plb_entries_per_level=capacity,
        columnar_min_slots=1 << 16,
    )
    oram = build_oram(spec, _hierarchy(), seed=7)
    oram.access_many(range(1, HIER_WORKING_SET + 1))
    return oram


def _window(oram, rng, measured: int, bench: str) -> float:
    """One SPEC replay window through ``access_many``; returns accesses/s."""
    warmup = max(1, measured // 20)
    trace = benchmark_trace(bench, warmup + measured, seed=rng.getrandbits(32))
    addresses = [
        (record.address // 128) % HIER_WORKING_SET + 1 for record in trace
    ]
    oram.access_many(addresses[:warmup])
    gc.collect()
    start = time.perf_counter()
    oram.access_many(addresses[warmup:])
    return measured / (time.perf_counter() - start)


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
            # every configuration replays the identical streams).
            for _ in range(WINDOWS):
                for capacity, oram in engines.items():
                    rates[capacity].append(
                        _window(oram, rngs[capacity], measured, bench)
                    )
            stats = {}
            for capacity, oram in engines.items():
                acc0, pm0, co0, hit0 = before[capacity]
                acc1, pm1, co1, hit1 = _pm_counters(oram)
                accesses = acc1 - acc0
                stats[capacity] = {
                    "rate": sum(rates[capacity]) / WINDOWS,
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
    speedup = libq8["rate"] / results["libquantum"][0]["rate"]
    mcf_speedup = mcf8["rate"] / results["mcf"][0]["rate"]

    record = {
        "config": (
            f"{num_orams}-level recursive hierarchy, data working_set="
            f"{HIER_WORKING_SET} blocks (column-native), 16B position-map "
            "blocks, PLB capacities 0/1/8 entries per level"
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
        "libquantum_accesses_per_sec_plb8": round(libq8["rate"], 1),
        "libquantum_accesses_per_sec_uncoalesced": round(
            results["libquantum"][0]["rate"], 1
        ),
        "speedup": round(speedup, 2),
    }
    record_perf(
        "plb",
        record,
        "PosMap Lookaside Buffer — SPEC replays at 0/1/8 entries per level "
        "on the adaptive numpy-flat chain",
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
