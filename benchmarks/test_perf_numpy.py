"""Column-native engine and chain-coalescing throughput benchmarks.

Two paired-window benchmarks for the ``numpy-flat`` execution layer:

* ``numpy_flat`` — the column-native ``access_many`` loop
  (:mod:`repro.core.numpy_engine`) on a 2^16-block flat ORAM against the
  seed reference replay, plus the same trace through the stack's
  pre-engine generic loop (the path ``numpy-flat`` took before the column
  engine existed) so the record shows what the engine buys the column
  stack itself.
* ``chain_coalescing`` — a SPEC-like ``libquantum`` trace (the paper's
  memory-bound streaming benchmark) replayed through a recursive
  hierarchy on the adaptive ``numpy-flat`` stack (column-native data
  ORAM, list-backed position maps) with position-map path-op coalescing
  enabled (a capacity-1 PosMap Lookaside Buffer), against the seed chain replay consuming the same stream.  The
  record carries the measured coalesced-ops rate: sequential SPEC streams
  resolve through the same position-map blocks for long runs, so most
  position-map path operations collapse into the op that read the block.

Both sections land in ``BENCH_engine.json`` through the shared
paired-window harness and are gated by committed floors in
``benchmarks/perf_floors.json``.  The whole module skips cleanly when
NumPy is not installed (the ``tests-no-numpy`` CI job).
"""

import random

import pytest

np = pytest.importorskip("numpy")

from conftest import (  # noqa: E402
    measure_window_many,
    paired_throughput,
    perf_floor,
    record_perf,
    scaled,
)
from seed_reference import (  # noqa: E402
    SeedBackgroundEviction,
    SeedReferenceHierarchicalORAM,
    SeedReferenceORAM,
)

from repro.backends import OramSpec, build_oram  # noqa: E402
from repro.core.config import HierarchyConfig, ORAMConfig  # noqa: E402
from repro.core.tree import PlainTreeStorage  # noqa: E402
from repro.workloads.spec_like import benchmark_trace  # noqa: E402

#: The flat column-engine benchmark runs one notch above the list-engine
#: benchmark's 2^15 config: longer paths amortise NumPy's per-call
#: overhead, which is the regime the column stack exists for.
FLAT_WORKING_SET = 1 << 16
Z = 4

#: Recursive config for the coalescing replay: a 2^16-block data ORAM
#: (column-native) under 16-byte position-map blocks (4 labels each).
HIER_WORKING_SET = 1 << 16

#: Interleaved measurement windows per engine (the heavier prefills keep
#: this below the list-engine benchmarks' five).
WINDOWS = 3

SPEEDUP_FLOOR = perf_floor("numpy_flat")
COALESCING_FLOOR = perf_floor("chain_coalescing")


def test_numpy_flat_column_engine_vs_seed(benchmark):
    config = ORAMConfig(
        working_set_blocks=FLAT_WORKING_SET, z=Z, block_bytes=128, stash_capacity=200
    )
    measured = scaled(8000, minimum=1500)

    def _run():
        engine = build_oram(
            OramSpec(protocol="flat", storage="numpy-flat"), config, seed=7
        )
        assert engine._column_engine is not None  # noqa: SLF001
        engine.access_many(range(1, FLAT_WORKING_SET + 1))
        seed = SeedReferenceORAM(
            config,
            storage=PlainTreeStorage(config),
            eviction_policy=SeedBackgroundEviction(),
            rng=random.Random(7),
        )
        for address in range(1, FLAT_WORKING_SET + 1):
            seed.access(address)
        pair = paired_throughput(
            engine, seed, WINDOWS, measured, FLAT_WORKING_SET, trace_seed=11
        )
        assert engine.total_blocks_stored() == seed.total_blocks_stored()

        # The stack's own before/after: the same workload through the
        # pre-engine generic loop (what numpy-flat ran before this PR).
        generic = build_oram(
            OramSpec(protocol="flat", storage="numpy-flat"), config, seed=7
        )
        generic._column_engine = None  # noqa: SLF001 - benchmark-only knob
        generic.access_many(range(1, FLAT_WORKING_SET + 1))
        generic_rate = measure_window_many(
            generic, random.Random(13), max(1500, measured // 4), FLAT_WORKING_SET
        )
        return pair, generic_rate, engine.storage.column_nbytes()

    (engine_rate, seed_rate), generic_rate, nbytes = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    speedup = engine_rate / seed_rate

    record = {
        "config": f"Z={Z}, working_set={FLAT_WORKING_SET} blocks, 50% utilization",
        "baseline": "seed_reference replay (same calibration as the flat section)",
        "engine_path": "column-native access_many (numpy-flat stack)",
        "accesses_per_window": measured,
        "window_pairs": WINDOWS,
        "engine_accesses_per_sec": round(engine_rate, 1),
        "seed_reference_accesses_per_sec": round(seed_rate, 1),
        "generic_numpy_accesses_per_sec": round(generic_rate, 1),
        "column_engine_vs_generic": round(engine_rate / generic_rate, 2),
        "column_metadata_bytes": nbytes,
        "speedup": round(speedup, 2),
    }
    record_perf(
        "numpy_flat",
        record,
        "Column-native engine — numpy-flat access_many vs. seed reference "
        f"(Z={Z}, 2^16-block working set)",
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"column engine only {speedup:.2f}x over seed reference"
    )
    assert engine_rate > generic_rate, (
        "column-native loop must beat the stack's pre-engine generic path"
    )


def _spec_hierarchy() -> HierarchyConfig:
    data = ORAMConfig(
        working_set_blocks=HIER_WORKING_SET, z=4, block_bytes=128, stash_capacity=200
    )
    return HierarchyConfig(
        data_oram=data,
        position_map_block_bytes=16,
        position_map_z=3,
        onchip_position_map_limit_bytes=512,
        name="numpy-coalescing",
    )


def _spec_window(oram, rng, measured: int, working_set: int) -> float:
    """One libquantum replay window through ``access_many``.

    The window's trace seed comes from the harness RNG, so the engine and
    seed sides (lock-stepped RNGs) replay identical streams.
    """
    import gc
    import time

    warmup = max(1, measured // 20)
    trace = benchmark_trace("libquantum", warmup + measured, seed=rng.getrandbits(32))
    addresses = [(record.address // 128) % working_set + 1 for record in trace]
    oram.access_many(addresses[:warmup])
    gc.collect()
    start = time.perf_counter()
    oram.access_many(addresses[warmup:])
    return measured / (time.perf_counter() - start)


def _spec_window_loop(oram, rng, measured: int, working_set: int) -> float:
    """The seed side of :func:`_spec_window` (per-access replay)."""
    import gc
    import time

    warmup = max(1, measured // 20)
    trace = benchmark_trace("libquantum", warmup + measured, seed=rng.getrandbits(32))
    addresses = [(record.address // 128) % working_set + 1 for record in trace]
    for address in addresses[:warmup]:
        oram.access(address)
    gc.collect()
    start = time.perf_counter()
    for address in addresses[warmup:]:
        oram.access(address)
    return measured / (time.perf_counter() - start)


def test_chain_coalescing_spec_replay_vs_seed(benchmark):
    hierarchy = _spec_hierarchy()
    measured = scaled(4000, minimum=800)

    def _run():
        spec = OramSpec(
            protocol="hierarchical",
            storage="numpy-flat",
            plb_entries_per_level=1,
            columnar_min_slots=1 << 16,
        )
        engine = build_oram(spec, hierarchy, seed=7)
        # Adaptive stack: the big data ORAM is column-native, the small
        # position-map ORAMs stay on the list engine.
        assert type(engine.data_oram.storage).__name__ == "NumpyFlatTreeStorage"
        engine.access_many(range(1, HIER_WORKING_SET + 1))
        seed = SeedReferenceHierarchicalORAM(hierarchy, rng=random.Random(7))
        for address in range(1, HIER_WORKING_SET + 1):
            seed.access(address)
        before_coalesced = sum(o.stats.coalesced_ops for o in engine.orams)
        before_real = engine.stats.real_accesses
        pair = paired_throughput(
            engine,
            seed,
            WINDOWS,
            measured,
            HIER_WORKING_SET,
            trace_seed=11,
            engine_window=_spec_window,
            reference_window=_spec_window_loop,
        )
        coalesced = sum(o.stats.coalesced_ops for o in engine.orams) - before_coalesced
        accesses = engine.stats.real_accesses - before_real
        engine_stored = sum(
            oram.stash_occupancy + oram.storage.occupancy() for oram in engine.orams
        )
        assert engine_stored == seed.total_blocks_stored()
        return pair, coalesced / accesses, hierarchy.num_orams

    (engine_rate, seed_rate), coalesced_per_access, num_orams = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    speedup = engine_rate / seed_rate

    record = {
        "config": (
            f"{num_orams}-level recursive hierarchy, data working_set="
            f"{HIER_WORKING_SET} blocks (column-native), 16B position-map "
            "blocks on the list engine"
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
        "speedup": round(speedup, 2),
    }
    record_perf(
        "chain_coalescing",
        record,
        "Chain coalescing — recursive SPEC replay on the adaptive "
        "numpy-flat stack vs. seed chain",
    )

    assert speedup >= COALESCING_FLOOR, (
        f"coalescing chain only {speedup:.2f}x over seed chain replay"
    )
    assert coalesced_per_access > 0, "the replay must actually coalesce"
