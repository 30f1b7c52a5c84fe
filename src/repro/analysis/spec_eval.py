"""Table 2 and Figure 12: concrete configurations on a secure processor.

Table 2 reports, for the baseline and optimised ORAM configurations, the
CPU-cycle latency to return data and to finish an access, plus the on-chip
stash and position-map storage.  Figure 12 replays SPEC-like traces through
the processor model with each configuration and reports execution time
normalised to an insecure DRAM-based processor.

Latencies are computed from the DRAM timing model at the paper's full-scale
geometry (8 GB-class ORAMs); the functional ORAM that tracks block movement,
dummy accesses and super-block prefetches runs at a scaled-down capacity
large enough to contain each benchmark's working set.  EXPERIMENTS.md
records both scales.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace

from repro.analysis.sweep import SUPER_BLOCK_MODES, super_block_variant
from repro.backends import OramSpec, build_memory_backend, build_oram
from repro.core.config import HierarchyConfig
from repro.core.overhead import onchip_storage
from repro.core.presets import base_oram, dz3pb32, dz4pb32
from repro.dram.config import DRAMConfig
from repro.dram.oram_dram import ORAMDRAMSimulator, subtree_placement_factory
from repro.processor.config import ProcessorConfig, table1_processor
from repro.processor.memory import DRAMBackend
from repro.processor.simulator import ProcessorSimulator, SimulationResult
from repro.runner import (
    ExperimentRunner,
    ExperimentSpec,
    ProgressCallback,
    derive_seed,
)
from repro.workloads.spec_like import benchmark_trace

#: The scenario Figure 12's functional ORAMs run on: the recursive
#: construction over the fast functional storage.
FIGURE12_SPEC = OramSpec(protocol="hierarchical", storage="flat")

#: Decryption latency per ORAM in the hierarchy, in CPU cycles (the paper's
#: latency model is ``4 x DRAM cycles + H x decryption``; AES pipeline
#: latency of a few tens of cycles).
DEFAULT_DECRYPTION_LATENCY_CYCLES = 80


@dataclass(frozen=True)
class Table2Row:
    """One column of Table 2."""

    name: str
    num_orams: int
    return_data_cycles: float
    finish_access_cycles: float
    stash_kilobytes: float
    position_map_kilobytes: float


@dataclass(frozen=True)
class Figure12Config:
    """One ORAM configuration evaluated in Figure 12."""

    name: str
    hierarchy: HierarchyConfig
    super_block_size: int
    latency: Table2Row


def table2_row(name: str, hierarchy: HierarchyConfig, channels: int = 4,
               num_accesses: int = 10, seed: int = 0,
               decryption_latency: int = DEFAULT_DECRYPTION_LATENCY_CYCLES,
               cpu_per_dram_cycle: int = 4) -> Table2Row:
    """Compute one Table 2 column from the DRAM model and storage formulas."""
    simulator = ORAMDRAMSimulator(
        hierarchy, DRAMConfig(channels=channels), subtree_placement_factory,
        rng=random.Random(seed),
    )
    latency = simulator.measure(num_accesses)
    return_cpu, finish_cpu = latency.cpu_cycles(
        hierarchy.num_orams, cpu_per_dram_cycle=cpu_per_dram_cycle,
        decryption_latency_cycles=decryption_latency,
    )
    storage = onchip_storage(hierarchy)
    return Table2Row(
        name=name,
        num_orams=hierarchy.num_orams,
        return_data_cycles=return_cpu,
        finish_access_cycles=finish_cpu,
        stash_kilobytes=storage.stash_kilobytes,
        position_map_kilobytes=storage.position_map_kilobytes,
    )


def table2_rows(channels: int = 4, num_accesses: int = 10, seed: int = 0) -> list[Table2Row]:
    """The three Table 2 configurations at the paper's full scale."""
    configurations = {
        "baseORAM": base_oram(1.0),
        "DZ3Pb32": dz3pb32(1.0),
        "DZ4Pb32": dz4pb32(1.0),
    }
    return [
        table2_row(name, hierarchy, channels=channels, num_accesses=num_accesses, seed=seed)
        for name, hierarchy in configurations.items()
    ]


def figure12_configurations(functional_scale: float = 1.0 / 1024, channels: int = 4,
                            seed: int = 0) -> list[Figure12Config]:
    """The four ORAM configurations of Figure 12.

    ``functional_scale`` sizes the functional ORAM used for block movement;
    latencies always come from the full-scale geometry.
    """
    entries = [
        ("baseORAM", base_oram, 1),
        ("DZ3Pb32", dz3pb32, 1),
        ("DZ3Pb32+SB", dz3pb32, 2),
        ("DZ4Pb32+SB", dz4pb32, 2),
    ]
    configs = []
    for name, factory, super_block in entries:
        latency = table2_row(name.split("+")[0], factory(1.0), channels=channels, seed=seed)
        hierarchy = factory(functional_scale, super_block_size=super_block)
        configs.append(
            Figure12Config(
                name=name, hierarchy=hierarchy, super_block_size=super_block, latency=latency
            )
        )
    return configs


#: Warm-up memory operations per measured memory operation.  The warm-up
#: phase only touches the cache hierarchy (the memory back-end is skipped),
#: standing in for the paper's 1-billion-instruction fast-forward.
DEFAULT_WARMUP_RATIO = 3.0


def _warmup_count(num_memory_ops: int, warmup_operations: int | None) -> int:
    if warmup_operations is not None:
        return warmup_operations
    return int(num_memory_ops * DEFAULT_WARMUP_RATIO)


def run_dram_baseline(benchmark: str, num_memory_ops: int, seed: int = 0,
                      processor: ProcessorConfig | None = None,
                      channels: int = 4,
                      warmup_operations: int | None = None) -> SimulationResult:
    """Replay one benchmark on the insecure DRAM-backed processor.

    The trace comes from :func:`~repro.workloads.spec_like.benchmark_trace`,
    whose RNG is derived from ``seed`` and the trace identity — so the ORAM
    replays of the same benchmark see the identical reference stream, in
    serial runs and process-pool workers alike.
    """
    warmup = _warmup_count(num_memory_ops, warmup_operations)
    trace = benchmark_trace(benchmark, num_memory_ops + warmup, seed=seed)
    config = processor if processor is not None else table1_processor()
    backend = DRAMBackend(DRAMConfig(channels=channels), line_bytes=config.line_bytes)
    return ProcessorSimulator(config, backend).run(trace, warmup_operations=warmup)


def run_oram_configuration(benchmark: str, configuration: Figure12Config,
                           num_memory_ops: int, seed: int = 0,
                           processor: ProcessorConfig | None = None,
                           warmup_operations: int | None = None,
                           oram_spec: OramSpec = FIGURE12_SPEC) -> SimulationResult:
    """Replay one benchmark on the secure processor with one ORAM config.

    The trace is the same derived-seed stream the DRAM baseline replays;
    the ORAM backend comes from the registry (``oram_spec``), seeded per
    (benchmark, configuration) so grid points stay independent.
    """
    warmup = _warmup_count(num_memory_ops, warmup_operations)
    trace = benchmark_trace(benchmark, num_memory_ops + warmup, seed=seed)
    config = processor if processor is not None else table1_processor()
    backend = build_memory_backend(
        oram_spec,
        configuration.hierarchy,
        return_data_cycles=configuration.latency.return_data_cycles,
        finish_access_cycles=configuration.latency.finish_access_cycles,
        line_bytes=config.line_bytes,
        seed=derive_seed(seed, ("fig12-oram", benchmark, configuration.name)),
    )
    return ProcessorSimulator(config, backend).run(trace, warmup_operations=warmup)


@dataclass(frozen=True)
class SuperBlockReplayResult:
    """One (benchmark, super-block mode) ORAM-level SPEC replay."""

    benchmark: str
    mode: str
    group_size: int
    accesses: int
    found: int
    dummy_rounds: int
    merges: int
    splits: int
    hits: int

    @property
    def hit_ratio(self) -> float:
        """Dynamic-merging prefetch-win rate (see
        :class:`~repro.analysis.sweep.SuperBlockPoint.hit_ratio`)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


def run_super_block_trace_replay(benchmark: str, configuration: Figure12Config,
                                 mode: str, num_memory_ops: int, seed: int = 0,
                                 line_bytes: int = 128, group_size: int = 4,
                                 window: int = 512, merge_threshold: int = 2,
                                 split_threshold: int = 4,
                                 oram_spec: OramSpec = FIGURE12_SPEC
                                 ) -> SuperBlockReplayResult:
    """Replay one benchmark at the ORAM level under one super-block mode.

    The dynamic-vs-static-vs-off axis of the SPEC evaluation: every memory
    operation of the benchmark's derived-seed trace (the stream
    :func:`run_dram_baseline` replays) becomes one hierarchical ORAM
    access, bypassing the cache hierarchy, with the configuration's data
    ORAM regrouped per ``mode`` (``off`` ungrouped, ``static`` at
    ``group_size``, ``dynamic`` with the runtime-merging policy knobs on
    the spec) and consumed through one fused
    :meth:`~repro.core.hierarchical.HierarchicalPathORAM.access_many`
    call.  Returns the replay counters plus the data ORAM's merge / split /
    hit statistics.
    """
    hierarchy = configuration.hierarchy
    mode_spec, data_config = super_block_variant(
        oram_spec, hierarchy.data_oram, mode,
        group_size=group_size, window=window,
        merge_threshold=merge_threshold, split_threshold=split_threshold,
    )
    mode_hierarchy = dataclass_replace(hierarchy, data_oram=data_config)
    trace = benchmark_trace(benchmark, num_memory_ops, seed=seed)
    oram = build_oram(
        mode_spec,
        mode_hierarchy,
        seed=derive_seed(seed, ("spec-superblock", benchmark, mode)),
    )
    working_set = mode_hierarchy.data_oram.working_set_blocks
    addresses = [
        (record.address // line_bytes) % working_set + 1 for record in trace
    ]
    result = oram.access_many(addresses)
    stats = oram.data_oram.stats
    return SuperBlockReplayResult(
        benchmark=benchmark,
        mode=mode,
        group_size=group_size,
        accesses=result.accesses,
        found=result.found,
        dummy_rounds=oram.stats.dummy_accesses,
        merges=stats.super_block_merges,
        splits=stats.super_block_splits,
        hits=stats.super_block_hits,
    )


def figure12_super_block_axis(benchmarks: list[str], num_memory_ops: int = 5_000,
                              modes: tuple[str, ...] | None = None,
                              functional_scale: float = 1.0 / 1024,
                              group_size: int = 4, window: int = 512,
                              merge_threshold: int = 2, split_threshold: int = 4,
                              seed: int = 0,
                              configuration: Figure12Config | None = None,
                              executor: str = "serial",
                              max_workers: int | None = None,
                              progress: ProgressCallback | None = None
                              ) -> dict[str, dict[str, SuperBlockReplayResult]]:
    """The super-block mode axis over a set of SPEC benchmarks.

    Every (benchmark, mode) replay is an independent runner experiment
    (``executor="process"`` is bit-identical to serial), so the whole axis
    parallelises like the Figure 12 grid it extends.
    """
    if modes is None:
        modes = SUPER_BLOCK_MODES
    if configuration is None:
        configuration = figure12_configurations(
            functional_scale=functional_scale, seed=seed
        )[0]
    specs = [
        ExperimentSpec(
            key=("super-block-axis", benchmark, mode),
            fn=run_super_block_trace_replay,
            kwargs={
                "benchmark": benchmark,
                "configuration": configuration,
                "mode": mode,
                "num_memory_ops": num_memory_ops,
                "group_size": group_size,
                "window": window,
                "merge_threshold": merge_threshold,
                "split_threshold": split_threshold,
            },
            seed=seed,
        )
        for benchmark in benchmarks
        for mode in modes
    ]
    runner = ExperimentRunner(
        executor=executor, max_workers=max_workers, progress=progress
    )
    values = runner.run_values(specs)
    results: dict[str, dict[str, SuperBlockReplayResult]] = {}
    index = 0
    for benchmark in benchmarks:
        results[benchmark] = {}
        for mode in modes:
            results[benchmark][mode] = values[index]
            index += 1
    return results


def figure12_slowdowns(benchmarks: list[str], num_memory_ops: int = 20_000,
                       functional_scale: float = 1.0 / 1024, seed: int = 0,
                       configurations: list[Figure12Config] | None = None,
                       warmup_operations: int | None = None,
                       executor: str = "serial", max_workers: int | None = None,
                       progress: ProgressCallback | None = None
                       ) -> dict[str, dict[str, float]]:
    """Slowdown of every ORAM configuration over DRAM, per benchmark.

    Every (benchmark, configuration) replay — including each benchmark's
    DRAM baseline — is an independent trace simulation dispatched through
    the experiment runner, so the whole Figure 12 grid parallelises under
    either executor.
    """
    if configurations is None:
        configurations = figure12_configurations(functional_scale=functional_scale, seed=seed)
    specs = [
        ExperimentSpec(
            key=(benchmark, "dram-baseline"),
            fn=run_dram_baseline,
            kwargs={
                "benchmark": benchmark,
                "num_memory_ops": num_memory_ops,
                "warmup_operations": warmup_operations,
            },
            seed=seed,
        )
        for benchmark in benchmarks
    ] + [
        ExperimentSpec(
            key=(benchmark, configuration.name),
            fn=run_oram_configuration,
            kwargs={
                "benchmark": benchmark,
                "configuration": configuration,
                "num_memory_ops": num_memory_ops,
                "warmup_operations": warmup_operations,
            },
            seed=seed,
        )
        for benchmark in benchmarks
        for configuration in configurations
    ]
    runner = ExperimentRunner(
        executor=executor, max_workers=max_workers, progress=progress
    )
    values = runner.run_values(specs)
    baselines = dict(zip(benchmarks, values[: len(benchmarks)]))
    results: dict[str, dict[str, float]] = {benchmark: {} for benchmark in benchmarks}
    index = len(benchmarks)
    for benchmark in benchmarks:
        for configuration in configurations:
            results[benchmark][configuration.name] = values[index].slowdown_over(
                baselines[benchmark]
            )
            index += 1
    return results
