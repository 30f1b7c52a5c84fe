"""Design-space sweeps over stash size, utilization and capacity.

These drivers implement the experiments behind Figures 7, 8 and 9: random
accesses against a single (non-hierarchical) Path ORAM with background
eviction enabled, measuring the dummy-access ratio and the resulting access
overhead (Equation 1).  Configurations that the paper could not finish
(small Z at very high utilization) are detected by an abort threshold and
reported as unbounded rather than looping forever.

Every sweep builds its grid as :class:`~repro.runner.ExperimentSpec` points
and executes them through :class:`~repro.runner.ExperimentRunner`, so any
grid can run serially or on a process pool (``executor="process"``) with
bit-identical results — each point seeds its own ``random.Random``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.backends import OramSpec, build_oram
from repro.core.background_eviction import BackgroundEviction
from repro.core.config import ORAMConfig
from repro.core.overhead import measured_access_overhead, theoretical_access_overhead
from repro.errors import ReproError
from repro.runner import (
    ExperimentRunner,
    ExperimentSpec,
    ProgressCallback,
    derive_seed,
)

#: The scenario the design-space sweeps run on: a single fast-path ORAM with
#: background eviction.  :func:`measure_dummy_ratio` budgets each chunk's
#: dummies across its eviction calls, so the abort rule stops a point; the
#: livelock cap here is only the safety net for other callers of the spec.
SWEEP_SPEC = OramSpec(
    protocol="flat", storage="flat", eviction="background", livelock_limit=200_000
)

#: Accesses to complete before the abort threshold is consulted, so a noisy
#: start-up phase cannot abort a configuration that would settle down.
ABORT_GRACE_ACCESSES = 100

#: Accesses per fused :meth:`~repro.core.path_oram.PathORAM.access_many`
#: chunk between abort-threshold checks.  The dummy/real ratio of a
#: configuration headed for an abort only grows, so checking at chunk
#: granularity reaches the same abort verdict while the trace replay runs
#: at trace-at-once speed.
ABORT_CHECK_CHUNK = 128


@dataclass(frozen=True)
class SweepPoint:
    """One measured configuration in a design-space sweep."""

    z: int
    utilization: float
    working_set_blocks: int
    stash_capacity: int
    levels: int
    dummy_ratio: float
    access_overhead: float
    theoretical_overhead: float
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def label(self) -> str:
        return f"Z={self.z} util={self.utilization:.0%} C={self.stash_capacity}"


def _dummy_abort_reason(
    dummy_accesses: int, real_accesses: int, abort_dummy_factor: float, phase: str
) -> str | None:
    """The abort rule shared by the prefill and measurement loops.

    Returns a human-readable reason once the dummy accesses exceed
    ``abort_dummy_factor`` times the real accesses (after a grace period),
    mirroring the paper's observation that such configurations are too
    inefficient to finish.
    """
    if (
        real_accesses >= ABORT_GRACE_ACCESSES
        and dummy_accesses > abort_dummy_factor * real_accesses
    ):
        return (
            f"{phase}: {dummy_accesses} dummy accesses for "
            f"{real_accesses} real accesses exceeds factor {abort_dummy_factor:g}"
        )
    return None


def measure_dummy_ratio(
    config: ORAMConfig,
    num_accesses: int,
    seed: int = 0,
    abort_dummy_factor: float = 30.0,
    prefill: bool = True,
    spec: OramSpec = SWEEP_SPEC,
) -> SweepPoint:
    """Run random accesses and measure the dummy/real ratio (Equation 1).

    When ``prefill`` is set (the default), every working-set address is
    accessed once first so the ORAM holds its nominal utilization before
    measurement begins — the paper's experiments likewise measure a full
    ORAM (they run ``10 N`` accesses).  The run aborts (``aborted`` is set
    and ``abort_reason`` says why) once the dummy-access count exceeds
    ``abort_dummy_factor`` times the real accesses issued so far.  Both
    loops check at chunk granularity; under background eviction the rule
    also binds inside a chunk, whose dummies are budgeted across all its
    eviction calls (:attr:`BackgroundEviction.dummy_budget`), so a point
    stops one dummy past the budget, once its abort is certain (with the
    verdict the chunk-end check would give), not at the spec's livelock
    cap.  The backend stack comes from the registry ``spec`` (storage
    variants sweep identically thanks to the differential backend
    guarantees), and the trace replays through the fused ``access_many``
    loop.
    """
    oram = build_oram(spec, config, rng=random.Random(seed))
    # The workload stream is its own derived RNG: the trace can then be
    # pregenerated and replayed through the fused access_many loop without
    # perturbing the ORAM's leaf-draw stream.
    trace_rng = random.Random(derive_seed(seed, ("sweep-trace", config.name or "")))
    working_set = config.working_set_blocks
    eviction = oram.eviction_policy
    budgeted = isinstance(eviction, BackgroundEviction)

    def run_chunk(addresses: range | list[int], real_end: int) -> str | None:
        """Replay one chunk; the abort reason the chunk-end check gives."""
        # Dummies only grow and the chunk-end check compares them against
        # ``real_end``, so overrunning this budget means that check aborts.
        allowed = abort_dummy_factor * real_end
        if budgeted and real_end >= ABORT_GRACE_ACCESSES and math.isfinite(allowed):
            eviction.dummy_budget = max(1, math.floor(allowed) - oram.stats.dummy_accesses)
        oram.access_many(addresses)
        if budgeted:
            eviction.dummy_budget = None
        return _dummy_abort_reason(
            oram.stats.dummy_accesses, real_end, abort_dummy_factor, phase
        )

    abort_reason: str | None = None
    phase, done, real_end = "prefill", 0, 0
    try:
        if prefill:
            while done < working_set and abort_reason is None:
                real_end = min(done + ABORT_CHECK_CHUNK, working_set)
                abort_reason = run_chunk(range(done + 1, real_end + 1), real_end)
                done = real_end
            oram.stats.reset()
        if abort_reason is None:
            randrange = trace_rng.randrange
            phase, done = "measurement", 0
            while done < num_accesses and abort_reason is None:
                real_end = min(done + ABORT_CHECK_CHUNK, num_accesses)
                abort_reason = run_chunk(
                    [randrange(1, working_set + 1) for _ in range(real_end - done)],
                    real_end,
                )
                done = real_end
    except ReproError as exc:
        abort_reason = _dummy_abort_reason(
            oram.stats.dummy_accesses, real_end, abort_dummy_factor, phase
        ) or f"eviction livelock: {exc}"

    stats = oram.stats
    aborted = abort_reason is not None
    dummy_ratio = stats.dummy_ratio if not aborted else math.inf
    overhead = (
        measured_access_overhead(config, stats) if not aborted else math.inf
    )
    return SweepPoint(
        z=config.z,
        utilization=config.utilization,
        working_set_blocks=config.working_set_blocks,
        stash_capacity=config.stash_capacity or 0,
        levels=config.levels,
        dummy_ratio=dummy_ratio,
        access_overhead=overhead,
        theoretical_overhead=theoretical_access_overhead(config),
        aborted=aborted,
        abort_reason=abort_reason,
    )


def run_sweep(
    configs: list[ORAMConfig],
    num_accesses: int,
    seed: int = 0,
    abort_dummy_factor: float = 30.0,
    executor: str = "serial",
    max_workers: int | None = None,
    progress: ProgressCallback | None = None,
    spec: OramSpec = SWEEP_SPEC,
) -> list[SweepPoint]:
    """Measure every configuration through the experiment runner.

    Points are returned in ``configs`` order; with ``executor="process"``
    they are computed in parallel, bit-identically to serial mode (each
    point is an independent, self-seeded simulation whose backend is built
    from the picklable registry ``spec`` inside the worker).
    """
    specs = [
        ExperimentSpec(
            key=(config.name or index, config.z, config.stash_capacity),
            fn=measure_dummy_ratio,
            kwargs={
                "config": config,
                "num_accesses": num_accesses,
                "abort_dummy_factor": abort_dummy_factor,
                "spec": spec,
            },
            seed=seed,
        )
        for index, config in enumerate(configs)
    ]
    runner = ExperimentRunner(
        executor=executor, max_workers=max_workers, progress=progress
    )
    return runner.run_values(specs)


#: The super-block sweep axis: no merging, the paper's static scheme, and
#: the runtime merging the paper left as future work.
SUPER_BLOCK_MODES = ("off", "static", "dynamic")


@dataclass(frozen=True)
class SuperBlockPoint:
    """One (trace kind, super-block mode) point of the merging sweep."""

    trace_kind: str
    mode: str
    group_size: int
    accesses: int
    dummy_ratio: float
    merges: int
    splits: int
    hits: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses that found their block co-resident with a
        multi-member group (the prefetch-win rate; 0 for off/static —
        static groups are always co-resident by construction, so the
        counter only tracks the dynamic scheme's convergence)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


def super_block_variant(
    spec: OramSpec,
    config: ORAMConfig,
    mode: str,
    group_size: int = 4,
    window: int = 512,
    merge_threshold: int = 2,
    split_threshold: int = 4,
) -> tuple[OramSpec, ORAMConfig]:
    """The (spec, config) pair realising one super-block mode.

    ``off`` clears grouping entirely, ``static`` bakes ``group_size`` into
    the configuration (the paper's Section 3.2 scheme), and ``dynamic``
    keeps the configuration ungrouped and turns on the runtime merging
    policy knobs on the spec.
    """
    if mode == "off":
        return (
            spec.with_updates(dynamic_super_blocks=False),
            config.with_updates(super_block_size=1),
        )
    if mode == "static":
        return (
            spec.with_updates(dynamic_super_blocks=False),
            config.with_updates(super_block_size=group_size),
        )
    if mode == "dynamic":
        return (
            spec.with_updates(
                dynamic_super_blocks=True,
                super_block_max_size=group_size,
                super_block_window=window,
                super_block_merge_threshold=merge_threshold,
                super_block_split_threshold=split_threshold,
            ),
            config.with_updates(super_block_size=1),
        )
    raise ReproError(
        f"unknown super-block mode {mode!r}; expected one of {SUPER_BLOCK_MODES}"
    )


def measure_super_block_mode(
    config: ORAMConfig,
    mode: str,
    num_accesses: int,
    seed: int = 0,
    trace_kind: str = "hotspot",
    group_size: int = 4,
    window: int = 512,
    merge_threshold: int = 2,
    split_threshold: int = 4,
    spec: OramSpec = SWEEP_SPEC,
    access_bytes: int = 8,
) -> SuperBlockPoint:
    """Replay one synthetic trace under one super-block mode.

    The trace comes from the named
    :mod:`~repro.workloads.synthetic` generator (derived-seed, so pool
    workers regenerate it identically), folds into the ORAM's block space,
    and replays through one fused
    :meth:`~repro.core.path_oram.PathORAM.access_many` call.
    """
    from repro.workloads.synthetic import synthetic_trace

    mode_spec, mode_config = super_block_variant(
        spec, config, mode,
        group_size=group_size, window=window,
        merge_threshold=merge_threshold, split_threshold=split_threshold,
    )
    oram = build_oram(mode_spec, mode_config, rng=random.Random(seed))
    working_set = mode_config.working_set_blocks
    # The trace seed deliberately excludes the mode: every mode of a sweep
    # replays the identical address stream, so mode deltas measure the
    # policy, not trace noise.
    trace = synthetic_trace(
        trace_kind,
        num_accesses,
        working_set * access_bytes,
        seed=derive_seed(seed, ("super-block-sweep", trace_kind)),
    )
    addresses = [
        (record.address // access_bytes) % working_set + 1 for record in trace
    ]
    oram.access_many(addresses)
    stats = oram.stats
    return SuperBlockPoint(
        trace_kind=trace_kind,
        mode=mode,
        group_size=group_size,
        accesses=stats.real_accesses,
        dummy_ratio=stats.dummy_ratio,
        merges=stats.super_block_merges,
        splits=stats.super_block_splits,
        hits=stats.super_block_hits,
    )


def sweep_super_block_modes(
    config: ORAMConfig,
    num_accesses: int,
    trace_kinds: tuple[str, ...] = ("sequential", "hotspot", "pointer_chase"),
    modes: tuple[str, ...] = SUPER_BLOCK_MODES,
    seed: int = 0,
    group_size: int = 4,
    window: int = 512,
    merge_threshold: int = 2,
    split_threshold: int = 4,
    spec: OramSpec = SWEEP_SPEC,
    executor: str = "serial",
    max_workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> list[SuperBlockPoint]:
    """The dynamic-vs-static-vs-off axis over a grid of synthetic traces.

    Points come back in ``(trace_kind, mode)`` grid order, computed through
    the experiment runner (``executor="process"`` is bit-identical to
    serial — every point is an independent, self-seeded simulation built
    from a picklable spec).
    """
    specs = [
        ExperimentSpec(
            key=("super-block", trace_kind, mode),
            fn=measure_super_block_mode,
            kwargs={
                "config": config,
                "mode": mode,
                "num_accesses": num_accesses,
                "trace_kind": trace_kind,
                "group_size": group_size,
                "window": window,
                "merge_threshold": merge_threshold,
                "split_threshold": split_threshold,
                "spec": spec,
            },
            seed=seed,
        )
        for trace_kind in trace_kinds
        for mode in modes
    ]
    runner = ExperimentRunner(
        executor=executor, max_workers=max_workers, progress=progress
    )
    return runner.run_values(specs)


def sweep_stash_size(
    z_values: list[int],
    stash_sizes: list[int],
    working_set_blocks: int,
    num_accesses: int,
    utilization: float = 0.5,
    seed: int = 0,
    executor: str = "serial",
    max_workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> list[SweepPoint]:
    """Figure 7: dummy/real ratio versus stash size for each Z."""
    configs = [
        ORAMConfig(
            working_set_blocks=working_set_blocks,
            utilization=utilization,
            z=z,
            block_bytes=128,
            stash_capacity=stash,
            name=f"fig7-z{z}-c{stash}",
        )
        for z in z_values
        for stash in stash_sizes
    ]
    return run_sweep(
        configs, num_accesses, seed=seed,
        executor=executor, max_workers=max_workers, progress=progress,
    )


def utilization_config(
    z: int,
    utilization: float,
    capacity_blocks: int,
    stash_capacity: int = 200,
    block_bytes: int = 128,
    stash_slack: int | None = None,
) -> ORAMConfig:
    """Build a configuration whose *effective* utilization equals the target.

    The ORAM tree is a perfect binary tree, so its capacity is quantised to
    ``Z (2^(L+1) - 1)`` blocks.  The paper sweeps utilization by growing the
    ORAM around a fixed working set; with quantised capacities the requested
    utilization can land far from the effective one, so this helper instead
    fixes the tree (the smallest one holding ``capacity_blocks``) and sizes
    the working set to hit the requested utilization exactly.  EXPERIMENTS.md
    discusses the substitution.
    """
    levels = 0
    while z * ((1 << (levels + 1)) - 1) < capacity_blocks:
        levels += 1
    capacity = z * ((1 << (levels + 1)) - 1)
    working_set = max(1, int(round(utilization * capacity)))
    if stash_slack is not None:
        # Scale the stash with the tree: the paper's absolute C = 200 is
        # sized for 25-level trees; a scaled-down tree needs a
        # proportionally tighter stash for eviction pressure to appear
        # within a short run (see EXPERIMENTS.md).
        stash_capacity = z * (levels + 1) + stash_slack
    return ORAMConfig(
        working_set_blocks=working_set,
        utilization=working_set / capacity,
        z=z,
        block_bytes=block_bytes,
        stash_capacity=stash_capacity,
        name=f"fig8-z{z}-u{utilization:.2f}",
    )


def sweep_utilization(
    z_values: list[int],
    utilizations: list[float],
    working_set_blocks: int | None = None,
    num_accesses: int = 500,
    stash_capacity: int = 200,
    seed: int = 0,
    stash_slack: int | None = None,
    capacity_blocks: int | None = None,
    abort_dummy_factor: float = 30.0,
    executor: str = "serial",
    max_workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> list[SweepPoint]:
    """Figure 8: access overhead versus ORAM utilization for each Z.

    The tree size is set by ``capacity_blocks`` (directly) or by
    ``working_set_blocks`` (the tree is sized to hold roughly
    ``working_set_blocks / 0.5``); each utilization point then adjusts the
    number of valid blocks so the effective utilization matches the
    requested one exactly.  Points come back in ``(z, utilization)`` grid
    order.
    """
    if capacity_blocks is None:
        if working_set_blocks is None:
            raise ValueError("need working_set_blocks or capacity_blocks")
        capacity_blocks = 2 * working_set_blocks
    configs = [
        utilization_config(
            z, utilization, capacity_blocks, stash_capacity=stash_capacity,
            stash_slack=stash_slack,
        )
        for z in z_values
        for utilization in utilizations
    ]
    return run_sweep(
        configs, num_accesses, seed=seed, abort_dummy_factor=abort_dummy_factor,
        executor=executor, max_workers=max_workers, progress=progress,
    )


def sweep_capacity(
    z_values: list[int],
    working_sets: list[int],
    num_accesses_per_point: int,
    utilization: float = 0.5,
    stash_capacity: int = 200,
    seed: int = 0,
    stash_slack: int | None = None,
    executor: str = "serial",
    max_workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> list[SweepPoint]:
    """Figure 9: access overhead versus ORAM capacity at fixed utilization."""
    configs = []
    for z in z_values:
        for working_set in working_sets:
            config = ORAMConfig(
                working_set_blocks=working_set,
                utilization=utilization,
                z=z,
                block_bytes=128,
                stash_capacity=stash_capacity,
                name=f"fig9-z{z}-n{working_set}",
            )
            if stash_slack is not None:
                config = config.with_updates(
                    stash_capacity=config.blocks_per_path + stash_slack
                )
            configs.append(config)
    return run_sweep(
        configs, num_accesses_per_point, seed=seed,
        executor=executor, max_workers=max_workers, progress=progress,
    )
