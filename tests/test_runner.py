"""Unified experiment runner: determinism, ordering, errors, progress."""

import pytest

from repro.analysis.hierarchy import measure_dummy_factors
from repro.analysis.spec_eval import Figure12Config, Table2Row, figure12_slowdowns
from repro.analysis.stash_occupancy import run_stash_occupancy_sweep
from repro.analysis.sweep import sweep_stash_size, sweep_utilization
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.presets import dz3pb32
from repro.errors import ConfigurationError
from repro.runner import (
    CheckpointManager,
    ExperimentRunner,
    ExperimentSpec,
    RetryPolicy,
    RunnerError,
    WindowPlan,
    derive_seed,
)
from repro.workloads.spec_like import benchmark_trace
from repro.workloads.synthetic import synthetic_trace


def _point(value, seed=0, fail=False):
    """Module-level experiment function (picklable for the process pool)."""
    if fail:
        raise ValueError(f"boom on {value}")
    import random

    rng = random.Random(seed)
    return (value, seed, rng.randrange(1_000_000))


def _slow_point(value, seed=0):
    """Slow enough that an abort lands while points are still pending."""
    import time

    time.sleep(0.05)
    return value


def _specs(values, base_seed=7):
    return [
        ExperimentSpec(
            key=("point", value),
            fn=_point,
            kwargs={"value": value},
            seed=derive_seed(base_seed, ("point", value)),
        )
        for value in values
    ]


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(1, (3, 0.5)) == derive_seed(1, (3, 0.5))
        assert derive_seed(1, (3, 0.5)) != derive_seed(2, (3, 0.5))
        assert derive_seed(1, (3, 0.5)) != derive_seed(1, (4, 0.5))


class TestExperimentRunner:
    def test_serial_returns_values_in_spec_order(self):
        values = ExperimentRunner().run_values(_specs([5, 3, 9]))
        assert [value[0] for value in values] == [5, 3, 9]

    def test_parallel_matches_serial_bit_for_bit(self):
        specs = _specs(list(range(12)))
        serial = ExperimentRunner(executor="serial").run_values(specs)
        parallel = ExperimentRunner(executor="process", max_workers=2).run_values(specs)
        assert serial == parallel

    def test_errors_are_captured_per_point(self):
        specs = [
            ExperimentSpec(key="ok", fn=_point, kwargs={"value": 1}),
            ExperimentSpec(key="bad", fn=_point, kwargs={"value": 2, "fail": True}),
        ]
        results = ExperimentRunner().run(specs)
        assert results[0].ok and not results[1].ok
        assert "boom on 2" in results[1].error
        with pytest.raises(RunnerError):
            ExperimentRunner().run_values(specs)

    def test_progress_callback_sees_every_point(self):
        seen = []
        runner = ExperimentRunner(progress=lambda done, total, result: seen.append((done, total)))
        runner.run(_specs([1, 2, 3]))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_abort_stops_serial_run(self):
        completed = []
        runner = ExperimentRunner(
            progress=lambda done, total, result: completed.append(result.key),
            should_abort=lambda: len(completed) >= 2,
        )
        results = runner.run(_specs([1, 2, 3, 4]))
        assert [result.ok for result in results] == [True, True, False, False]
        assert results[-1].error == "aborted"

    def test_abort_backfill_carries_error_type(self):
        completed = []
        runner = ExperimentRunner(
            progress=lambda done, total, result: completed.append(result.key),
            should_abort=lambda: len(completed) >= 1,
        )
        results = runner.run(_specs([1, 2, 3]))
        assert [result.error_type for result in results] == [None, "Aborted", "Aborted"]

    def test_error_type_names_the_exception_class(self):
        specs = [ExperimentSpec(key="bad", fn=_point, kwargs={"value": 2, "fail": True})]
        result = ExperimentRunner().run(specs)[0]
        assert result.error_type == "ValueError"

    def test_run_values_reports_overflow_failures_compactly(self):
        specs = [
            ExperimentSpec(key=("bad", value), fn=_point, kwargs={"value": value, "fail": True})
            for value in range(9)
        ]
        with pytest.raises(RunnerError) as excinfo:
            ExperimentRunner().run_values(specs)
        message = str(excinfo.value)
        assert "9 experiment point(s) failed" in message
        assert "[ValueError]" in message
        assert "(+4 more)" in message

    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        import concurrent.futures

        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
        specs = _specs([4, 5, 6])
        serial = ExperimentRunner().run_values(specs)
        fallen_back = ExperimentRunner(executor="process", max_workers=2).run_values(specs)
        assert fallen_back == serial

    def test_abort_mid_pool_backfills_aborted(self):
        completed = []
        specs = [
            ExperimentSpec(key=("slow", value), fn=_slow_point, kwargs={"value": value})
            for value in range(12)
        ]
        runner = ExperimentRunner(
            executor="process",
            max_workers=2,
            progress=lambda done, total, result: completed.append(result.key),
            should_abort=lambda: len(completed) >= 2,
        )
        results = runner.run(specs)
        aborted = [result for result in results if result.error == "aborted"]
        finished = [result for result in results if result.ok]
        assert aborted and finished
        assert all(result.error_type == "Aborted" for result in aborted)
        assert len(aborted) + len(finished) == 12

    def test_empty_spec_list(self):
        assert ExperimentRunner().run([]) == []

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="'serial' or 'process'"):
            ExperimentRunner(executor="threads")


@pytest.mark.parametrize(
    "build",
    [
        lambda path: ExperimentRunner(executor="threads"),
        lambda path: RetryPolicy(max_attempts=0),
        lambda path: RetryPolicy(backoff_seconds=-1.0),
        lambda path: WindowPlan.split("exp", 0, total_accesses=10, windows=0),
        lambda path: CheckpointManager(path, every=0),
        lambda path: CheckpointManager(path, keep_generations=0),
    ],
    ids=[
        "executor",
        "retry-max-attempts",
        "retry-backoff",
        "window-count",
        "checkpoint-every",
        "checkpoint-keep-generations",
    ],
)
def test_runner_argument_checks_raise_configuration_error(build, tmp_path):
    # The facade promises every package error derives from ReproError.
    with pytest.raises(ConfigurationError):
        build(tmp_path / "grid.ckpt")


class TestParallelSweepDeterminism:
    """The acceptance bar: parallel sweeps match serial ones bit-for-bit."""

    def test_fig8_mini_sweep_parallel_equals_serial(self):
        kwargs = dict(
            z_values=[2, 4],
            utilizations=[0.5, 0.8],
            capacity_blocks=512,
            num_accesses=120,
            seed=5,
            stash_slack=25,
            abort_dummy_factor=15.0,
        )
        serial = sweep_utilization(executor="serial", **kwargs)
        parallel = sweep_utilization(executor="process", max_workers=2, **kwargs)
        assert serial == parallel
        assert len(serial) == 4

    def test_fig7_mini_sweep_parallel_equals_serial(self):
        kwargs = dict(
            z_values=[2, 3],
            stash_sizes=[60, 100],
            working_set_blocks=256,
            num_accesses=150,
            seed=3,
        )
        serial = sweep_stash_size(executor="serial", **kwargs)
        parallel = sweep_stash_size(executor="process", max_workers=2, **kwargs)
        assert serial == parallel

    def test_stash_occupancy_sweep_parallel_equals_serial(self):
        kwargs = dict(z_values=[1, 2], working_set_blocks=256, num_accesses=600, seed=2)
        serial = run_stash_occupancy_sweep(executor="serial", **kwargs)
        parallel = run_stash_occupancy_sweep(executor="process", max_workers=2, **kwargs)
        assert serial == parallel


def _mini_hierarchy(working_set: int, name: str) -> HierarchyConfig:
    data = ORAMConfig(
        working_set_blocks=working_set, z=4, block_bytes=64, stash_capacity=150,
        name=name,
    )
    return HierarchyConfig(
        data_oram=data,
        position_map_block_bytes=8,
        position_map_z=3,
        onchip_position_map_limit_bytes=32,
        name=name,
    )


class TestHierarchicalGridDeterminism:
    """Registry-built hierarchical grids parallelise bit-identically."""

    def test_dummy_factor_grid_parallel_equals_serial(self):
        configs = {
            name: _mini_hierarchy(working_set, name)
            for name, working_set in (("h256", 256), ("h384", 384), ("h512", 512))
        }
        serial = measure_dummy_factors(configs, num_accesses=150, seed=4, executor="serial")
        parallel = measure_dummy_factors(
            configs, num_accesses=150, seed=4, executor="process", max_workers=2
        )
        assert serial == parallel
        assert set(serial) == set(configs)

    def test_fig12_mini_grid_parallel_equals_serial(self):
        # A hand-sized Figure 12 cell: the latency row is fixed so the grid
        # exercises exactly the registry-built processor/ORAM stack.
        hierarchy = dz3pb32(scale=1 / 65536)
        latency = Table2Row(
            name="DZ3Pb32", num_orams=hierarchy.num_orams,
            return_data_cycles=1000.0, finish_access_cycles=2000.0,
            stash_kilobytes=1.0, position_map_kilobytes=1.0,
        )
        configuration = Figure12Config(
            name="DZ3Pb32", hierarchy=hierarchy, super_block_size=1, latency=latency
        )
        kwargs = dict(
            benchmarks=["mcf", "hmmer"],
            num_memory_ops=300,
            configurations=[configuration],
            warmup_operations=100,
            seed=6,
        )
        serial = figure12_slowdowns(executor="serial", **kwargs)
        parallel = figure12_slowdowns(executor="process", max_workers=2, **kwargs)
        assert serial == parallel
        assert set(serial) == {"mcf", "hmmer"}


class TestDerivedSeedTraceGeneration:
    """Workload generators ride the runner's derived-seed mechanism."""

    def test_benchmark_trace_stable_and_distinct(self):
        assert benchmark_trace("mcf", 200, seed=3) == benchmark_trace("mcf", 200, seed=3)
        assert benchmark_trace("mcf", 200, seed=3) != benchmark_trace("mcf", 200, seed=4)
        assert benchmark_trace("mcf", 200, seed=3) != benchmark_trace("bzip2", 200, seed=3)

    def test_synthetic_trace_stable_and_distinct(self):
        kwargs = dict(num_ops=150, working_set_bytes=1 << 16)
        assert synthetic_trace("random", seed=1, **kwargs) == synthetic_trace(
            "random", seed=1, **kwargs
        )
        assert synthetic_trace("random", seed=1, **kwargs) != synthetic_trace(
            "random", seed=2, **kwargs
        )
        assert synthetic_trace("random", seed=1, **kwargs) != synthetic_trace(
            "hotspot", seed=1, **kwargs
        )

    def test_trace_generation_in_workers_matches_serial(self):
        specs = [
            ExperimentSpec(
                key=("trace", benchmark),
                fn=benchmark_trace,
                kwargs={"benchmark": benchmark, "num_memory_ops": 300},
                seed=derive_seed(9, ("trace", benchmark)),
            )
            for benchmark in ("mcf", "libquantum", "bzip2")
        ] + [
            ExperimentSpec(
                key=("synthetic", kind),
                fn=synthetic_trace,
                kwargs={"kind": kind, "num_ops": 300, "working_set_bytes": 1 << 16},
                seed=derive_seed(9, ("synthetic", kind)),
            )
            for kind in ("random", "pointer_chase", "hotspot")
        ]
        serial = ExperimentRunner(executor="serial").run_values(specs)
        parallel = ExperimentRunner(executor="process", max_workers=2).run_values(specs)
        assert serial == parallel


class TestErrorClassification:
    """Transient vs deterministic error-type routing in RetryPolicy."""

    def test_disk_hiccups_are_transient(self):
        from repro.runner import RetryPolicy

        policy = RetryPolicy()
        for error_type in ("OSError", "IOError", "BrokenPipeError", "TimeoutError"):
            assert policy.is_transient(error_type), error_type

    def test_typed_storage_verdicts_never_retried(self):
        from repro.runner import DETERMINISTIC_ERROR_TYPES, RetryPolicy

        policy = RetryPolicy()
        for error_type in DETERMINISTIC_ERROR_TYPES:
            assert not policy.is_transient(error_type), error_type
        # The two headline verdicts, spelled out: a DurabilityError or
        # IntegrityError reports what the stored bytes *are*; re-reading
        # them cannot change the answer.
        assert not policy.is_transient("DurabilityError")
        assert not policy.is_transient("IntegrityError")

    def test_unknown_errors_default_to_deterministic(self):
        from repro.runner import RetryPolicy

        policy = RetryPolicy()
        assert not policy.is_transient("ValueError")
        assert not policy.is_transient(None)

    def test_deterministic_failure_is_not_reexecuted(self):
        from repro.errors import DurabilityError
        from repro.runner import RetryPolicy

        calls = []

        def fn(value, seed=0):
            calls.append(value)
            raise DurabilityError("file is torn")

        specs = [ExperimentSpec(key="x", fn=fn, kwargs={"value": 1})]
        results = ExperimentRunner(retry=RetryPolicy(max_attempts=3)).run(specs)
        assert results[0].error_type == "DurabilityError"
        assert calls == [1]  # exactly one execution: no retry budget spent

    def test_transient_failure_is_retried(self):
        from repro.runner import RetryPolicy

        calls = []

        def fn(value, seed=0):
            calls.append(value)
            if len(calls) < 2:
                raise OSError("disk hiccup")
            return value

        specs = [ExperimentSpec(key="x", fn=fn, kwargs={"value": 1})]
        results = ExperimentRunner(retry=RetryPolicy(max_attempts=3)).run(specs)
        assert results[0].ok and results[0].value == 1
        assert calls == [1, 1]
