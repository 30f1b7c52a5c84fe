"""Unified experiment runner for the design-space exploration drivers.

The paper's evaluation (Figures 3, 7-12) is thousands of *independent*
simulated configurations.  This package gives every driver one way to
describe a grid point (:class:`ExperimentSpec`), one result envelope
(:class:`ExperimentResult`) and one engine to execute a batch of points
(:class:`ExperimentRunner`) either serially or on a multiprocessing pool —
with results returned in spec order and derived per-point seeds, so the
parallel execution is bit-identical to the serial one.

Typical use::

    from repro.runner import ExperimentRunner, ExperimentSpec

    specs = [
        ExperimentSpec(key=(z, c), fn=measure_dummy_ratio,
                       kwargs={"config": make_config(z, c), "seed": 0})
        for z in z_values for c in stash_sizes
    ]
    points = ExperimentRunner(executor="process").run_values(specs)
"""

from repro.runner.checkpoint import CheckpointManager
from repro.runner.runner import (
    DETERMINISTIC_ERROR_TYPES,
    TRANSIENT_ERROR_TYPES,
    ExperimentRunner,
    ProgressCallback,
    RetryPolicy,
    RunnerError,
)
from repro.runner.spec import ExperimentResult, ExperimentSpec, derive_seed
from repro.runner.windows import WindowPlan, run_windows, window_specs

__all__ = [
    "CheckpointManager",
    "DETERMINISTIC_ERROR_TYPES",
    "ExperimentRunner",
    "ExperimentSpec",
    "ExperimentResult",
    "ProgressCallback",
    "RetryPolicy",
    "RunnerError",
    "TRANSIENT_ERROR_TYPES",
    "WindowPlan",
    "derive_seed",
    "run_windows",
    "window_specs",
]
