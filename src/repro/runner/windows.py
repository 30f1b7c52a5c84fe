"""Window-sharding: one huge experiment split across pool workers.

The grid drivers parallelise *across* experiment points; this module
parallelises *within* one experiment.  A long measurement is split into a
:class:`WindowPlan` of deterministic warmup+measure windows.  Each window
is an independent, self-seeded simulation (its seed derived from the plan's
base seed and the window index through :func:`~repro.runner.spec.derive_seed`),
so the windows can execute serially or on a process pool with bit-identical
results — the same guarantee the grid runner gives, applied to the shards
of a single experiment.  The caller merges the per-window values (counters
sum; ratios are recomputed from the summed counters).

Statistically this is the standard batch-means design: ``W`` windows of
``n`` accesses each, every window warmed up independently, estimate the
steady-state rates from the pooled counters.  It trades the single long
trajectory of a serial run for W independent trajectories — which is what
makes the shards embarrassingly parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.runner.checkpoint import CheckpointManager
from repro.runner.runner import ExperimentRunner, ProgressCallback, RetryPolicy
from repro.runner.spec import ExperimentSpec, derive_seed


@dataclass(frozen=True)
class WindowPlan:
    """How one long experiment is cut into parallelisable windows.

    Attributes
    ----------
    key:
        Stable label naming the experiment; part of every window's derived
        seed, so two different experiments sharing a base seed still get
        independent streams.
    base_seed:
        The experiment's seed; each window derives its own from it.
    window_accesses:
        Measured accesses per window, one entry per window.  Use
        :meth:`split` to distribute a total evenly.
    """

    key: Any
    base_seed: int
    window_accesses: tuple[int, ...]

    @classmethod
    def split(cls, key: Any, base_seed: int, total_accesses: int, windows: int) -> "WindowPlan":
        """Cut ``total_accesses`` into ``windows`` near-equal windows.

        The remainder is spread over the leading windows so the sizes never
        differ by more than one and every access is accounted for.
        """
        if windows < 1:
            raise ConfigurationError("windows must be >= 1")
        if total_accesses < windows:
            windows = max(1, total_accesses)
        base, extra = divmod(total_accesses, windows)
        sizes = tuple(base + (1 if index < extra else 0) for index in range(windows))
        return cls(key=key, base_seed=base_seed, window_accesses=sizes)

    @property
    def num_windows(self) -> int:
        return len(self.window_accesses)

    @property
    def total_accesses(self) -> int:
        return sum(self.window_accesses)

    def window_seed(self, index: int) -> int:
        """The deterministic seed of window ``index``.

        Stable across processes and Python versions, so a pool worker
        rebuilds exactly the window a serial run would.
        """
        return derive_seed(self.base_seed, (self.key, "window", index))


def window_specs(
    fn: Callable[..., Any],
    plan: WindowPlan,
    kwargs: Mapping[str, Any] | None = None,
    accesses_kwarg: str = "num_accesses",
) -> list[ExperimentSpec]:
    """One :class:`ExperimentSpec` per window of ``plan``.

    ``fn`` must accept ``seed`` plus ``accesses_kwarg``; everything in
    ``kwargs`` is forwarded to every window.
    """
    shared = dict(kwargs) if kwargs else {}
    return [
        ExperimentSpec(
            key=(plan.key, "window", index),
            fn=fn,
            kwargs={**shared, accesses_kwarg: accesses},
            seed=plan.window_seed(index),
        )
        for index, accesses in enumerate(plan.window_accesses)
    ]


def run_windows(
    fn: Callable[..., Any],
    plan: WindowPlan,
    kwargs: Mapping[str, Any] | None = None,
    accesses_kwarg: str = "num_accesses",
    executor: str = "serial",
    max_workers: int | None = None,
    progress: ProgressCallback | None = None,
    checkpoint: CheckpointManager | None = None,
    retry: RetryPolicy | None = None,
) -> list[Any]:
    """Execute every window of ``plan`` and return the per-window values.

    With ``executor="process"`` the windows run across pool workers,
    bit-identically to a serial run of the same plan (each window is an
    independent simulation seeded by :meth:`WindowPlan.window_seed`).
    With a ``checkpoint``, completed windows are persisted as they finish
    and skipped on resume — an interrupted long measurement restarts at
    window granularity and still merges to bit-identical totals.
    """
    runner = ExperimentRunner(
        executor=executor, max_workers=max_workers, progress=progress, retry=retry
    )
    return runner.run_values(
        window_specs(fn, plan, kwargs=kwargs, accesses_kwarg=accesses_kwarg),
        checkpoint=checkpoint,
    )
