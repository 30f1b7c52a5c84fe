"""Serial and multiprocessing execution of experiment grids.

Fault tolerance lives at this layer: a :class:`RetryPolicy` decides which
failures are *transient* (killed pool workers, OS-level hiccups) and worth
re-executing, and which are *deterministic* (stash overflow, configuration
errors — re-running the same seed reproduces them exactly) and must surface
immediately.  A broken process pool is rebuilt and only the unfinished
points are resubmitted, bounded by the policy's attempt budget.  Passing a
:class:`~repro.runner.checkpoint.CheckpointManager` to :meth:`
ExperimentRunner.run` persists completed points as they finish and skips
them on the next run, making interrupted sweeps resumable bit-identically.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.runner.spec import ExperimentResult, ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner.checkpoint import CheckpointManager

try:  # pragma: no cover - stdlib
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover

    class BrokenProcessPool(RuntimeError):  # type: ignore[no-redef]
        pass

#: Signature of a progress callback: (completed, total, latest result).
ProgressCallback = Callable[[int, int, ExperimentResult], None]

#: ``ExperimentResult.error_type`` values the retry policy treats as
#: transient.  Exception class names rather than classes: results cross
#: process boundaries as data, and the synthetic runner types
#: (``"WorkerDied"``) have no exception class at all.
TRANSIENT_ERROR_TYPES = frozenset(
    {
        "BrokenProcessPool",
        "WorkerDied",
        "OSError",
        "IOError",
        "BrokenPipeError",
        "ConnectionError",
        "ConnectionResetError",
        "EOFError",
        "InterruptedError",
        "TimeoutError",
    }
)

#: Error types that are *never* retried even though some of them subclass
#: the transient set's classes (``DurabilityError`` and ``IntegrityError``
#: describe deterministic on-disk / in-protocol state: re-executing cannot
#: change what the file contains, and retrying would re-read a corrupt
#: tree as if the fault were a disk hiccup).  Checked before the transient
#: set so the classification cannot be widened by accident.
DETERMINISTIC_ERROR_TYPES = frozenset(
    {
        "AssertionError",
        "CheckpointError",
        "ConfigurationError",
        "DurabilityError",
        "EncryptionError",
        "IntegrityError",
        "StashOverflowError",
        "TraceFormatError",
    }
)


class RunnerError(ReproError):
    """Raised by :meth:`ExperimentRunner.run_values` when a point failed."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry budget for transient experiment-point failures.

    ``max_attempts`` counts total executions of a point (1 = never retry).
    The same budget bounds process-pool rebuilds after worker deaths.
    Backoff between attempts is ``backoff_seconds * multiplier**(n-1)``
    for the ``n``-th retry; the default is no delay, which suits the
    deterministic simulations here (a retried point cannot "wait out" a
    deterministic failure — those are never retried at all).
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ConfigurationError("backoff_seconds must be >= 0")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        if self.backoff_seconds <= 0:
            return 0.0
        return self.backoff_seconds * self.backoff_multiplier ** max(attempt - 1, 0)

    def is_transient(self, error_type: str | None) -> bool:
        """Whether a failure of this type is worth re-executing.

        Deterministic failures (``StashOverflowError``, configuration
        errors, assertion failures, ...) reproduce bit-identically under
        the point's derived seed, so anything not positively known to be
        transient is treated as deterministic.  Disk hiccups
        (``OSError``/``IOError``) are transient, but the typed storage
        verdicts (``DurabilityError``, ``IntegrityError``) are not: they
        report what the bytes *are*, not a failure to read them.
        """
        if error_type in DETERMINISTIC_ERROR_TYPES:
            return False
        return error_type in TRANSIENT_ERROR_TYPES


def _execute_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Run one spec, capturing exceptions (module-level: must pickle)."""
    start = time.perf_counter()
    try:
        value = spec.fn(**spec.call_kwargs())
    except Exception as exc:  # noqa: BLE001 - the envelope carries the traceback
        return ExperimentResult(
            key=spec.key,
            error=traceback.format_exc(limit=8),
            error_type=type(exc).__name__,
            seconds=time.perf_counter() - start,
        )
    return ExperimentResult(key=spec.key, value=value, seconds=time.perf_counter() - start)


class ExperimentRunner:
    """Executes a batch of :class:`ExperimentSpec` points.

    Parameters
    ----------
    executor:
        ``"serial"`` runs points in-process, in order.  ``"process"`` runs
        them on a :class:`concurrent.futures.ProcessPoolExecutor`; results
        are reassembled in spec order, so for deterministic point functions
        (fresh ``random.Random(seed)`` per point, as all drivers here use)
        the output is bit-identical to serial mode.  If the pool cannot be
        created (restricted sandboxes, missing semaphores) the runner
        falls back to serial execution.
    max_workers:
        Process count for the pool (default: ``os.cpu_count()``).
    progress:
        Optional callback invoked after each completed point with
        ``(completed_count, total, result)``.  In parallel mode it fires in
        completion order from the coordinating process.  On a resumed run
        checkpointed points are reported first (in spec order, with their
        recorded results) so the counts still reach ``total``.
    should_abort:
        Optional callable polled between points (serial) or completions
        (parallel); returning True stops the run.  Unstarted points are
        reported as errors with ``"aborted"``.
    retry:
        The :class:`RetryPolicy` for transient failures; defaults to three
        attempts with no backoff.  Worker deaths rebuild the pool and
        resubmit only unfinished points; deterministic failures are never
        retried.
    """

    def __init__(
        self,
        executor: str = "serial",
        max_workers: int | None = None,
        progress: ProgressCallback | None = None,
        should_abort: Callable[[], bool] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if executor not in ("serial", "process"):
            raise ConfigurationError(
                f"unknown executor {executor!r}; expected 'serial' or 'process'"
            )
        self._executor = executor
        self._max_workers = max_workers
        self._progress = progress
        self._should_abort = should_abort
        self._retry = retry if retry is not None else RetryPolicy()
        # Set only for the duration of a checkpointed run() call.
        self._checkpoint: CheckpointManager | None = None
        self._progress_base = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        specs: Iterable[ExperimentSpec],
        checkpoint: "CheckpointManager | None" = None,
    ) -> list[ExperimentResult]:
        """Execute every spec and return results in spec order.

        With a ``checkpoint``, points the manager already holds results for
        are *not* re-executed — their recorded results are returned (and
        reported through ``progress``) directly, and every fresh completion
        is recorded as it happens.  Because each point is deterministic
        under its derived seed, a run resumed from a checkpoint returns
        results bit-identical to an uninterrupted run.
        """
        spec_list = list(specs)
        if not spec_list:
            return []
        if checkpoint is None:
            return self._dispatch(spec_list)
        cached: dict[int, ExperimentResult] = {}
        todo: list[tuple[int, ExperimentSpec]] = []
        for index, spec in enumerate(spec_list):
            prior = checkpoint.result_for(spec.key)
            if prior is not None:
                cached[index] = prior
            else:
                todo.append((index, spec))
        total = len(spec_list)
        for done, index in enumerate(sorted(cached), start=1):
            if self._progress is not None:
                self._progress(done, total, cached[index])
        results: list[ExperimentResult | None] = [None] * total
        for index, prior in cached.items():
            results[index] = prior
        if todo:
            self._checkpoint = checkpoint
            self._progress_base = len(cached)
            try:
                executed = self._dispatch([spec for _, spec in todo])
            finally:
                self._checkpoint = None
                self._progress_base = 0
            for (index, _), result in zip(todo, executed):
                results[index] = result
        checkpoint.save()
        return results  # type: ignore[return-value]

    def _dispatch(self, spec_list: list[ExperimentSpec]) -> list[ExperimentResult]:
        workers = self._max_workers if self._max_workers is not None else os.cpu_count() or 1
        if self._executor == "process" and workers > 1 and len(spec_list) > 1:
            results = self._run_process(spec_list, workers)
            if results is not None:
                return results
        return self._run_serial(spec_list)

    def run_values(
        self,
        specs: Iterable[ExperimentSpec],
        checkpoint: "CheckpointManager | None" = None,
    ) -> list[Any]:
        """Execute every spec and return the raw values, in spec order.

        Raises
        ------
        RunnerError
            If any point failed (or was aborted); the message lists the
            first failing keys with their error type and text, plus a
            ``(+N more)`` count for the rest.
        """
        results = self.run(specs, checkpoint=checkpoint)
        failures = [result for result in results if not result.ok]
        if failures:
            shown = failures[:5]
            details = "\n".join(
                f"  {result.key} [{result.error_type or 'Error'}]: {result.error}"
                for result in shown
            )
            if len(failures) > len(shown):
                details += f"\n  (+{len(failures) - len(shown)} more)"
            raise RunnerError(f"{len(failures)} experiment point(s) failed:\n{details}")
        return [result.value for result in results]

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def _report(self, done: int, total: int, result: ExperimentResult) -> None:
        if self._checkpoint is not None and result.ok:
            self._checkpoint.record(result)
        if self._progress is not None:
            base = self._progress_base
            self._progress(done + base, total + base, result)

    def _run_serial(self, specs: Sequence[ExperimentSpec]) -> list[ExperimentResult]:
        results: list[ExperimentResult] = []
        total = len(specs)
        policy = self._retry
        for index, spec in enumerate(specs):
            if self._should_abort is not None and self._should_abort():
                results.extend(
                    ExperimentResult(key=pending.key, error="aborted", error_type="Aborted")
                    for pending in specs[index:]
                )
                break
            result = _execute_spec(spec)
            attempt = 1
            while (
                not result.ok
                and attempt < policy.max_attempts
                and policy.is_transient(result.error_type)
            ):
                delay = policy.delay(attempt)
                if delay:
                    time.sleep(delay)
                result = _execute_spec(spec)
                attempt += 1
            results.append(result)
            self._report(len(results), total, result)
        return results

    def _run_process(
        self, specs: Sequence[ExperimentSpec], workers: int
    ) -> list[ExperimentResult] | None:
        """Run on a process pool; ``None`` means fall back to serial.

        Worker deaths do not fail the run: every point whose future came
        back :class:`BrokenProcessPool` stays unfinished, the pool is
        rebuilt, and only the unfinished points are resubmitted — up to
        the retry policy's attempt budget, after which the survivors are
        reported as ``"worker died"``.  Transient in-function failures are
        resubmitted per point under the same budget; deterministic
        failures are recorded on first occurrence.
        """
        try:
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        except ImportError:  # pragma: no cover - stdlib should have it
            return None
        total = len(specs)
        policy = self._retry
        slots: list[ExperimentResult | None] = [None] * total
        failures = [0] * total
        done_count = 0
        aborted = False
        pool_attempt = 0
        todo = list(range(total))
        while todo and not aborted:
            try:
                pool = ProcessPoolExecutor(max_workers=min(workers, len(todo)))
            except (OSError, PermissionError, ValueError):  # pragma: no cover
                # Restricted environments (no /dev/shm, no sem_open).  If
                # nothing ran yet the caller falls back to serial; mid-run
                # the unfinished points are treated like dead workers.
                if done_count == 0:
                    return None
                break
            broken = False
            try:
                with pool:
                    future_to_index = {
                        pool.submit(_execute_spec, specs[index]): index for index in todo
                    }
                    pending = set(future_to_index)
                    while pending:
                        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for future in finished:
                            index = future_to_index[future]
                            try:
                                result = future.result()
                            except BrokenProcessPool:
                                # Killed worker: the point stays unfinished
                                # and rides the pool rebuild below.
                                broken = True
                                continue
                            except Exception as exc:  # noqa: BLE001
                                result = ExperimentResult(
                                    key=specs[index].key,
                                    error=traceback.format_exc(limit=8),
                                    error_type=type(exc).__name__,
                                )
                            if (
                                not result.ok
                                and policy.is_transient(result.error_type)
                                and failures[index] + 1 < policy.max_attempts
                                and not broken
                            ):
                                failures[index] += 1
                                retry = pool.submit(_execute_spec, specs[index])
                                future_to_index[retry] = index
                                pending.add(retry)
                                continue
                            slots[index] = result
                            done_count += 1
                            self._report(done_count, total, result)
                        if broken:
                            break
                        if self._should_abort is not None and pending and self._should_abort():
                            for future in pending:
                                future.cancel()
                            aborted = True
                            break
            except BrokenProcessPool:
                broken = True
            todo = [index for index in range(total) if slots[index] is None]
            if aborted or not todo:
                break
            if not broken:
                continue  # pragma: no cover - defensive; todo implies broken
            pool_attempt += 1
            if pool_attempt >= policy.max_attempts:
                break
            delay = policy.delay(pool_attempt)
            if delay:
                time.sleep(delay)
        for index, slot in enumerate(slots):
            if slot is None:
                if aborted:
                    error, error_type = "aborted", "Aborted"
                else:
                    error, error_type = "worker died", "WorkerDied"
                slots[index] = ExperimentResult(
                    key=specs[index].key, error=error, error_type=error_type
                )
        return slots  # type: ignore[return-value]
