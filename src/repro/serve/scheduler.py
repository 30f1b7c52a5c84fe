"""Deterministic arrival-order admission and micro-batch execution.

The scheduler is the determinism anchor of the serving layer, so it is a
plain synchronous object with no notion of time or concurrency: each
instance keeps one queue in *arrival order* (submission sequence order),
and one admission round takes up to ``max_batch`` requests off the front
of it.  The asyncio service drives it from an event loop; the synchronous
replay reference drives the very same object from a plain loop, so
"async replay == serial application" is a testable bit-identity, and
since the schedule is the submission order, replaying a script
reproduces a plain serial ``access`` loop.

Execution serves each admitted request as one ``access`` (the paper's one
``accessORAM`` per request, in arrival order), so every result carries
its own ``found`` / ``data``.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import ConfigurationError, ReproError
from repro.serve.request import Request, ServeResult


class PendingRequest:
    """A submitted request waiting in the scheduler.

    ``seq`` is the global arrival sequence number (synchronous replays key
    their outcomes by it); ``future`` is the asyncio future to resolve
    (None in synchronous replays); ``submitted_at`` is the wall-clock
    submit time for latency accounting (None when latency is not being
    measured).
    """

    __slots__ = ("request", "seq", "future", "submitted_at")

    def __init__(
        self,
        request: Request,
        seq: int,
        future: Any = None,
        submitted_at: float | None = None,
    ) -> None:
        self.request = request
        self.seq = seq
        self.future = future
        self.submitted_at = submitted_at


class BatchScheduler:
    """Deterministic admission over one arrival-order queue per instance."""

    def __init__(self, max_batch: int = 256) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self._max_batch = max_batch
        # instance -> FIFO of PendingRequest (arrival order).
        self._queues: dict[str, deque[PendingRequest]] = {}
        self._pending = 0

    @property
    def pending(self) -> int:
        """Requests enqueued but not yet admitted."""
        return self._pending

    def enqueue(self, pending: PendingRequest) -> None:
        instance = pending.request.instance
        queue = self._queues.get(instance)
        if queue is None:
            queue = self._queues[instance] = deque()
        queue.append(pending)
        self._pending += 1

    def pending_instances(self) -> list[str]:
        """Instances with pending work, in deterministic (name) order."""
        return sorted(name for name, queue in self._queues.items() if queue)

    def admit(self, instance: str) -> list[PendingRequest]:
        """One admission round for ``instance``: up to ``max_batch`` of its
        pending requests, in arrival order."""
        queue = self._queues.get(instance)
        if not queue:
            return []
        take = min(len(queue), self._max_batch)
        batch = [queue.popleft() for _ in range(take)]
        self._pending -= take
        return batch


def execute_batch(oram: Any, batch: list[PendingRequest]) -> list[tuple[PendingRequest, Any]]:
    """Execute one admitted micro-batch against one ORAM, one ``access`` per
    request, and return ``(pending, ServeResult-or-ReproError)`` in batch order.

    A :class:`~repro.errors.ReproError` from the engine (e.g. an
    out-of-range address) becomes the outcome of that request only.  A
    module global, called by name from :mod:`repro.serve.service`, so
    ``perfbench/tracing.py`` can wrap it there.
    """
    outcomes: list[tuple[PendingRequest, Any]] = []
    for pending in batch:
        request = pending.request
        try:
            result = oram.access(request.address, request.op, request.data)
        except ReproError as exc:
            outcomes.append((pending, exc))
        else:
            outcomes.append((pending, ServeResult(request.address, result.found, result.data)))
    return outcomes
