"""Deterministic fair-share admission and micro-batch execution.

The scheduler is the determinism anchor of the serving layer, so it is a
plain synchronous object with no notion of time or concurrency: admission
is a pure function of the *arrival order* of the pending requests (their
submission sequence numbers) and the configured per-tenant quotas.  The
asyncio service drives it from an event loop; the synchronous replay
reference drives the very same object from a plain loop — which is what
makes "async replay == serial application" a testable bit-identity rather
than a hope.

Admission policy (one *round* admits one micro-batch per instance):

* Requests are admitted in global arrival order — the pending request with
  the smallest sequence number goes first — so with unbounded quotas the
  schedule degenerates to exactly the order the requests were submitted
  in, and replaying a script reproduces a plain serial ``access`` loop.
* A per-tenant **quota** bounds how many of one tenant's requests a single
  round may admit.  A tenant at its quota is skipped for the rest of the
  round (its queue order is preserved; the deferred requests lead the next
  round), while other tenants' later arrivals are still admitted — that is
  the fair-share guarantee: a flooding tenant cannot starve the batch.
* ``max_batch`` bounds the whole micro-batch.

Execution serves each admitted request as one ``access`` (the paper's one
``accessORAM`` per request), so every result carries its own
``found`` / ``data``.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import ConfigurationError, ReproError
from repro.serve.request import Request, ServeResult


class PendingRequest:
    """A submitted request waiting in the scheduler.

    ``seq`` is the global arrival sequence number (the admission order
    key); ``future`` is the asyncio future to resolve (None in synchronous
    replays); ``submitted_at`` is the wall-clock submit time for latency
    accounting (None when latency is not being measured).
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
    """Deterministic admission over per-(instance, tenant) FIFO queues."""

    def __init__(
        self,
        max_batch: int = 256,
        default_quota: int = 0,
        quotas: dict[str, int] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if default_quota < 0:
            raise ConfigurationError("default_quota must be >= 0 (0 = unbounded)")
        self._max_batch = max_batch
        self._default_quota = default_quota
        self._quotas: dict[str, int] = dict(quotas or {})
        for tenant, quota in self._quotas.items():
            if quota < 0:
                raise ConfigurationError(
                    f"quota for tenant {tenant!r} must be >= 0 (0 = unbounded)"
                )
        # instance -> tenant -> FIFO of PendingRequest (arrival order).
        self._queues: dict[str, dict[str, deque[PendingRequest]]] = {}
        self._pending = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int:
        return self._max_batch

    def quota(self, tenant: str) -> int:
        """The per-round admission cap for ``tenant`` (0 = unbounded)."""
        return self._quotas.get(tenant, self._default_quota)

    def set_quota(self, tenant: str, quota: int) -> None:
        if quota < 0:
            raise ConfigurationError("quota must be >= 0 (0 = unbounded)")
        self._quotas[tenant] = quota

    # ------------------------------------------------------------------
    # Queueing
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests enqueued but not yet admitted."""
        return self._pending

    def enqueue(self, pending: PendingRequest) -> None:
        instance = self._queues.setdefault(pending.request.instance, {})
        queue = instance.get(pending.request.tenant)
        if queue is None:
            queue = instance[pending.request.tenant] = deque()
        queue.append(pending)
        self._pending += 1

    def pending_instances(self) -> list[str]:
        """Instances with pending work, in deterministic (name) order."""
        return sorted(name for name, tenants in self._queues.items() if any(tenants.values()))

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, instance: str) -> tuple[list[PendingRequest], list[str]]:
        """One admission round for ``instance``.

        Returns the admitted micro-batch (global arrival order, per-tenant
        quota applied) and the sorted names of tenants the quota capped
        this round (pending work deferred, not dropped).
        """
        tenants = self._queues.get(instance)
        if not tenants:
            return [], []
        taken: dict[str, int] = {}
        batch: list[PendingRequest] = []
        max_batch = self._max_batch
        while len(batch) < max_batch:
            best_queue = None
            best_seq = None
            for tenant, queue in tenants.items():
                if not queue:
                    continue
                cap = self.quota(tenant)
                if cap and taken.get(tenant, 0) >= cap:
                    continue
                seq = queue[0].seq
                if best_seq is None or seq < best_seq:
                    best_seq = seq
                    best_queue = queue
            if best_queue is None:
                break
            pending = best_queue.popleft()
            taken[pending.request.tenant] = taken.get(pending.request.tenant, 0) + 1
            batch.append(pending)
        self._pending -= len(batch)
        capped = sorted(
            tenant
            for tenant, queue in tenants.items()
            if queue and (cap := self.quota(tenant)) and taken.get(tenant, 0) >= cap
        )
        return batch, capped


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
