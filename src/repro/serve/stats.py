"""Per-tenant and service-level accounting for the serving layer.

The engine's own counters stay where they always were — every ORAM keeps
an :class:`~repro.core.stats.AccessStats` reachable through the uniform
``stats`` property, and the service exposes those unchanged per instance.
This module adds the *request-plane* view on top: how many requests each
tenant submitted, how many of them found their block, and how many
batches each tenant's requests rode in.  Latency is not kept here: each
:class:`~repro.serve.request.ServeResult` carries its own, and the load
generator summarises the ones its clients receive, so the service's
memory does not grow with the number of requests served.

Determinism note: every counter here is a pure function of the admission
schedule, so replaying a recorded script yields bit-identical counter
fingerprints (:meth:`TenantStats.fingerprint`) in the async service and
the synchronous reference.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class TenantStats:
    """Request-plane counters for one tenant.

    Attributes
    ----------
    requests / reads / writes:
        Completed requests, split by operation.
    fused:
        Always 0: ``perfbench/serving.py`` sums it for ``serve.fused_fraction``.
    found:
        Requests whose block was already in the ORAM.
    batches:
        Admission batches this tenant had at least one request in.
    """

    requests: int = 0
    reads: int = 0
    writes: int = 0
    fused: int = 0
    found: int = 0
    batches: int = 0

    def fingerprint(self) -> tuple:
        """Deterministic tuple of the schedule-derived counters; a recorded
        script replays it bit-identically."""
        return (
            self.requests,
            self.reads,
            self.writes,
            self.found,
            self.batches,
        )


class ServiceStats:
    """Service-wide accounting: per-tenant stats plus scheduler counters."""

    def __init__(self) -> None:
        self.tenants: dict[str, TenantStats] = {}
        #: Scheduling rounds executed (one round admits at most one batch
        #: per instance).
        self.rounds: int = 0
        #: Micro-batches executed (one per instance with pending work per
        #: round).
        self.batches: int = 0

    def tenant(self, name: str) -> TenantStats:
        """The (created-on-first-use) stats of one tenant."""
        stats = self.tenants.get(name)
        if stats is None:
            stats = self.tenants[name] = TenantStats()
        return stats

    @property
    def total_requests(self) -> int:
        return sum(stats.requests for stats in self.tenants.values())

    def fingerprint(self) -> tuple:
        """Deterministic tuple over scheduler counters and every tenant."""
        return (
            self.rounds,
            self.batches,
            tuple(
                (name, self.tenants[name].fingerprint())
                for name in sorted(self.tenants)
            ),
        )
