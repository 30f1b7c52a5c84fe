"""Request envelopes and recorded request scripts for the serving layer.

A logical client talks to the service in units of :class:`Request` — one
read or write against a *named* ORAM instance, tagged with the tenant it
belongs to.  A recorded **request script** is simply a list of requests in
arrival order; because every scheduling decision downstream is a pure
function of that order (see :mod:`repro.serve.scheduler`), a script is the
unit of reproducibility: replaying it through the async service leaves the
ORAM bit-identical to applying the same schedule synchronously.

:func:`synthetic_script` generates deterministic multi-tenant scripts from
a seed, mirroring how the workload generators in :mod:`repro.workloads`
produce address traces — same seed, same script, in any process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.core.types import Operation, as_operation
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Request:
    """One logical client request against a named ORAM instance.

    Attributes
    ----------
    tenant:
        The tenant (logical client group) the request is accounted to.
    instance:
        Name of the target ORAM instance registered with the service.
    address:
        Program address (1-based, like :meth:`PathORAM.access`).
    op:
        :data:`Operation.READ` or :data:`Operation.WRITE`; the strings
        ``"read"`` / ``"write"`` are accepted and normalised (anything
        else raises :class:`~repro.errors.ConfigurationError` — a typo'd
        op must not silently execute as a read).
    data:
        Payload for writes; ignored for reads.
    collect:
        When True the request is executed individually (never fused into an
        ``access_many`` micro-batch) so its :class:`ServeResult` carries the
        block payload and found flag.  Fused reads trade per-request results
        for throughput — their results report ``found=None, data=None``.
    """

    tenant: str
    instance: str
    address: int
    op: Operation = Operation.READ
    data: Any = None
    collect: bool = False

    def __post_init__(self) -> None:
        if type(self.op) is not Operation:
            object.__setattr__(self, "op", as_operation(self.op))


@dataclass(slots=True)
class ServeResult:
    """What the service hands back for one completed request.

    ``found``/``data`` are populated for individually executed requests
    (writes and ``collect=True`` reads); requests served inside a fused
    ``access_many`` run report ``None`` for both — the fused engine does
    not materialise per-access results.  ``latency`` is the wall-clock
    submit-to-completion time in seconds (0.0 in synchronous replays,
    which have no notion of waiting).
    """

    address: int
    found: bool | None = None
    data: Any = None
    latency: float = 0.0


def synthetic_script(
    seed: int,
    tenants: Sequence[str],
    instances: Sequence[str],
    length: int,
    working_set: int,
    write_fraction: float = 0.0,
    collect_fraction: float = 0.0,
    tenant_weights: Mapping[str, float] | None = None,
) -> list[Request]:
    """A deterministic multi-tenant request script.

    Each entry draws a tenant (optionally weighted), an instance, a uniform
    address in ``[1, working_set]`` and an operation; ``write_fraction`` of
    the requests are writes carrying a small deterministic payload, and
    ``collect_fraction`` of the reads ask for per-request results.  The
    same seed always produces the same script, so a script can serve as a
    pinned reproducibility artifact the way seeded traces already do.
    """
    if not tenants:
        raise ConfigurationError("synthetic_script needs at least one tenant")
    if not instances:
        raise ConfigurationError("synthetic_script needs at least one instance")
    if working_set < 1:
        raise ConfigurationError("working_set must be >= 1")
    rng = random.Random(seed)
    weights = [float(tenant_weights.get(t, 1.0)) if tenant_weights else 1.0 for t in tenants]
    total = sum(weights)
    if total <= 0:
        raise ConfigurationError("tenant_weights must sum to a positive value")
    script: list[Request] = []
    for index in range(length):
        draw = rng.random() * total
        cursor = 0.0
        tenant = tenants[-1]
        for name, weight in zip(tenants, weights):
            cursor += weight
            if draw < cursor:
                tenant = name
                break
        instance = instances[rng.randrange(len(instances))]
        address = rng.randrange(1, working_set + 1)
        if rng.random() < write_fraction:
            script.append(Request(tenant, instance, address, Operation.WRITE, f"payload-{index}"))
        else:
            collect = rng.random() < collect_fraction
            script.append(Request(tenant, instance, address, Operation.READ, None, collect))
    return script
