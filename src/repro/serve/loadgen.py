"""Seeded closed-loop load generator with user-facing latency metrics.

Every client is a coroutine in a **closed loop**: it submits one request,
awaits the result, then submits the next — the standard way to measure a
batch-coalescing server, because an open-loop generator with a fixed
arrival rate either starves the batcher or overwhelms it, and its latency
numbers measure the queue, not the system.  With ``K`` concurrent clients
the scheduler naturally forms micro-batches of up to ``K`` requests per
round, and each request's submit-to-completion latency is measured at the
service boundary (what a user would see).

Request *content* (addresses, ops) is derived per client from the load
seed via :func:`~repro.runner.spec.derive_seed`, so two runs against
identically-seeded instances replay identical request streams; wall-clock
metrics of course vary with the machine.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.backends import OramSpec
from repro.core.types import Operation
from repro.errors import ConfigurationError
from repro.runner.spec import derive_seed
from repro.serve.service import OramService, ServiceConfig, _build_service


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one load-generation run.

    ``tenants`` tenants run ``clients_per_tenant`` concurrent closed-loop
    clients each; every client issues ``requests_per_client`` requests
    against ``instance`` with uniform addresses in ``[1, working_set]``
    and ``write_fraction`` writes.
    """

    tenants: int = 4
    clients_per_tenant: int = 2
    requests_per_client: int = 100
    working_set: int = 1024
    write_fraction: float = 0.0
    instance: str = "main"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.clients_per_tenant < 1:
            raise ConfigurationError("need at least one tenant and one client")
        if self.requests_per_client < 1:
            raise ConfigurationError("requests_per_client must be >= 1")
        if self.working_set < 1:
            raise ConfigurationError("working_set must be >= 1")

    @property
    def total_requests(self) -> int:
        return self.tenants * self.clients_per_tenant * self.requests_per_client

    def tenant_names(self) -> list[str]:
        return [f"tenant-{index:02d}" for index in range(self.tenants)]


@dataclass(slots=True)
class LoadReport:
    """Aggregate user-facing metrics of one load-generation run."""

    requests: int
    duration: float
    throughput_rps: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    rounds: int
    batches: int
    per_tenant: dict[str, dict[str, float]]

    def as_record(self) -> dict:
        """JSON-ready summary (the benchmark's ``serving`` section rows)."""
        return {
            "requests": self.requests,
            "duration_s": round(self.duration, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "mean_ms": round(self.mean_ms, 4),
            "max_ms": round(self.max_ms, 4),
            "rounds": self.rounds,
            "batches": self.batches,
        }


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample list (0 when empty).

    The classic definition: the smallest sample such that at least
    ``fraction`` of the samples are <= it — rank ``ceil(fraction * n)``,
    1-based — so p50 of 1..100 is exactly 50 and p99 is 99.
    """
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError("percentile fraction must be in [0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _mean(samples: list[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


async def _client(
    service: OramService,
    tenant: str,
    client_index: int,
    load: LoadGenConfig,
    latencies: list[float],
) -> None:
    rng = random.Random(derive_seed(load.seed, (tenant, "client", client_index)))
    instance = load.instance
    for _ in range(load.requests_per_client):
        address = rng.randrange(1, load.working_set + 1)
        if load.write_fraction and rng.random() < load.write_fraction:
            result = await service.submit(tenant, instance, address, Operation.WRITE, address)
        else:
            result = await service.submit(tenant, instance, address)
        latencies.append(result.latency)


async def generate_load(service: OramService, load: LoadGenConfig) -> LoadReport:
    """Run one closed-loop load against an already-started service.

    Latencies are the ones each client's results carry, kept per tenant
    for this run only.
    """
    by_tenant: dict[str, list[float]] = {name: [] for name in load.tenant_names()}
    clients = [
        _client(service, tenant, client_index, load, by_tenant[tenant])
        for tenant in load.tenant_names()
        for client_index in range(load.clients_per_tenant)
    ]
    start = time.perf_counter()
    await asyncio.gather(*clients)
    await service.drain()
    duration = time.perf_counter() - start
    stats = service.stats
    per_tenant = {
        name: {
            "requests": float(tenant.requests),
            "mean_ms": _mean(by_tenant.get(name, [])) * 1e3,
            "p50_ms": percentile(by_tenant.get(name, []), 0.50) * 1e3,
            "p99_ms": percentile(by_tenant.get(name, []), 0.99) * 1e3,
            "throttled": float(tenant.throttled),
        }
        for name, tenant in sorted(stats.tenants.items())
    }
    latencies = [latency for samples in by_tenant.values() for latency in samples]
    return LoadReport(
        requests=len(latencies),
        duration=duration,
        throughput_rps=len(latencies) / duration if duration > 0 else 0.0,
        p50_ms=percentile(latencies, 0.50) * 1e3,
        p99_ms=percentile(latencies, 0.99) * 1e3,
        mean_ms=_mean(latencies) * 1e3,
        max_ms=max(latencies, default=0.0) * 1e3,
        rounds=stats.rounds,
        batches=stats.batches,
        per_tenant=per_tenant,
    )


def run_load(
    instances: Mapping[str, tuple[OramSpec, Any, int]],
    load: LoadGenConfig | None = None,
    config: ServiceConfig | None = None,
    quotas: Mapping[str, int] | None = None,
) -> LoadReport:
    """Build a service, run one closed-loop load, return the report.

    ``instances`` maps names to ``(spec, oram_config, seed)`` triples as in
    :func:`~repro.serve.service.run_script`; the load generator's target
    instance (``load.instance``) must be among them.
    """
    load = load if load is not None else LoadGenConfig()
    if load.instance not in instances:
        raise ConfigurationError(
            f"load targets unknown instance {load.instance!r}; "
            f"defined: {tuple(sorted(instances))}"
        )

    async def _go() -> LoadReport:
        service = _build_service(instances, config, quotas)
        async with service:
            return await generate_load(service, load)

    return asyncio.run(_go())
