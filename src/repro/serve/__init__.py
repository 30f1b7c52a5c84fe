"""ORAM-as-a-service: the async multi-tenant serving layer.

Turns the simulation engine into a serving system: logical clients submit
reads/writes against *named* ORAM instances, a deterministic batch
scheduler admits each instance's pending requests in arrival order into
micro-batches and serves each one as a single ``access``, and per-tenant
accounting counts requests; every result carries its own ``found`` /
``data`` and latency.  See :mod:`repro.serve.service` for
the determinism guarantee — replaying a recorded request script through
the async service is bit-identical to applying the same schedule
serially — and :mod:`repro.serve.loadgen` for the closed-loop load
generator behind the p50/p99 serving benchmark.
"""

from repro.serve.loadgen import (
    LoadGenConfig,
    LoadReport,
    generate_load,
    percentile,
    run_load,
)
from repro.serve.request import Request, ServeResult, synthetic_script
from repro.serve.scheduler import BatchScheduler, PendingRequest, execute_batch
from repro.serve.service import (
    OramService,
    ScriptOutcome,
    ServiceConfig,
    oram_fingerprint,
    run_script,
    serial_script,
)
from repro.serve.stats import ServiceStats, TenantStats

__all__ = [
    "BatchScheduler",
    "LoadGenConfig",
    "LoadReport",
    "OramService",
    "PendingRequest",
    "Request",
    "ScriptOutcome",
    "ServeResult",
    "ServiceConfig",
    "ServiceStats",
    "TenantStats",
    "execute_batch",
    "generate_load",
    "oram_fingerprint",
    "percentile",
    "run_load",
    "run_script",
    "serial_script",
    "synthetic_script",
]
