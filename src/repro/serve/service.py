"""The asyncio ORAM service: named instances and deterministic batching.

:class:`OramService` turns the simulation engine into a serving system:
many logical clients submit reads/writes against *named* ORAM instances
(each built from an :class:`~repro.backends.OramSpec` through the backend
registry), a background scheduler task admits everything pending into
micro-batches per instance, in arrival order, and serves each request as
one ``access``, and per-tenant accounting counts requests; every result
carries its own ``found`` / ``data`` and submit-to-completion latency.

Determinism guarantee
---------------------
All scheduling state lives in the synchronous
:class:`~repro.serve.scheduler.BatchScheduler`, whose admission order is
request *arrival order* — never wall-clock time or event-loop
interleaving.  Replaying a recorded request script (:func:`run_script`)
therefore leaves every ORAM — tree, stash, position map, RNG stream,
statistics — bit-identical to :func:`serial_script`, the plain
synchronous application of the same admission schedule, and since that
schedule *is* the script order, to a bare
``for r in script: oram.access(...)`` loop.  The suite pins both
identities (``tests/test_serve.py``).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.backends import Backend, OramSpec, build_oram
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.path_oram import PathORAM
from repro.core.types import Operation
from repro.errors import ConfigurationError
from repro.serve.request import Request, ServeResult
from repro.serve.scheduler import BatchScheduler, PendingRequest, execute_batch
from repro.serve.stats import ServiceStats


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`OramService`.

    Parameters
    ----------
    max_batch:
        Upper bound on one admitted micro-batch (per instance per round).
    """

    max_batch: int = 256

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")


def _path_oram_fingerprint(oram: PathORAM) -> tuple:
    """Full observable state of one flat ORAM (tree, stash, map, stats)."""
    storage = oram.storage
    tree = tuple(
        tuple(
            (block.address, block.leaf, repr(block.data))
            for block in storage.read_bucket(index)
        )
        for index in range(storage.num_buckets)
    )
    stash = tuple(
        sorted(
            (block.address, block.leaf, repr(block.data))
            for block in oram._stash.blocks()  # noqa: SLF001 - state pin
        )
    )
    return (
        tree,
        stash,
        tuple(oram.position_map.leaves),
        oram.stats.fingerprint(),
    )


def oram_fingerprint(oram: Backend) -> tuple:
    """Deterministic full-state fingerprint of one ORAM (either protocol).

    Covers tree contents, stash, position map(s), statistics and the RNG
    stream — the serving layer's bit-identity pin.  Stash contents are
    order-normalised, matching the ``access_many`` differential contract
    (internal stash order is not part of the observable state).
    """
    if isinstance(oram, HierarchicalPathORAM):
        return (
            tuple(_path_oram_fingerprint(sub) for sub in oram.orams),
            tuple(oram.onchip_position_map.leaves),
            oram.stats.fingerprint(),
            oram._rng.getstate(),  # noqa: SLF001 - state pin
        )
    return _path_oram_fingerprint(oram) + (oram._rng.getstate(),)  # noqa: SLF001


class OramService:
    """Async multi-tenant front end over named ORAM instances.

    Typical use::

        service = OramService(ServiceConfig(max_batch=128))
        service.open_instance("main", OramSpec(), config, seed=7)

        async with service:
            result = await service.submit("tenant-a", "main", address=17)

    The service must be *started* (``async with`` or :meth:`start`) before
    requests are submitted; instances may be registered at any time.
    Submission is cheap (one queue put); execution happens in the
    background scheduler task, which resolves each request's future with a
    :class:`~repro.serve.request.ServeResult` carrying its measured
    latency.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config if config is not None else ServiceConfig()
        self._instances: dict[str, Backend] = {}
        self._scheduler = BatchScheduler(self._config.max_batch)
        self._stats = ServiceStats()
        self._seq = itertools.count()
        self._queue: asyncio.Queue[PendingRequest] | None = None
        self._task: asyncio.Task | None = None
        self._idle: asyncio.Event | None = None
        self._outstanding = 0
        # Synchronous replays collect outcomes here instead of futures.
        self._sink: dict[int, Any] | None = None
        self._clock = time.perf_counter

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def open_instance(
        self,
        name: str,
        spec: OramSpec,
        config: Any,
        seed: int | None = None,
        rng: Any = None,
    ) -> Backend:
        """Build and register a named ORAM instance from a spec."""
        return self.attach_instance(name, build_oram(spec, config, seed=seed, rng=rng))

    def attach_instance(self, name: str, oram: Backend) -> Backend:
        """Register an already-built ORAM under ``name``."""
        if name in self._instances:
            raise ConfigurationError(f"instance {name!r} is already registered")
        self._instances[name] = oram
        return oram

    def instance(self, name: str) -> Backend:
        """The registered ORAM behind ``name``."""
        try:
            return self._instances[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown instance {name!r}; registered: {self.instances}"
            ) from None

    @property
    def instances(self) -> tuple[str, ...]:
        """Registered instance names, sorted."""
        return tuple(sorted(self._instances))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServiceStats:
        """Request-plane accounting (per-tenant and scheduler counters)."""
        return self._stats

    def fingerprint(self) -> tuple:
        """Deterministic full-state fingerprint of the whole service.

        Covers every instance's complete ORAM state (including RNG
        streams) plus the schedule-derived accounting counters; the
        bit-identity pin for script replays.
        """
        return (
            tuple(
                (name, oram_fingerprint(self._instances[name]))
                for name in sorted(self._instances)
            ),
            self._stats.fingerprint(),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the background scheduler task (idempotent)."""
        if self._task is not None:
            return
        self._queue = asyncio.Queue()
        self._idle = asyncio.Event()
        self._idle.set()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def drain(self) -> None:
        """Wait until every submitted request has completed."""
        if self._idle is not None:
            await self._idle.wait()

    async def aclose(self) -> None:
        """Drain outstanding work and stop the scheduler task."""
        if self._task is None:
            return
        await self.drain()
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None
        self._queue = None
        self._idle = None

    async def __aenter__(self) -> "OramService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_nowait(self, request: Request) -> asyncio.Future:
        """Enqueue a request; returns the future its result will resolve."""
        if self._queue is None or self._idle is None:
            raise ConfigurationError(
                "service is not started; use 'async with service:' or await "
                "service.start() before submitting"
            )
        if request.instance not in self._instances:
            raise ConfigurationError(
                f"unknown instance {request.instance!r}; "
                f"registered: {self.instances}"
            )
        future = asyncio.get_running_loop().create_future()
        pending = PendingRequest(request, next(self._seq), future, self._clock())
        self._outstanding += 1
        self._idle.clear()
        self._queue.put_nowait(pending)
        return future

    async def submit(
        self,
        tenant: str,
        instance: str,
        address: int,
        op: Operation = Operation.READ,
        data: Any = None,
    ) -> ServeResult:
        """Submit one request and wait for its result."""
        return await self.submit_nowait(Request(tenant, instance, address, op, data))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        queue = self._queue
        scheduler = self._scheduler
        assert queue is not None and self._idle is not None
        while True:
            scheduler.enqueue(await queue.get())
            while True:
                # Everything that arrived while the last round executed
                # joins this round's backlog (arrival order preserved).
                while not queue.empty():
                    scheduler.enqueue(queue.get_nowait())
                if not scheduler.pending:
                    break
                self._run_round()
                # Yield once so resolved clients run — a closed-loop
                # client's next submit lands before the next round forms.
                await asyncio.sleep(0)
            if self._outstanding == 0:
                self._idle.set()

    def _run_round(self) -> None:
        """One admission round: at most one micro-batch per instance."""
        scheduler = self._scheduler
        self._stats.rounds += 1
        for name in scheduler.pending_instances():
            batch = scheduler.admit(name)
            if batch:
                self._execute(name, batch)

    def _execute(self, name: str, batch: list[PendingRequest]) -> None:
        outcomes = execute_batch(self._instances[name], batch)
        stats = self._stats
        stats.batches += 1
        now = self._clock()
        tenants_in_batch: set[str] = set()
        for pending, outcome in outcomes:
            request = pending.request
            tenant = stats.tenant(request.tenant)
            tenants_in_batch.add(request.tenant)
            tenant.requests += 1
            if request.op is Operation.WRITE:
                tenant.writes += 1
            else:
                tenant.reads += 1
            self._outstanding -= 1
            if isinstance(outcome, ServeResult):
                if outcome.found:
                    tenant.found += 1
                if pending.submitted_at is not None:
                    outcome.latency = now - pending.submitted_at
                if pending.future is not None:
                    pending.future.set_result(outcome)
            elif pending.future is not None:
                pending.future.set_exception(outcome)
            if self._sink is not None:
                self._sink[pending.seq] = outcome
        for name_ in tenants_in_batch:
            stats.tenant(name_).batches += 1


# ----------------------------------------------------------------------
# Recorded-script replay
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ScriptOutcome:
    """What a script replay produced: per-request results (script order),
    the service's deterministic full-state fingerprint, and the
    request-plane accounting."""

    results: list[Any]
    fingerprint: tuple
    stats: ServiceStats


def _build_service(
    instances: Mapping[str, tuple[OramSpec, Any, int]],
    config: ServiceConfig | None,
) -> OramService:
    service = OramService(config)
    for name, (spec, oram_config, seed) in instances.items():
        service.open_instance(name, spec, oram_config, seed=seed)
    return service


def run_script(
    script: list[Request],
    instances: Mapping[str, tuple[OramSpec, Any, int]],
    config: ServiceConfig | None = None,
) -> ScriptOutcome:
    """Replay a recorded request script through the async service.

    ``instances`` maps each instance name to ``(spec, oram_config, seed)``
    — the picklable triple the backend registry builds from, so a script
    plus this mapping is a complete, reproducible serving workload.  All
    requests are submitted up front (a recorded script *is* its arrival
    order) and the scheduler drains them in deterministic rounds; the
    outcome's fingerprint is bit-identical to :func:`serial_script` on the
    same arguments.
    """

    async def _replay() -> ScriptOutcome:
        service = _build_service(instances, config)
        async with service:
            futures = [service.submit_nowait(request) for request in script]
            await service.drain()
            results = [future.exception() or future.result() for future in futures]
        return ScriptOutcome(results, service.fingerprint(), service.stats)

    return asyncio.run(_replay())


def serial_script(
    script: list[Request],
    instances: Mapping[str, tuple[OramSpec, Any, int]],
    config: ServiceConfig | None = None,
) -> ScriptOutcome:
    """Apply a recorded script serially — the determinism reference.

    Drives the very same admission schedule as :func:`run_script` (same
    scheduler object) but synchronously, with no event loop.  The
    schedule is exactly the script order, i.e. the plain serial loop
    ``for r in script: oram.access(r.address, r.op, r.data)``.
    """
    service = _build_service(instances, config)
    sink: dict[int, Any] = {}
    service._sink = sink
    scheduler = service._scheduler
    for request in script:
        if request.instance not in service._instances:
            raise ConfigurationError(
                f"unknown instance {request.instance!r}; "
                f"registered: {service.instances}"
            )
        scheduler.enqueue(PendingRequest(request, next(service._seq)))
        service._outstanding += 1
    while scheduler.pending:
        service._run_round()
    results = [sink[index] for index in range(len(script))]
    return ScriptOutcome(results, service.fingerprint(), service.stats)
