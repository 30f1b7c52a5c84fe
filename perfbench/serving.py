"""The two serving workloads: closed-loop clients in one thread.

4 tenants x 2 clients = 8 coroutine clients drive one ``OramService`` on
one event loop, with no other threads and no sockets.  Each client owns a
disjoint slice of the address space, so every read is checked exactly
against that client's last acknowledged write (its shadow copy).

The measured phase runs in windows: every client issues ``window``
requests, all clients finish, and the next window starts until
``--seconds`` have passed.  The first window is a warm-up that is not
timed; its path-operation count is the ``path_ops_per_request`` metric,
which therefore covers the same requests in every run of a seed and
repeats exactly.
"""

from __future__ import annotations

import asyncio
import gc
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

from perfbench.harness import (
    LATENCY_CLOCK,
    REFERENCE_MOPS,
    HostSpeed,
    HostWindow,
    RunResult,
    peak_rss_mb,
    percentile,
    supported_percentile,
)
from perfbench.tracing import (
    Tracer,
    empty_layer_metrics,
    instrument,
    per_request,
    queue_wait_percentiles,
)
from repro import (
    HierarchicalPathORAM,
    HierarchyConfig,
    Operation,
    ORAMConfig,
    OramService,
    OramSpec,
    ReproError,
    Request,
    open_oram,
)
from repro.runner import derive_seed
from repro.workloads.spec_like import benchmark_trace

INSTANCE = "main"
TENANTS = 4
CLIENTS_PER_TENANT = 2
BLOCK_BYTES = 128
#: SPEC-like profile replayed by each tenant of ``spec-hier-plb``.
PROFILES = ("mcf", "libquantum", "bzip2", "omnetpp")
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def payload(address: int, version: int) -> bytes:
    """The 128-byte value of ``address`` after its ``version``-th write."""
    return (address.to_bytes(8, "little") + version.to_bytes(8, "little")) * 8


@dataclass(frozen=True)
class ServingWorkload:
    """One serving set-up: what to build and how clients pick requests."""

    name: str
    spec: OramSpec
    config: Any
    working_set: int
    #: Requests each client issues per window.
    window: int
    #: Requests generated per client during set-up (replayed cyclically).
    stream_length: int
    #: ``(seed, tenant index, slice base, slice size, length) -> [(address, is_write)]``
    stream: Callable[[int, int, int, int, int], list[tuple[int, bool]]]


def spec_stream(seed: int, tenant: int, base: int, size: int, length: int):
    """Replay the tenant's SPEC-like profile inside the client's slice."""
    trace = benchmark_trace(PROFILES[tenant], length, seed=derive_seed(seed, ("perfbench", base)))
    return [
        (base + (record.address // BLOCK_BYTES) % size + 1, record.is_write) for record in trace
    ]


def uniform_stream(seed: int, tenant: int, base: int, size: int, length: int):
    """Uniform addresses in the client's slice, half of them writes."""
    rng = random.Random(derive_seed(seed, ("perfbench-uniform", base)))
    return [(base + rng.randrange(size) + 1, rng.random() < 0.5) for _ in range(length)]


SPEC_HIER_PLB = ServingWorkload(
    name="spec-hier-plb",
    spec=OramSpec(protocol="hierarchical", storage="flat", plb_entries_per_level=8),
    config=HierarchyConfig(
        data_oram=ORAMConfig(
            working_set_blocks=1 << 16, z=4, block_bytes=BLOCK_BYTES, stash_capacity=200
        ),
        position_map_block_bytes=16,
        position_map_z=3,
        onchip_position_map_limit_bytes=512,
    ),
    working_set=1 << 16,
    window=1000,
    stream_length=16384,
    stream=spec_stream,
)

SECURE_INTEGRITY = ServingWorkload(
    name="secure-integrity",
    spec=OramSpec(protocol="flat", storage="integrity"),
    config=ORAMConfig(working_set_blocks=4096, stash_capacity=200),
    working_set=4096,
    window=130,
    stream_length=2048,
    stream=uniform_stream,
)


class Client:
    """A closed-loop client with a shadow copy of its address slice."""

    def __init__(self, tenant: str, ops: list[tuple[int, bool]]) -> None:
        self.tenant = tenant
        self.ops = ops
        self.cursor = 0
        self.versions: dict[int, int] = {}
        self.next_version = 1
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    async def run(self, service: OramService, count: int, tracer: Tracer | None = None) -> None:
        clock = LATENCY_CLOCK
        ops = self.ops
        for _ in range(count):
            address, is_write = ops[self.cursor % len(ops)]
            self.cursor += 1
            if is_write:
                version = self.next_version
                self.next_version += 1
                request = Request(
                    self.tenant, INSTANCE, address, Operation.WRITE, payload(address, version)
                )
            else:
                request = Request(self.tenant, INSTANCE, address, Operation.READ, None, True)
            self.attempted += 1
            span = tracer.begin_request(request) if tracer is not None else None
            start = clock()
            try:
                result = await service.submit_nowait(request)
            except ReproError:
                self.failed += 1
                continue
            finally:
                if tracer is not None:
                    tracer.end_request(span, request)
            self.latencies.append(clock() - start)
            if is_write:
                self.versions[address] = version
            elif result.data != payload(address, self.versions.get(address, 0)):
                self.failed += 1


def _orams(oram: Any) -> tuple:
    return oram.orams if isinstance(oram, HierarchicalPathORAM) else (oram,)


def counters(oram: Any) -> list[tuple[int, ...]]:
    """Per chain ORAM: real, dummy, path reads, blocks read, PLB hits, PLB misses."""
    return [
        (s.real_accesses, s.dummy_accesses, s.path_reads, s.blocks_read, s.plb_hits, s.plb_misses)
        for s in (o.stats for o in _orams(oram))
    ]


def _delta(after: list[tuple], before: list[tuple]) -> list[tuple]:
    return [tuple(a - b for a, b in zip(x, y)) for x, y in zip(after, before)]


def setup(workload: ServingWorkload, seed: int, timings: dict[str, float]):
    """Build the ORAM, generate client streams, prefill the working set.

    Every address starts at version 0 of its payload, so the shadow copies
    start empty.  Adds ``build``/``trace_gen``/``prefill`` seconds to
    ``timings``.
    """
    start = time.perf_counter()
    oram = open_oram(workload.spec, workload.config, seed=derive_seed(seed, "oram"))
    built = time.perf_counter()
    slice_size = workload.working_set // (TENANTS * CLIENTS_PER_TENANT)
    clients = []
    for tenant in range(TENANTS):
        for index in range(CLIENTS_PER_TENANT):
            base = (tenant * CLIENTS_PER_TENANT + index) * slice_size
            ops = workload.stream(seed, tenant, base, slice_size, workload.stream_length)
            clients.append(Client(f"tenant-{tenant}", ops))
    generated = time.perf_counter()
    access = oram.access
    for address in range(1, workload.working_set + 1):
        access(address, Operation.WRITE, payload(address, 0))
    done = time.perf_counter()
    timings["build"] = timings.get("build", 0.0) + built - start
    timings["trace_gen"] = timings.get("trace_gen", 0.0) + generated - built
    timings["prefill"] = timings.get("prefill", 0.0) + done - generated
    return oram, clients


async def _window(service, clients, count, tracer=None) -> None:
    await asyncio.gather(*(client.run(service, count, tracer) for client in clients))


@dataclass
class Windows:
    """Per measured window: wall seconds, host-speed factor, and the
    nearest-rank p50 and p99 of its latency samples in seconds."""

    wall_s: list[float]
    factors: list[float]
    p50_s: list[float]
    p99_s: list[float]

    def scaled_median(self, values: list[float]) -> float:
        """Median over windows of ``values`` scaled by each window's factor."""
        return statistics.median(value * factor for value, factor in zip(values, self.factors))


async def _timed_windows(service, clients, count, seconds, speed=None, tracer=None) -> Windows:
    """Run whole windows until ``seconds`` pass.  With a :class:`HostSpeed`,
    the host is sampled between windows (outside the timed part); without
    one every factor is 1.  Every window has at least 1000 requests, so its
    p99 has ten samples beyond it."""
    out = Windows([], [], [], [])
    before = speed.sample() if speed else REFERENCE_MOPS
    start = time.perf_counter()
    while not out.wall_s or time.perf_counter() - start < seconds:
        for client in clients:
            client.latencies.clear()
        window_start = time.perf_counter()
        await _window(service, clients, count, tracer)
        out.wall_s.append(time.perf_counter() - window_start)
        after = speed.sample() if speed else REFERENCE_MOPS
        out.factors.append(HostSpeed.factor(before, after))
        before = after
        latencies = [latency for client in clients for latency in client.latencies]
        out.p50_s.append(percentile(latencies, 0.50))
        out.p99_s.append(supported_percentile(latencies, 0.99))
    return out


def run(workload: ServingWorkload, seed: int, seconds: float, trace: bool) -> RunResult:
    timings: dict[str, float] = {}
    speed = HostSpeed()
    setup_times, scaled_setup_times = [], []
    oram = clients = None
    for _ in range(1 if trace else SETUP_REPEATS):
        oram = clients = None
        gc.collect()
        before = speed.sample()
        start = time.perf_counter()
        oram, clients = setup(workload, seed, timings)
        setup_times.append(time.perf_counter() - start)
        scaled_setup_times.append(setup_times[-1] * HostSpeed.factor(before, speed.sample()))
    gc.collect()
    if trace:
        return _run_traced(workload, oram, clients, seconds, timings)

    service = OramService()
    service.attach_instance(INSTANCE, oram)

    async def measure():
        async with service:
            before = counters(oram)
            await _window(service, clients, workload.window)
            warm = _delta(counters(oram), before)
            host = HostWindow()
            windows = await _timed_windows(service, clients, workload.window, seconds, speed)
            return warm, windows, host.facts()

    warm, windows, host = asyncio.run(measure())
    rss = peak_rss_mb()
    window_requests = workload.window * len(clients)
    attempted = sum(client.attempted for client in clients)
    failed = sum(client.failed for client in clients)
    checks = []
    if sum(t.requests for t in service.stats.tenants.values()) != attempted:
        checks.append("service request count differs from the clients' count")
    metrics = {
        "requests_per_s": window_requests / windows.scaled_median(windows.wall_s),
        "latency_p50_ms": windows.scaled_median(windows.p50_s) * 1e3,
        "latency_p99_ms": windows.scaled_median(windows.p99_s) * 1e3,
        "setup_s": statistics.median(scaled_setup_times),
        "peak_rss_mb": rss,
        "path_ops_per_request": sum(d[2] for d in warm) / window_requests,
        "success_rate": 1.0 - failed / attempted,
    }
    details = {
        "latency_samples": window_requests * len(windows.wall_s),
        "raw": {
            "requests_per_s": window_requests / statistics.median(windows.wall_s),
            "latency_p50_ms": statistics.median(windows.p50_s) * 1e3,
            "latency_p99_ms": statistics.median(windows.p99_s) * 1e3,
            "setup_s": statistics.median(setup_times),
        },
        "setup_runs_s": setup_times,
        "setup_parts_s": timings,
        "host": host,
        "host_speed": speed.summary(),
        "window_requests": window_requests,
        "window_s": windows.wall_s,
        "window_factors": windows.factors,
        "error_rate": failed / attempted,
    }
    return RunResult(metrics, attempted, failed, checks, details)


def _run_traced(workload, oram, clients, seconds, timings) -> RunResult:
    """Untraced half, then traced half: per-layer metrics and trace overhead."""
    service = OramService()
    service.attach_instance(INSTANCE, oram)
    tracer = Tracer()

    async def measure():
        async with service:
            await _window(service, clients, workload.window)
            plain = await _timed_windows(service, clients, workload.window, seconds / 2)
            before = counters(oram)
            stats_before = _service_counters(service)
            hier_before = _hier_counters(oram)
            with instrument(tracer), tracer.span("serve.run") as root:
                traced = await _timed_windows(
                    service, clients, workload.window, seconds / 2, tracer=tracer
                )
            return (
                statistics.median(plain.wall_s),
                len(traced.wall_s) * workload.window * len(clients),
                statistics.median(traced.wall_s),
                root,
                _delta(counters(oram), before),
                [a - b for a, b in zip(_service_counters(service), stats_before)],
                [a - b for a, b in zip(_hier_counters(oram), hier_before)],
            )

    plain_window, n, traced_window, root, delta, service_delta, hier_delta = asyncio.run(measure())
    metrics = layer_metrics(tracer, root, n, delta, service_delta, hier_delta, timings)
    metrics["trace.overhead_ratio"] = traced_window / plain_window
    attempted = sum(client.attempted for client in clients)
    failed = sum(client.failed for client in clients)
    return RunResult(metrics, attempted, failed, [], {"tracer": tracer, "traced_requests": n})


def _service_counters(service: OramService) -> list[int]:
    stats = service.stats
    return [stats.rounds, sum(t.fused for t in stats.tenants.values())]


def _hier_counters(oram: Any) -> list[int]:
    if isinstance(oram, HierarchicalPathORAM):
        return [oram.stats.real_accesses, oram.stats.dummy_accesses]
    return [0, 0]


def layer_metrics(tracer, root, n, delta, service_delta, hier_delta, timings) -> dict[str, float]:
    """Fold one traced serving window into the per-layer metrics."""
    total, self_time, calls = tracer.totals()
    root_time = tracer.spans[root][2] - tracer.spans[root][1]
    engine = sum(
        end - start
        for name, start, end, parent, _ in tracer.spans
        if parent >= 0 and tracer.spans[parent][0] == "serve.execute_batch"
    )
    metrics = empty_layer_metrics()
    p50, p99 = queue_wait_percentiles(tracer)
    real = sum(d[0] for d in delta)
    dummy = sum(d[1] for d in delta)
    paths = sum(d[2] for d in delta)
    metrics.update(
        {
            "serve.queue_wait_ms_p50": p50,
            "serve.queue_wait_ms_p99": p99,
            "serve.self_us_per_request": per_request(root_time - engine, n, 1e6),
            "serve.batch_size_mean": per_request(
                tracer.counts["serve.batch_requests"], tracer.counts["serve.batches"]
            ),
            "serve.rounds_per_1k_requests": per_request(service_delta[0], n, 1e3),
            "serve.fused_fraction": per_request(service_delta[1], n),
            "hierarchical.self_us_per_request": per_request(
                self_time["hierarchical.access"], n, 1e6
            ),
            "hierarchical.pm_path_ops_per_request": per_request(
                sum(d[2] for d in delta[1:]), n
            ),
            "hierarchical.dummy_rounds_per_1k_requests": per_request(hier_delta[1], n, 1e3),
            "path_oram.data.us_per_access": per_request(
                total["path_oram.data"], calls["path_oram.data"], 1e6
            ),
            "path_oram.pm.us_per_access": per_request(
                total["path_oram.pm"], calls["path_oram.pm"], 1e6
            ),
            "path_oram.dummy_per_real": per_request(dummy, real),
            "path_oram.blocks_read_per_path": per_request(sum(d[3] for d in delta), paths),
            "crypto.encrypt_us_per_request": per_request(total["crypto.encrypt"], n, 1e6),
            "crypto.decrypt_us_per_request": per_request(total["crypto.decrypt"], n, 1e6),
            "crypto.buckets_per_request": per_request(
                calls["crypto.encrypt"] + calls["crypto.decrypt"], n
            ),
            "integrity.verify_us_per_request": per_request(total["integrity.verify"], n, 1e6),
            "integrity.update_us_per_request": per_request(total["integrity.update"], n, 1e6),
            "tree.read_path_us_per_request": per_request(total["tree.read_path"], n, 1e6),
            "tree.write_path_us_per_request": per_request(total["tree.write_path"], n, 1e6),
            "workloads.trace_gen_s": timings.get("trace_gen", 0.0),
            "setup.build_s": timings.get("build", 0.0),
            "setup.prefill_s": timings.get("prefill", 0.0),
            "trace.unattributed_fraction": per_request(
                root_time - tracer.children_time(root), root_time
            ),
        }
    )
    for level in (1, 2, 3):
        if level < len(delta):
            hits, misses = delta[level][4], delta[level][5]
            metrics[f"plb.hit_rate.l{level}"] = per_request(hits, hits + misses)
    return metrics
