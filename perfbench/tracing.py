"""In-memory span tracing from outside the program.

The traced run replaces public functions and methods of each layer with
thin wrappers (:func:`instrument`) that record a span per call: name,
start, end, parent span and the id of the request the work belongs to.
Nothing under ``src/`` changes; the wrappers are removed when the traced
window ends.  Spans stay in memory and are written out at the end of the
run (:meth:`Tracer.dump`).

Request ids: a serving client opens an asynchronous ``serve.request`` span
per request (:meth:`Tracer.begin_request`).  Engine calls made directly
under ``serve.execute_batch`` claim the next request of the batch in
order, and every span nested below them inherits that request's id.  In
the sweep, a design point is the request.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any, Callable, Iterator

from perfbench.harness import percentile

#: Span names that start a request's engine work when called straight
#: from ``serve.execute_batch``.
ENGINE_TOP = ("hierarchical.access", "path_oram.data", "path_oram.access_many")


class Tracer:
    """Append-only span store with a synchronous nesting stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: [name, start, end, parent index (-1: none), request id]
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._rid: int | None = None
        self._batch: deque = deque()
        self._request_ids: dict[int, int] = {}

    # -- synchronous spans ------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self._rid])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span, claiming a request when it starts one."""
        saved_rid = self._rid
        if name in ENGINE_TOP and self._parent_name() == "serve.execute_batch":
            claimed = len(args[1]) if name == "path_oram.access_many" else 1
            requests = [self._batch.popleft() for _ in range(min(claimed, len(self._batch)))]
            if requests:
                self._rid = self._request_ids.get(id(requests[0]))
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)
            self._rid = saved_rid

    # -- requests ---------------------------------------------------------
    def begin_request(self, request: Any) -> int:
        """Open an asynchronous ``serve.request`` span; returns its index."""
        index = len(self.spans)
        self.spans.append(["serve.request", self.clock(), 0.0, -1, index])
        self._request_ids[id(request)] = index
        return index

    def end_request(self, index: int, request: Any) -> None:
        self.spans[index][2] = self.clock()
        self._request_ids.pop(id(request), None)

    def begin_batch(self, batch: list) -> None:
        self._batch = deque(pending.request for pending in batch)
        self.counts["serve.batches"] += 1
        self.counts["serve.batch_requests"] += len(batch)

    def set_request(self, rid: int | None) -> None:
        self._rid = rid

    # -- analysis ---------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: total duration, total self time and call count.

        Self time is a span's duration minus the time its child spans
        cover (children of one span never overlap: they are nested
        synchronous calls).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = Counter()
        self_time: dict[str, float] = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        return total, self_time, calls

    def children_time(self, index: int) -> float:
        """Time covered by the direct children of span ``index``."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent == index)

    def queue_waits(self) -> list[float]:
        """Per request: submit until its engine work started, in seconds."""
        engine_start: dict[int, float] = {}
        for name, start, _, parent, rid in self.spans:
            if (
                rid is not None
                and name in ENGINE_TOP
                and parent >= 0
                and self.spans[parent][0] == "serve.execute_batch"
            ):
                engine_start.setdefault(rid, start)
        return [
            engine_start[index] - start
            for index, (name, start, _, _, _) in enumerate(self.spans)
            if name == "serve.request" and index in engine_start
        ]

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: a header naming the fields, then
        one array per span, times in seconds from the first span's start."""
        origin = min((span[1] for span in self.spans), default=0.0)
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(["name", "start", "end", "parent", "rid"]) + "\n")
            for name, start, end, parent, rid in self.spans:
                out.write(json.dumps([name, start - origin, end - origin, parent, rid]) + "\n")


def _wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, args, kwargs)

    traced.__wrapped__ = fn
    return traced


def _batch_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def traced(oram: Any, batch: list, *args: Any, **kwargs: Any) -> Any:
        tracer.begin_batch(batch)
        return tracer.call("serve.execute_batch", fn, (oram, batch) + args, kwargs)

    traced.__wrapped__ = fn
    return traced


def _point_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer.set_request(tracer.counts["analysis.points"])
        tracer.counts["analysis.points"] += 1
        try:
            return tracer.call("analysis.point", fn, args, kwargs)
        finally:
            tracer.set_request(None)

    traced.__wrapped__ = fn
    return traced


def _targets() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) for every instrumented call."""
    import repro.analysis.sweep as sweep_module
    import repro.serve.service as service_module
    from repro.core.hierarchical import HierarchicalPathORAM
    from repro.core.path_oram import PathORAM
    from repro.crypto.bucket_encryption import CounterBucketCipher
    from repro.integrity.auth_tree import PathORAMAuthenticator
    from repro.integrity.storage import IntegrityVerifiedStorage
    from repro.serve.scheduler import BatchScheduler

    return [
        (service_module, "execute_batch", "serve.execute_batch"),
        (BatchScheduler, "admit", "serve.admit"),
        (HierarchicalPathORAM, "access", "hierarchical.access"),
        (PathORAM, "access", "path_oram.data"),
        (PathORAM, "access_path", "path_oram.data"),
        (PathORAM, "access_many", "path_oram.access_many"),
        (PathORAM, "access_position_block", "path_oram.pm"),
        (PathORAM, "dummy_access", "path_oram.dummy"),
        (IntegrityVerifiedStorage, "read_path", "tree.read_path"),
        (IntegrityVerifiedStorage, "write_path", "tree.write_path"),
        (PathORAMAuthenticator, "verify_path", "integrity.verify"),
        (PathORAMAuthenticator, "update_path", "integrity.update"),
        (CounterBucketCipher, "encrypt", "crypto.encrypt"),
        (CounterBucketCipher, "decrypt", "crypto.decrypt"),
        (sweep_module, "measure_dummy_ratio", "analysis.point"),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name in _targets():
            original = getattr(owner, attribute)
            if name == "serve.execute_batch":
                wrapped = _batch_wrapper(tracer, original)
            elif name == "analysis.point":
                wrapped = _point_wrapper(tracer, original)
            else:
                wrapped = _wrapper(tracer, name, original)
            setattr(owner, attribute, wrapped)
            saved.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def empty_layer_metrics() -> dict[str, float]:
    """Every per-layer metric at zero; each workload fills in what applies."""
    names = (
        "serve.queue_wait_ms_p50 serve.queue_wait_ms_p99 serve.self_us_per_request "
        "serve.batch_size_mean serve.rounds_per_1k_requests serve.fused_fraction "
        "hierarchical.self_us_per_request hierarchical.pm_path_ops_per_request "
        "plb.hit_rate.l1 plb.hit_rate.l2 plb.hit_rate.l3 "
        "hierarchical.dummy_rounds_per_1k_requests path_oram.data.us_per_access "
        "path_oram.pm.us_per_access path_oram.dummy_per_real path_oram.blocks_read_per_path "
        "crypto.encrypt_us_per_request crypto.decrypt_us_per_request "
        "crypto.buckets_per_request integrity.verify_us_per_request "
        "integrity.update_us_per_request tree.read_path_us_per_request "
        "tree.write_path_us_per_request analysis.point_s_p50 analysis.point_s_max "
        "analysis.aborted_points workloads.trace_gen_s setup.build_s setup.prefill_s "
        "trace.overhead_ratio trace.unattributed_fraction"
    )
    return dict.fromkeys(names.split(), 0.0)


def per_request(total: float, requests: int, scale: float = 1.0) -> float:
    return total * scale / requests if requests else 0.0


def queue_wait_percentiles(tracer: Tracer) -> tuple[float, float]:
    """p50 and p99 queue wait in ms (0 when nothing was served)."""
    waits = tracer.queue_waits()
    if not waits:
        return 0.0, 0.0
    return percentile(waits, 0.50) * 1e3, percentile(waits, 0.99) * 1e3
