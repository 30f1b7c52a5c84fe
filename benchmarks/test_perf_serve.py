"""Serving-layer benchmark: what does batch coalescing buy at the front door?

A seeded closed-loop load (multiple tenants, multiple concurrent clients
each) runs twice per paired window against identically-seeded instances:
once through the batching scheduler (micro-batches of fused
``access_many`` runs) and once degraded to ``max_batch=1`` (every request
admitted and executed individually — the no-coalescing reference, still
paying the same asyncio machinery), the side that runs first alternating
from window to window.  The recorded ``speedup`` is
``batched_rps / unbatched_rps``; p50/p99 submit-to-completion latency and
aggregate throughput of the batched configuration are recorded alongside
into the ``serving`` section of ``BENCH_engine.json`` behind a committed
floor.
"""

from conftest import (  # noqa: E402
    alternating,
    median_pair,
    perf_floor,
    ratio_spread,
    record_perf,
    scaled,
)

from repro.backends import OramSpec
from repro.core.config import ORAMConfig
from repro.serve import LoadGenConfig, ServiceConfig, run_load

WORKING_SET = 512
WINDOWS = 3

SPEEDUP_FLOOR = perf_floor("serving")

SPEC = OramSpec(protocol="flat", storage="flat")
CONFIG = ORAMConfig(working_set_blocks=WORKING_SET, stash_capacity=200)

LOAD = LoadGenConfig(
    tenants=4,
    clients_per_tenant=4,
    requests_per_client=scaled(400, minimum=40),
    working_set=WORKING_SET,
    write_fraction=0.1,
    seed=29,
)

BATCHED = ServiceConfig(max_batch=256)
UNBATCHED = ServiceConfig(max_batch=1)


def _window(config: ServiceConfig, index: int):
    # Fresh instance per run: both sides replay the identical seeded
    # request streams against an identically-seeded ORAM.
    report = run_load({"main": (SPEC, CONFIG, 100 + index)}, load=LOAD, config=config)
    assert report.requests == LOAD.total_requests
    return report


def test_serving_batched_vs_unbatched(benchmark):
    def _run():
        pairs = []
        reports = []
        for index in range(WINDOWS):
            batched, unbatched = alternating(
                index, lambda: _window(BATCHED, index), lambda: _window(UNBATCHED, index)
            )
            assert batched.fused_runs > 0
            assert unbatched.fused_runs == 0
            assert unbatched.rounds >= batched.rounds
            pairs.append((batched.throughput_rps, unbatched.throughput_rps))
            reports.append(batched)
        batched_rps, unbatched_rps = median_pair(pairs)
        median_report = reports[[pair[0] for pair in pairs].index(batched_rps)]
        return batched_rps, unbatched_rps, median_report, ratio_spread(pairs)

    batched_rps, unbatched_rps, report, spread = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    speedup = batched_rps / unbatched_rps

    record = {
        "config": (
            f"flat Path ORAM, working set {WORKING_SET} blocks, served via "
            f"OramService; batched (max_batch={BATCHED.max_batch}, fused "
            "reads) vs unbatched (max_batch=1) scheduler"
        ),
        "workload": (
            f"closed loop: {LOAD.tenants} tenants x {LOAD.clients_per_tenant} "
            f"clients x {LOAD.requests_per_client} requests, "
            f"{int(LOAD.write_fraction * 100)}% writes, seeded streams"
        ),
        "metric": "aggregate requests per second, batched vs unbatched",
        "batched_rps": round(batched_rps, 1),
        "unbatched_rps": round(unbatched_rps, 1),
        "throughput_rps": round(batched_rps, 1),
        "p50_ms": round(report.p50_ms, 4),
        "p99_ms": round(report.p99_ms, 4),
        "mean_ms": round(report.mean_ms, 4),
        "rounds": report.rounds,
        "batches": report.batches,
        "fused_runs": report.fused_runs,
        "paired_ratios": spread,
        "speedup": round(speedup, 3),
    }
    record_perf(
        "serving",
        record,
        "Serving layer — closed-loop load through the batching scheduler "
        "vs per-request admission",
    )

    floor_message = (
        f"batched serving at {speedup:.3f}x the unbatched reference "
        f"(floor {SPEEDUP_FLOOR:.2f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, floor_message
