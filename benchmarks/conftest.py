"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section, prints the corresponding rows/series, and asserts that the
qualitative shape (who wins, roughly by how much, where crossovers fall)
matches the paper.  Experiment sizes are scaled down from the paper's
multi-gigabyte ORAMs; set ``REPRO_BENCH_SCALE`` (a float, default 1.0) to
grow or shrink the workloads.
"""

import json
import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Engine-throughput trajectory file at the repository root; one section per
#: perf benchmark ("flat", "hierarchical").
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def record_bench(section: str, record: dict) -> None:
    """Merge one perf benchmark's record into ``BENCH_engine.json``.

    The file holds one object per benchmark section so the flat-engine and
    hierarchy benchmarks can each update their own entry without clobbering
    the other (pre-sectioned flat-format files are replaced wholesale).
    """
    data = {}
    if BENCH_FILE.exists():
        try:
            loaded = json.loads(BENCH_FILE.read_text())
        except json.JSONDecodeError:
            loaded = None
        if isinstance(loaded, dict) and all(isinstance(value, dict) for value in loaded.values()):
            data = loaded
    data[section] = record
    BENCH_FILE.write_text(json.dumps(data, indent=2) + "\n")


#: Committed speedup floors, shared by the perf tests' hard assertions and
#: the CI gate (benchmarks/check_perf_floors.py) — one source of truth.
FLOORS_FILE = Path(__file__).resolve().parent / "perf_floors.json"


def perf_floor(section: str) -> float:
    """The committed regression floor for one BENCH section."""
    return float(json.loads(FLOORS_FILE.read_text())[section])


def bench_scale() -> float:
    """Global multiplier applied to access counts / trace lengths."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def bench_executor() -> str:
    """Executor for runner-driven sweeps (``REPRO_BENCH_EXECUTOR``).

    Defaults to the multiprocessing executor when the machine has more
    than one CPU — results are bit-identical to serial mode, per-point
    simulations are seeded independently — and to serial on single-core
    boxes where pool overhead cannot pay for itself.
    """
    executor = os.environ.get("REPRO_BENCH_EXECUTOR", "")
    if executor in ("serial", "process"):
        return executor
    if executor:
        raise ValueError(f"REPRO_BENCH_EXECUTOR must be 'serial' or 'process', got {executor!r}")
    return "process" if (os.cpu_count() or 1) > 1 else "serial"


def scaled(value: int, minimum: int = 1) -> int:
    """Scale an access count by ``REPRO_BENCH_SCALE``."""
    return max(minimum, int(value * bench_scale()))


def prefill(oram, count: int):
    """Access every address once so the ORAM holds its working set."""
    for address in range(1, count + 1):
        oram.access(address)
    return oram


def _window_addresses(oram, rng, measured: int, working_set: int):
    """Draw one window's workload and run the untimed warm-up stretch.

    A short warm-up precedes every timed stretch: alternating two engines
    evicts each other's code and data from the CPU caches, and without the
    warm-up every window starts by paying the other engine's cache misses.
    A ``gc.collect()`` right before the timed stretch keeps collector debt
    from one engine's window from being billed to the other's.
    """
    import gc

    warmup = max(1, measured // 20)
    addresses = [rng.randrange(1, working_set + 1) for _ in range(warmup + measured)]
    for address in addresses[:warmup]:
        oram.access(address)
    gc.collect()
    return addresses[warmup:]


def measure_window(oram, rng, measured: int, working_set: int) -> float:
    """One throughput window of per-access ``access`` calls, accesses/sec.

    The seed-reference side of every perf benchmark runs through this
    helper (the seed had no batched entry point); the engine side runs the
    same drawn workload through :func:`measure_window_many`.
    """
    import time

    addresses = _window_addresses(oram, rng, measured, working_set)
    start = time.perf_counter()
    for address in addresses:
        oram.access(address)
    return measured / (time.perf_counter() - start)


def measure_window_many(oram, rng, measured: int, working_set: int) -> float:
    """One throughput window driven by one fused ``access_many`` call.

    Identical workload stream and warm-up to :func:`measure_window`; the
    timed stretch consumes the whole window trace-at-once.
    """
    import time

    addresses = _window_addresses(oram, rng, measured, working_set)
    start = time.perf_counter()
    oram.access_many(addresses)
    return measured / (time.perf_counter() - start)


def paired_throughput(
    engine,
    reference,
    windows: int,
    measured: int,
    working_set: int,
    trace_seed: int = 11,
    engine_window=measure_window_many,
    reference_window=measure_window,
):
    """Alternate engine/reference windows; return the median pair and spread.

    The shared paired-window harness of the perf benchmarks: each of the
    ``windows`` rounds runs one engine window and one reference window
    back to back over the same workload stream (two RNGs from one
    ``trace_seed``), so a machine-load swing hits both comparably and the
    per-pair ratio stays meaningful.  The side that runs first alternates
    from round to round (:func:`alternating`).  Returns the
    ``(engine_rate, reference_rate)`` pair with the median ratio and the
    :func:`ratio_spread` of all pairs.
    """
    import random

    engine_rng, reference_rng = random.Random(trace_seed), random.Random(trace_seed)
    pairs = []
    for index in range(windows):
        engine_rate, reference_rate = alternating(
            index,
            lambda: engine_window(engine, engine_rng, measured, working_set),
            lambda: reference_window(reference, reference_rng, measured, working_set),
        )
        pairs.append((engine_rate, reference_rate))
    return median_pair(pairs), ratio_spread(pairs)


def alternating(index: int, *windows):
    """Run the zero-argument ``windows`` of round ``index``: in the given
    order on even rounds, in reverse on odd ones (AB, BA, ...), so a slow
    first window after heavy earlier work does not always land on the same
    side.  Returns their results in the given order."""
    results = [None] * len(windows)
    order = range(len(windows)) if index % 2 == 0 else reversed(range(len(windows)))
    for position in order:
        results[position] = windows[position]()
    return results


def median_pair(pairs):
    """The (engine, seed) window pair with the median rate ratio.

    Paired adjacent windows cancel machine-load drift; taking the median
    pair (lower-middle for even counts, the conservative side) avoids the
    upward bias a best-pair estimator would bake into the recorded
    trajectory.
    """
    ordered = sorted(pairs, key=lambda pair: pair[0] / pair[1])
    return ordered[(len(ordered) - 1) // 2]


def ratio_spread(pairs) -> dict:
    """Min, median (the :func:`median_pair` ratio) and max paired ratio."""
    ratios = sorted(first / second for first, second in pairs)
    return {
        "min": round(ratios[0], 3),
        "median": round(ratios[(len(ratios) - 1) // 2], 3),
        "max": round(ratios[-1], 3),
    }


def record_perf(section: str, record: dict, title: str) -> None:
    """The perf benchmarks' one writer: record a section and print it.

    Stamps the record with the machine's CPU count (ratios from a 2-CPU
    box and from a CI runner are not comparable), merges it into the
    sectioned ``BENCH_engine.json`` through :func:`record_bench` and emits
    the human-readable block, so every perf benchmark reports identically.
    """
    import json

    record = {**record, "cpus": os.cpu_count()}
    record_bench(section, record)
    emit(title, json.dumps(record, indent=2))


def emit(title: str, text: str) -> None:
    """Print a figure/table reproduction in a recognisable block."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(text)
