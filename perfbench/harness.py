"""Measurement helpers shared by every workload.

Nearest-rank percentiles with a support rule, the metric-name grammar, the
latency clock, host-speed scaling, host facts (CPU count, versions,
hypervisor steal) and the one-line JSON result the benchmark prints last.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Metric names: letters, digits, ``_``, ``.`` and ``-`` only.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: A reported tail percentile must have at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Where runs leave their detail records and span dumps (git-ignored).
OUT_DIR = ".perfbench_out"


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` matches the metric-name grammar ``[A-Za-z0-9_.-]+``."""
    return len(name) <= 64 and METRIC_NAME.fullmatch(name) is not None


def nearest_rank(count: int, fraction: float) -> int:
    """1-based rank of the nearest-rank ``fraction`` percentile of ``count`` samples."""
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be in [0, 1]")
    return max(1, math.ceil(fraction * count))


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples rank above the ``fraction`` percentile."""
    return count - nearest_rank(count, fraction)


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), fraction) - 1]


def supported_percentile(samples: list[float], fraction: float) -> float:
    """:func:`percentile`, refused when fewer than ten samples lie beyond it.

    A tail percentile with nothing behind it is the maximum of a few
    samples and swings from run to run; the benchmark would rather fail a
    run than report one.
    """
    beyond = samples_beyond(len(samples), fraction)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{fraction * 100:g} of {len(samples)} samples has only {beyond} "
            f"beyond it (need {MIN_SAMPLES_BEYOND})"
        )
    return percentile(samples, fraction)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _steal_ticks() -> int | None:
    """Cumulative hypervisor steal ticks of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


#: Request latency is read on the process CPU clock (and then scaled to the
#: reference host speed, see :class:`HostSpeed`).  In one
#: single-threaded process it counts all the work done between submit and
#: completion but not the time the VM was descheduled, which swung the
#: wall-clock p99 up to 1.6x between runs of this benchmark on a 2-vCPU VM
#: (CPU-clock p99 within 15%).
LATENCY_CLOCK = time.process_time

#: Host speed, in calibration Mops, that every time metric is scaled to.
REFERENCE_MOPS = 20.0

#: Iterations of one calibration sample (about 5 ms at the reference speed).
CALIBRATION_ITERATIONS = 100_000


def calibration_mops(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Speed of a fixed pure-Python loop, in million iterations per second."""
    start = time.perf_counter()
    total = 0
    for index in range(iterations):
        total += index & 7
    return iterations / (time.perf_counter() - start) / 1e6


class HostSpeed:
    """Host speed sampled between units of measured work.

    On the 2-vCPU VM this benchmark was tuned on, the speed of the
    calibration loop swings between about 14 and 25 Mops, in bursts of a
    fraction of a second and in phases of minutes, and the benchmark's
    throughput follows it (1.85x between two runs of ``secure-integrity``
    with different seeds and identical code).  Process CPU time does not
    help: the process is not descheduled, it runs slower.  So each unit of
    work (a serving window, a sweep point, a set-up) is timed, the loop is
    sampled before and after it, and the unit's time is scaled to
    :data:`REFERENCE_MOPS` by the mean of the two samples.  The sampling
    itself is never inside a timed unit.  Raw times are kept in the detail
    record next to the scaled ones.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        mops = calibration_mops()
        self.samples.append(mops)
        return mops

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Reference-host time per measured second of a unit of work that
        the samples ``before`` and ``after`` bracket."""
        return (before + after) / 2 / REFERENCE_MOPS

    def summary(self) -> dict:
        ordered = sorted(self.samples)
        return {
            "samples": len(ordered),
            "median_mops": ordered[len(ordered) // 2] if ordered else None,
            "min_mops": ordered[0] if ordered else None,
            "max_mops": ordered[-1] if ordered else None,
        }


@dataclass
class HostWindow:
    """Wall time, process CPU time and steal ticks over one measured phase."""

    wall_start: float = field(default_factory=time.perf_counter)
    cpu_start: float = field(default_factory=time.process_time)
    steal_start: int | None = field(default_factory=_steal_ticks)

    def facts(self) -> dict:
        wall_s = time.perf_counter() - self.wall_start
        process_cpu_s = time.process_time() - self.cpu_start
        steal_end = _steal_ticks()
        try:
            import numpy

            numpy_version = numpy.__version__
        except ImportError:
            numpy_version = None
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "wall_s": wall_s,
            "process_cpu_s": process_cpu_s,
            "steal_ticks": (
                None
                if steal_end is None or self.steal_start is None
                else steal_end - self.steal_start
            ),
            "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
        }


@dataclass
class RunResult:
    """What one workload run hands back to the command line."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    checks: list[str] = field(default_factory=list)  # failed correctness checks
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.checks


def declared_metrics(benchmark_file: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(benchmark_file.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(result: RunResult, units: dict[str, str]) -> str:
    """The final stdout line: exactly the declared metrics, with units."""
    missing = sorted(set(units) - set(result.metrics))
    extra = sorted(set(result.metrics) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    for name in units:
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": float(result.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def write_record(root: Path, stem: str, record: dict) -> Path:
    """Save a run's detail record under the git-ignored output directory."""
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    path = out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    return path
