"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload spec-hier-plb --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs an untraced and a traced window and prints the
per-layer metrics.  Run from the repository root: the program is imported
from ``src/`` next to this directory, and the run fails without it.
Detail records (host facts, sample counts, spans) go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spec-hier-plb", "secure-integrity", "sweep-fig8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(source)]

    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2

    from perfbench import harness

    trace = bool(args.trace)
    units = harness.declared_metrics(ROOT / "BENCHMARK.json", trace)
    if args.workload == "sweep-fig8":
        from perfbench import sweep

        result = sweep.run(args.seed, args.seconds, trace)
    else:
        from perfbench import serving

        workload = {w.name: w for w in (serving.SPEC_HIER_PLB, serving.SECURE_INTEGRITY)}
        result = serving.run(workload[args.workload], args.seed, args.seconds, trace)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.details.pop("tracer", None)
    if tracer is not None:
        spans = ROOT / harness.OUT_DIR / f"{stem}.spans.jsonl"
        tracer.dump(spans)
        result.details["spans_file"] = str(spans.relative_to(ROOT))
        result.details["spans"] = len(tracer.spans)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "metrics": result.metrics,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_checks": result.checks,
        **result.details,
    }
    harness.write_record(ROOT, stem, record)
    for check in result.checks:
        print(f"FAILED CHECK: {check}")
    print(f"# details {record}")
    print(harness.result_line(result, units), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
