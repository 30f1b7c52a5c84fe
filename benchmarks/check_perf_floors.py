"""CI perf-floor gate: recorded speedups must not drop below the floors.

Reads the sectioned ``BENCH_engine.json`` the perf benchmarks just wrote
and compares each section's ``speedup`` against the committed floors in
``benchmarks/perf_floors.json``.  The floors are the regression contract:
they sit below the typical recorded ratios (so machine noise cannot break
CI) but above the previous PR's recorded trajectory point, so a change
that genuinely loses the trace-at-once gains fails the gate.

``--diff`` additionally renders the recorded-vs-floor margins as a
markdown table; when ``$GITHUB_STEP_SUMMARY`` is set (every GitHub
Actions step) the table is appended there, so floor headroom is visible
on every CI run instead of only on failure.

The floors were calibrated on a 2-CPU box.  A gated section recorded on a
different CPU count gets a warning line naming both counts; sections
without a floor that record paired ratios are listed for information.
Neither changes the exit status.

Exit status: 0 when every recorded section clears its floor, 1 otherwise
(also when a section with a committed floor is missing from the bench
file).

Usage::

    python benchmarks/check_perf_floors.py [--diff] [BENCH_FILE] [FLOORS_FILE]
"""

import json
import os
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
DEFAULT_BENCH = _HERE.parent / "BENCH_engine.json"
DEFAULT_FLOORS = _HERE / "perf_floors.json"

#: CPU count of the box the committed floors were calibrated on.
CALIBRATION_CPUS = 2


def load(bench_path: Path, floors_path: Path):
    """Read both files; returns ``(bench, floors)`` or raises OSError/ValueError."""
    bench = json.loads(bench_path.read_text())
    floors = json.loads(floors_path.read_text())
    return bench, floors


def section_rows(bench: dict, floors: dict) -> list[dict]:
    """One row per committed floor: recorded speedup, floor, margin, verdict,
    and the section's min/median/max paired-window ratios and CPU count when
    recorded."""
    rows = []
    for section, floor in sorted(floors.items()):
        record = bench.get(section)
        if not isinstance(record, dict):
            record = {}
        speedup = record.get("speedup")
        ratios = record.get("paired_ratios")
        cpus = record.get("cpus")
        if isinstance(speedup, (int, float)):
            rows.append({
                "section": section,
                "speedup": float(speedup),
                "floor": float(floor),
                "margin": float(speedup) - float(floor),
                "ok": speedup >= floor,
                "ratios": ratios,
                "cpus": cpus,
            })
        else:
            rows.append({
                "section": section,
                "speedup": None,
                "floor": float(floor),
                "margin": None,
                "ok": False,
                "ratios": None,
                "cpus": cpus,
            })
    return rows


def spread_text(ratios) -> str:
    """``min/median/max`` of a section's paired ratios, or ``—``."""
    if not isinstance(ratios, dict):
        return "—"
    return "/".join(f"{ratios[key]:.2f}x" for key in ("min", "median", "max"))


def cpu_warning(row: dict) -> str | None:
    """A warning line when a section was recorded on another CPU count than
    the calibration box, else ``None``."""
    cpus = row["cpus"]
    if not isinstance(cpus, int) or cpus == CALIBRATION_CPUS:
        return None
    return (
        f"warning: {row['section']} was recorded on {cpus} CPUs; its floor was "
        f"calibrated on a {CALIBRATION_CPUS}-CPU box"
    )


def markdown_table(rows: list[dict]) -> str:
    """The ``--diff`` view: recorded-vs-floor margins as a markdown table."""
    lines = [
        "### Perf-floor headroom",
        "",
        "| Section | Recorded | Floor | Margin | Pairs min/median/max | Status |",
        "| --- | ---: | ---: | ---: | ---: | :---: |",
    ]
    for row in rows:
        if row["speedup"] is None:
            lines.append(
                f"| `{row['section']}` | *missing* | {row['floor']:.2f}x | — | — | ❌ |"
            )
        else:
            status = "✅" if row["ok"] else "❌"
            lines.append(
                f"| `{row['section']}` | {row['speedup']:.2f}x "
                f"| {row['floor']:.2f}x | {row['margin']:+.2f}x "
                f"| {spread_text(row['ratios'])} | {status} |"
            )
    return "\n".join(lines) + "\n"


def check(bench_path: Path, floors_path: Path, diff: bool = False) -> int:
    try:
        bench, floors = load(bench_path, floors_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot read bench/floors file: {exc}")
        return 1

    rows = section_rows(bench, floors)
    status = 0
    for row in rows:
        if row["speedup"] is None:
            print(f"FAIL: section {row['section']!r} missing from {bench_path.name}")
            status = 1
        else:
            verdict = "ok" if row["ok"] else "FAIL"
            print(
                f"{verdict}: {row['section']} speedup {row['speedup']:.2f}x "
                f"(floor {row['floor']:.2f}x, margin {row['margin']:+.2f}x, "
                f"pairs min/median/max {spread_text(row['ratios'])})"
            )
            if not row["ok"]:
                status = 1
        warning = cpu_warning(row)
        if warning:
            print(warning)
    for section, record in sorted(bench.items()):
        if section not in floors and isinstance(record, dict) and "paired_ratios" in record:
            print(
                f"info: {section} has no floor "
                f"(pairs min/median/max {spread_text(record['paired_ratios'])})"
            )

    if diff:
        table = markdown_table(rows)
        print()
        print(table, end="")
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a", encoding="utf-8") as summary:
                summary.write(table)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    diff = "--diff" in argv
    positional = [arg for arg in argv if arg != "--diff"]
    bench = Path(positional[0]) if len(positional) > 0 else DEFAULT_BENCH
    floors = Path(positional[1]) if len(positional) > 1 else DEFAULT_FLOORS
    return check(bench, floors, diff=diff)


if __name__ == "__main__":
    raise SystemExit(main())
