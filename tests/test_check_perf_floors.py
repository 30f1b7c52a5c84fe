"""The perf-floor gate (``benchmarks/check_perf_floors.py``): verdicts, the
CPU-count warning and the listing of sections without a floor."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_perf_floors.py"
_SPEC = importlib.util.spec_from_file_location("check_perf_floors", _SCRIPT)
check_perf_floors = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_perf_floors)

RATIOS = {"min": 3.5, "median": 4.0, "max": 4.5}


def _check(tmp_path, bench: dict, floors: dict) -> int:
    bench_path = tmp_path / "bench.json"
    floors_path = tmp_path / "floors.json"
    bench_path.write_text(json.dumps(bench))
    floors_path.write_text(json.dumps(floors))
    return check_perf_floors.check(bench_path, floors_path)


def _lines(capsys, prefix: str) -> list[str]:
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith(prefix)]


def test_cpu_count_mismatch_warns_without_changing_the_exit_status(tmp_path, capsys):
    bench = {
        "flat": {"speedup": 4.0, "paired_ratios": RATIOS, "cpus": 4},
        "serving": {"speedup": 2.0, "cpus": check_perf_floors.CALIBRATION_CPUS},
    }
    assert _check(tmp_path, bench, {"flat": 3.0, "serving": 1.2}) == 0
    assert _lines(capsys, "warning:") == [
        "warning: flat was recorded on 4 CPUs; its floor was calibrated on a 2-CPU box"
    ]


@pytest.mark.parametrize("cpus", [1, 8])
def test_cpu_warning_keeps_a_failing_floor_failing(tmp_path, capsys, cpus):
    bench = {"flat": {"speedup": 2.0, "cpus": cpus}}
    assert _check(tmp_path, bench, {"flat": 3.0}) == 1
    out = capsys.readouterr().out
    assert "FAIL: flat speedup 2.00x" in out
    assert f"warning: flat was recorded on {cpus} CPUs" in out


def test_record_without_cpu_count_gets_no_warning(tmp_path, capsys):
    assert _check(tmp_path, {"flat": {"speedup": 4.0}}, {"flat": 3.0}) == 0
    assert _lines(capsys, "warning:") == []


def test_sections_without_a_floor_list_their_paired_ratios(tmp_path, capsys):
    bench = {
        "flat": {"speedup": 4.0, "cpus": 2},
        "secure": {"paired_ratios": {"min": 12.0, "median": 15.5, "max": 19.0}, "cpus": 2},
        "notes": {"cpus": 2},
    }
    assert _check(tmp_path, bench, {"flat": 3.0}) == 0
    assert _lines(capsys, "info:") == [
        "info: secure has no floor (pairs min/median/max 12.00x/15.50x/19.00x)"
    ]
