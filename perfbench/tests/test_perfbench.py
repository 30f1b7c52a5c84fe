"""Self-tests of the benchmark harness (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import harness, serving
from repro import Operation, ORAMConfig, OramSpec

ROOT = Path(__file__).resolve().parents[2]

#: A serving workload small enough to set up in well under a second; a
#: window of 8 x 130 requests gives p99 its ten samples beyond.
TINY = replace(
    serving.SECURE_INTEGRITY,
    name="tiny",
    spec=OramSpec(protocol="flat", storage="flat"),
    config=ORAMConfig(working_set_blocks=256, stash_capacity=200),
    working_set=256,
    window=130,
    stream_length=512,
)


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))
    assert harness.percentile(samples, 0.50) == 50
    assert harness.percentile(samples, 0.99) == 99
    assert harness.percentile(samples, 1.0) == 100
    assert harness.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.samples_beyond(1000, 0.99) == 10
    assert harness.samples_beyond(999, 0.99) == 9
    assert harness.supported_percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(ValueError, match="only 9 beyond"):
        harness.supported_percentile(list(range(999)), 0.99)


def test_metric_name_grammar():
    for name in ("requests_per_s", "plb.hit_rate.l1", "path_oram.pm.us_per_access", "a-b"):
        assert harness.valid_metric_name(name)
    for name in ("", "p99 ms", "rate/s", "x" * 65, "caché"):
        assert not harness.valid_metric_name(name)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert harness.valid_metric_name(metric["name"])


def test_result_line_refuses_undeclared_or_missing_metrics():
    result = harness.RunResult({"a": 1.0, "b": 2.0}, attempted=3, failed=0)
    line = json.loads(harness.result_line(result, {"a": "s", "b": "ms"}))
    assert line == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"a": {"value": 1.0, "unit": "s"}, "b": {"value": 2.0, "unit": "ms"}},
    }
    with pytest.raises(ValueError):
        harness.result_line(result, {"a": "s"})
    with pytest.raises(ValueError):
        harness.result_line(result, {"a": "s", "b": "ms", "c": "s"})


def test_corrupted_read_counts_as_failure(monkeypatch):
    original_setup = serving.setup

    def corrupting_setup(workload, seed, timings):
        oram, clients = original_setup(workload, seed, timings)
        written = set()
        for address, is_write in clients[0].ops:
            if not is_write and address not in written:
                break
            written.add(address)
        # Overwrite a block behind the shadow copy's back: the client's
        # first read of it must come back wrong.
        oram.access(address, Operation.WRITE, bytes(serving.BLOCK_BYTES))
        return oram, clients

    monkeypatch.setattr(serving, "setup", corrupting_setup)
    result = serving.run(TINY, seed=3, seconds=0.01, trace=False)
    assert result.failed >= 1
    assert not result.correct
    assert result.details["error_rate"] == result.failed / result.attempted
    assert result.metrics["success_rate"] < 1.0


def test_seed_changes_requests_not_metric_set():
    one = serving.uniform_stream(1, 0, 0, 32, 64)
    two = serving.uniform_stream(2, 0, 0, 32, 64)
    assert one != two
    assert one == serving.uniform_stream(1, 0, 0, 32, 64)
    assert serving.spec_stream(1, 0, 0, 512, 64) != serving.spec_stream(2, 0, 0, 512, 64)

    first = serving.run(TINY, seed=1, seconds=0.01, trace=False)
    again = serving.run(TINY, seed=1, seconds=0.01, trace=False)
    other = serving.run(TINY, seed=2, seconds=0.01, trace=False)
    assert first.correct and again.correct and other.correct
    assert set(first.metrics) == set(other.metrics)
    assert first.metrics["path_ops_per_request"] == again.metrics["path_ops_per_request"]


def _run_cli(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("spec-hier-plb", 1), ("secure-integrity", 1), ("sweep-fig8", 0)],
)
def test_workload_smoke(workload, trace):
    done = _run_cli(workload, seed=0, trace=trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = harness.declared_metrics(ROOT / "BENCHMARK.json", bool(trace))
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_cli("secure-integrity", seed=0, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
