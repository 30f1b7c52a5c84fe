"""Checkpointing overhead benchmark: fault tolerance must stay near-free.

Two costs are measured and recorded to ``BENCH_engine.json``:

* the point cost of one :meth:`~repro.core.path_oram.PathORAM.snapshot` /
  ``restore`` round-trip (the window-granularity save a long run pays), and
* the overhead of running a windowed experiment with a per-window
  :class:`~repro.runner.checkpoint.CheckpointManager`: the share of each
  checkpointed run's wall time spent inside ``CheckpointManager.save``,
  timed directly around every save.

The recorded ``speedup`` is ``1 - share`` (median over the runs, each
run's value also in ``paired_ratios``); the committed floor of 0.9 in
``benchmarks/perf_floors.json`` is the "<10% overhead" acceptance target —
checkpointing every completed window must never cost more than a tenth of
the run it protects.  The saves cost about 1% of a run, well inside the
run-to-run swing of two separate runs (identical plain runs read 0.87-1.14x
of each other on a 2-CPU box), so a rate ratio of checkpointed and plain
runs measured the box more than the code; the directly timed share does
not depend on how fast the simulation windows ran next to it.  Each
checkpointed run is still paired with an uncheckpointed one, first side
alternating: both must produce identical per-window values, and their rate
ratio is recorded for information (``end_to_end_ratios``).  The checkpoint
tests pin resume bit-exactness; this benchmark additionally asserts a
resumed, fully cached replay returns the same values.
"""

import random
import time

from conftest import (  # noqa: E402
    alternating,
    median_pair,
    perf_floor,
    ratio_spread,
    record_perf,
    scaled,
)

from repro.backends import OramSpec, build_oram
from repro.core.config import ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.types import Operation
from repro.runner import CheckpointManager, WindowPlan, run_windows

#: Interleaved checkpointed/plain windows over the same plan.
WINDOWS = 3
WORKING_SET = 512

SPEEDUP_FLOOR = perf_floor("checkpoint")


class TimedCheckpointManager(CheckpointManager):
    """A checkpoint manager that adds up the wall time of its saves."""

    save_seconds = 0.0

    def save(self) -> None:
        start = time.perf_counter()
        super().save()
        self.save_seconds += time.perf_counter() - start


def _sim_window(num_accesses, seed, working_set):
    """One self-seeded simulation window (module-level: pool-picklable)."""
    oram = build_oram(
        OramSpec(protocol="flat", storage="flat"),
        ORAMConfig(working_set_blocks=working_set),
        seed=seed,
    )
    rng = random.Random(seed ^ 0x5BD1E995)
    for index in range(num_accesses):
        oram.access(1 + rng.randrange(working_set), Operation.WRITE, data=index)
    stats = oram.stats
    return (stats.real_accesses, stats.dummy_accesses, stats.path_reads)


def _snapshot_roundtrip_cost():
    """Milliseconds for one snapshot and one restore of a warm ORAM."""
    oram = build_oram(
        OramSpec(protocol="flat", storage="flat"),
        ORAMConfig(working_set_blocks=WORKING_SET),
        seed=5,
    )
    rng = random.Random(17)
    for index in range(scaled(2000, minimum=200)):
        oram.access(1 + rng.randrange(WORKING_SET), Operation.WRITE, data=index)
    reps = 5
    start = time.perf_counter()
    for _ in range(reps):
        snapshot = oram.snapshot()
    snapshot_ms = (time.perf_counter() - start) / reps * 1e3
    start = time.perf_counter()
    for _ in range(reps):
        restored = PathORAM.restore(snapshot)
    restore_ms = (time.perf_counter() - start) / reps * 1e3
    assert restored.stats.fingerprint() == oram.stats.fingerprint()
    return snapshot_ms, restore_ms, len(snapshot["state"])


def test_checkpointed_run_overhead(benchmark, tmp_path):
    plan = WindowPlan.split(
        key="ckpt-bench",
        base_seed=21,
        total_accesses=scaled(48_000, minimum=2400),
        windows=6,
    )
    kwargs = {"working_set": WORKING_SET}

    def _plain():
        start = time.perf_counter()
        values = run_windows(_sim_window, plan, kwargs=kwargs)
        return values, time.perf_counter() - start

    def _checkpointed(index):
        manager = TimedCheckpointManager(tmp_path / f"bench-{index}.ckpt", every=1)
        start = time.perf_counter()
        values = run_windows(_sim_window, plan, kwargs=kwargs, checkpoint=manager)
        return values, time.perf_counter() - start, manager

    def _run():
        pairs = []
        kept = []
        reference = None
        manager = None
        for index in range(WINDOWS):
            # Alternate which side runs first, so a slow first run does not
            # always land on the gated (checkpointed) side.
            (ck_values, ck_seconds, manager), (plain_values, plain_seconds) = alternating(
                index, lambda: _checkpointed(index), _plain
            )
            assert ck_values == plain_values
            if reference is None:
                reference = plain_values
            else:
                assert plain_values == reference
            pairs.append(
                (
                    plan.total_accesses / ck_seconds,
                    plan.total_accesses / plain_seconds,
                )
            )
            # The run's time outside its saves, as a fraction of the run.
            kept.append((ck_seconds - manager.save_seconds, ck_seconds))
        # A fully cached resume replays the recorded values bit-identically.
        resumed = run_windows(
            _sim_window,
            plan,
            kwargs=kwargs,
            checkpoint=CheckpointManager(manager.path),
        )
        assert resumed == reference
        return median_pair(pairs), ratio_spread(pairs), ratio_spread(kept)

    (ck_rate, plain_rate), end_to_end, spread = benchmark.pedantic(_run, rounds=1, iterations=1)
    speedup = spread["median"]
    snapshot_ms, restore_ms, snapshot_bytes = _snapshot_roundtrip_cost()

    record = {
        "config": (
            f"flat Path ORAM, working set {WORKING_SET} blocks, "
            f"{plan.num_windows}-window plan, checkpoint saved every window"
        ),
        "workload": (
            f"{plan.total_accesses} uniform random writes per run, "
            f"{WINDOWS} paired checkpointed/plain windows, first side alternating"
        ),
        "metric": "1 - share of a checkpointed run's wall time spent in CheckpointManager.save",
        "overhead_percent": round((1 - speedup) * 100, 2),
        "checkpointed_accesses_per_s": round(ck_rate, 1),
        "plain_accesses_per_s": round(plain_rate, 1),
        "end_to_end_ratios": end_to_end,
        "snapshot_ms": round(snapshot_ms, 2),
        "restore_ms": round(restore_ms, 2),
        "snapshot_bytes": snapshot_bytes,
        "target": "<10% of the run spent saving (floor 0.9x)",
        "paired_ratios": spread,
        "speedup": speedup,
    }
    record_perf(
        "checkpoint",
        record,
        f"Checkpoint/resume — {plan.num_windows}-window plan with per-window "
        "saves vs the same plan uncheckpointed",
    )

    floor_message = (
        f"checkpointed run spends {1 - speedup:.1%} of its time saving "
        f"(speedup {speedup:.3f}x, floor {SPEEDUP_FLOOR:.2f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, floor_message
