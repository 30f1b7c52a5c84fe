"""Window-sharded single-experiment runs: plan math and parallel identity."""

import pytest

from repro.analysis.spec_eval import (
    figure12_configurations,
    run_oram_trace_replay,
    run_oram_trace_replay_sharded,
)
from repro.analysis.stash_occupancy import (
    run_stash_occupancy_experiment,
    run_stash_occupancy_sharded,
)
from repro.analysis.sweep import (
    measure_dummy_ratio,
    measure_dummy_ratio_sharded,
    measure_dummy_ratio_window,
)
from repro.core.config import ORAMConfig
from repro.core.stats import AccessStats
from repro.errors import ConfigurationError
from repro.runner import WindowPlan, merge_counters, run_windows


class TestWindowPlan:
    def test_split_distributes_remainder(self):
        plan = WindowPlan.split("exp", 0, total_accesses=10, windows=3)
        assert plan.window_accesses == (4, 3, 3)
        assert plan.total_accesses == 10
        assert plan.num_windows == 3

    def test_split_caps_windows_at_total(self):
        plan = WindowPlan.split("exp", 0, total_accesses=2, windows=5)
        assert plan.num_windows == 2
        assert plan.total_accesses == 2

    def test_split_rejects_nonpositive_windows(self):
        with pytest.raises(ConfigurationError):
            WindowPlan.split("exp", 0, total_accesses=10, windows=0)

    def test_split_of_zero_accesses_yields_one_empty_window(self):
        plan = WindowPlan.split("exp", 0, total_accesses=0, windows=4)
        assert plan.num_windows == 1
        assert plan.window_accesses == (0,)
        assert plan.total_accesses == 0

    def test_window_seeds_are_distinct_and_stable(self):
        plan = WindowPlan.split("exp", 42, total_accesses=100, windows=4)
        seeds = [plan.window_seed(index) for index in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [plan.window_seed(index) for index in range(4)]
        other = WindowPlan.split("other-exp", 42, total_accesses=100, windows=4)
        assert other.window_seed(0) != plan.window_seed(0)


class TestShardedSweep:
    CONFIG = ORAMConfig(
        working_set_blocks=256, z=4, block_bytes=64, stash_capacity=120
    )

    def test_sharded_process_equals_serial(self):
        serial = measure_dummy_ratio_sharded(
            self.CONFIG, 600, windows=3, seed=5, executor="serial"
        )
        parallel = measure_dummy_ratio_sharded(
            self.CONFIG, 600, windows=3, seed=5, executor="process"
        )
        assert serial == parallel

    def test_sharded_stats_merge_matches_manual_windows(self):
        plan = WindowPlan.split(
            key=("sweep-shard", self.CONFIG.name or "",
                 self.CONFIG.z, self.CONFIG.stash_capacity),
            base_seed=5,
            total_accesses=600,
            windows=3,
        )
        merged = AccessStats()
        for index, accesses in enumerate(plan.window_accesses):
            stats, reason = measure_dummy_ratio_window(
                self.CONFIG, accesses, seed=plan.window_seed(index)
            )
            assert reason is None
            merged.merge(stats)
        point = measure_dummy_ratio_sharded(
            self.CONFIG, 600, windows=3, seed=5, executor="serial"
        )
        assert point.dummy_ratio == merged.dummy_ratio
        assert not point.aborted

    def test_single_window_shard_equals_plain_measure(self):
        plan = WindowPlan.split(
            key=("sweep-shard", self.CONFIG.name or "",
                 self.CONFIG.z, self.CONFIG.stash_capacity),
            base_seed=9,
            total_accesses=400,
            windows=1,
        )
        sharded = measure_dummy_ratio_sharded(
            self.CONFIG, 400, windows=1, seed=9
        )
        direct = measure_dummy_ratio(
            self.CONFIG, 400, seed=plan.window_seed(0)
        )
        assert sharded == direct


class TestShardedStashOccupancy:
    def test_sharded_process_equals_serial(self):
        serial = run_stash_occupancy_sharded(
            2, 256, num_accesses=900, windows=3, seed=4, executor="serial"
        )
        parallel = run_stash_occupancy_sharded(
            2, 256, num_accesses=900, windows=3, seed=4, executor="process"
        )
        assert serial.samples == parallel.samples
        assert len(serial.samples) == 900

    def test_pooled_samples_are_window_concatenation(self):
        plan = WindowPlan.split(
            key=("fig3-shard", 2, 256), base_seed=4,
            total_accesses=900, windows=3,
        )
        expected = []
        for index, accesses in enumerate(plan.window_accesses):
            window = run_stash_occupancy_experiment(
                2, 256, num_accesses=accesses, seed=plan.window_seed(index)
            )
            expected.extend(window.samples)
        pooled = run_stash_occupancy_sharded(
            2, 256, num_accesses=900, windows=3, seed=4
        )
        assert pooled.samples == expected


class TestShardedSpecReplay:
    def test_sharded_process_equals_serial(self):
        configuration = figure12_configurations(functional_scale=1 / 4096, seed=8)[0]
        serial = run_oram_trace_replay_sharded(
            "bzip2", configuration, 600, windows=2, seed=8, executor="serial"
        )
        parallel = run_oram_trace_replay_sharded(
            "bzip2", configuration, 600, windows=2, seed=8, executor="process"
        )
        assert serial == parallel
        assert serial.accesses == 600
        assert serial.dummy_factor >= 1.0

    def test_replay_counts_cover_trace(self):
        configuration = figure12_configurations(functional_scale=1 / 4096, seed=8)[0]
        result = run_oram_trace_replay("mcf", configuration, 300, seed=3)
        assert result.accesses == 300
        assert 0 <= result.found <= 300
        assert result.benchmark == "mcf"


class TestRunWindowsGeneric:
    def test_run_windows_passes_sizes_and_seeds(self):
        plan = WindowPlan.split("generic", 7, total_accesses=10, windows=4)
        values = run_windows(_echo_window, plan, kwargs={"tag": "x"})
        sizes = [value[0] for value in values]
        seeds = [value[1] for value in values]
        assert sizes == list(plan.window_accesses)
        assert seeds == [plan.window_seed(index) for index in range(4)]
        assert all(value[2] == "x" for value in values)


def _echo_window(num_accesses, seed, tag):
    return (num_accesses, seed, tag)


class TestMergeCounters:
    def test_merge_over_empty_values_is_all_zero(self):
        assert merge_counters([], ["real_accesses", "dummy_accesses"]) == {
            "real_accesses": 0,
            "dummy_accesses": 0,
        }

    def test_merge_with_no_fields_is_empty(self):
        stats = AccessStats()
        stats.real_accesses = 3
        assert merge_counters([stats], []) == {}
