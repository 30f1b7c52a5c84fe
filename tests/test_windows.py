"""Window-sharded single-experiment runs: plan math and window dispatch."""

import pytest

from repro.errors import ConfigurationError
from repro.runner import WindowPlan, run_windows


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

