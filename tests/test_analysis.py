"""Analysis-driver tests (scaled-down versions of the evaluation sweeps)."""

import json
import math
from pathlib import Path

import pytest

from repro.analysis.dram_latency import figure11_configs, measure_latency
from repro.analysis.hierarchy import analytic_breakdown, figure10_configs, figure10_rows
from repro.analysis.report import format_markdown_table, format_table
from repro.analysis.spec_eval import (
    figure12_configurations,
    run_dram_baseline,
    run_oram_configuration,
    table2_rows,
)
from repro.analysis.stash_occupancy import run_stash_occupancy_sweep
from repro.analysis.sweep import (
    SWEEP_SPEC,
    measure_dummy_ratio,
    sweep_stash_size,
    sweep_utilization,
    utilization_config,
)
from repro.core.background_eviction import BackgroundEviction
from repro.core.config import ORAMConfig
from repro.core.path_oram import PathORAM
from repro.errors import ConfigurationError, ReproError

#: The Figure 8 dummy ratios the end-to-end sweep benchmark pins per seed.
FIG8_PINS = Path(__file__).resolve().parents[1] / "perfbench" / "fig8_pins.json"
#: The grid of those pins: Z-major over the eight utilizations.
FIG8_UTILIZATIONS = (0.02, 0.05, 0.125, 0.25, 0.5, 0.67, 0.75, 0.8)


class TestReportFormatting:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1], ["longer-name", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "longer-name" in lines[3]

    def test_format_table_with_title(self):
        text = format_table(["x"], [[1]], title="Table 9")
        assert text.splitlines()[0] == "Table 9"

    def test_markdown_table(self):
        text = format_markdown_table(["a", "b"], [[1, 2]])
        assert text.splitlines()[1] == "| --- | --- |"
        assert "| 1 | 2 |" in text


class TestStashOccupancyDriver:
    def test_larger_z_has_lighter_tail(self):
        results = run_stash_occupancy_sweep([1, 4], working_set_blocks=1024,
                                            num_accesses=4000, seed=1)
        tail_z1 = results[1].tail_probability(20)
        tail_z4 = results[4].tail_probability(20)
        assert tail_z1 > tail_z4

    def test_tail_probability_monotone(self):
        results = run_stash_occupancy_sweep([2], working_set_blocks=512,
                                            num_accesses=2000, seed=2)
        curve = results[2].tail_curve([1, 5, 10, 50])
        probabilities = [p for _, p in curve]
        assert probabilities == sorted(probabilities, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in probabilities)


class TestSweepDrivers:
    def test_measure_dummy_ratio_returns_finite_point_for_z4(self):
        config = ORAMConfig(working_set_blocks=1024, z=4, block_bytes=128, stash_capacity=200)
        point = measure_dummy_ratio(config, num_accesses=800, seed=3)
        assert not point.aborted
        assert point.dummy_ratio < 1.0
        assert point.access_overhead >= point.theoretical_overhead

    def test_high_utilization_small_z_aborts_or_is_expensive(self):
        # Figure 8: Z=1 at high utilization is so dominated by dummy
        # accesses that the paper could not finish those configurations.
        config = utilization_config(z=1, utilization=0.8, capacity_blocks=4096)
        point = measure_dummy_ratio(config, num_accesses=600, seed=4,
                                    abort_dummy_factor=10.0)
        assert point.aborted or point.dummy_ratio > 2.0

    def test_utilization_config_hits_target_exactly(self):
        config = utilization_config(z=3, utilization=0.67, capacity_blocks=8192)
        assert config.working_set_blocks / config.capacity_blocks == pytest.approx(0.67, abs=0.01)
        assert config.total_blocks <= config.capacity_blocks

    def test_prefill_brings_oram_to_nominal_utilization(self):
        config = ORAMConfig(working_set_blocks=1024, z=4, block_bytes=128, stash_capacity=200)
        point = measure_dummy_ratio(config, num_accesses=300, seed=5, prefill=True)
        assert not point.aborted
        unfilled = measure_dummy_ratio(config, num_accesses=300, seed=5, prefill=False)
        # With prefill the ORAM holds its full working set, so eviction
        # pressure (and hence the dummy ratio) can only be higher.
        assert point.dummy_ratio >= unfilled.dummy_ratio

    def test_sweep_stash_size_covers_grid(self):
        points = sweep_stash_size([2, 3], [100, 200], working_set_blocks=1024,
                                  num_accesses=400, seed=5)
        assert len(points) == 4
        assert {(p.z, p.stash_capacity) for p in points} == {(2, 100), (2, 200), (3, 100), (3, 200)}

    def test_sweep_utilization_dummy_pressure_grows_with_utilization(self):
        points = sweep_utilization([3], [0.25, 0.5, 0.8], working_set_blocks=1024,
                                   num_accesses=500, seed=6)
        ordered = sorted(points, key=lambda p: p.utilization)
        assert len(ordered) == 3
        # Figure 8: higher utilization means more dummy accesses for a fixed Z.
        assert ordered[-1].dummy_ratio >= ordered[0].dummy_ratio
        assert all(p.access_overhead >= p.theoretical_overhead for p in ordered)


def fig8_point(z, utilization, seed):
    """One point of the end-to-end Figure 8 sweep (capacity 2048, slack 25,
    700 accesses, abort factor 15)."""
    config = utilization_config(z, utilization, capacity_blocks=2048, stash_slack=25)
    return measure_dummy_ratio(config, num_accesses=700, seed=seed, abort_dummy_factor=15.0)


class TestAbortBudget:
    """Background eviction stops at a point's remaining dummy budget."""

    def test_aborting_point_stops_at_its_chunk_budget(self, monkeypatch):
        dummies = [0]
        chunks = []  # (dummy budget of the chunk, eviction calls of the chunk)
        real_dummy_access = PathORAM.dummy_access
        real_access_many = PathORAM.access_many
        real_after_access = BackgroundEviction.after_access

        def dummy_access(oram):
            dummies[0] += 1
            real_dummy_access(oram)

        def access_many(oram, addresses, *args, **kwargs):
            addresses = list(addresses)
            real_end = oram.stats.real_accesses + len(addresses)
            budget = max(1, math.floor(15.0 * real_end) - oram.stats.dummy_accesses)
            chunks.append((budget, []))
            return real_access_many(oram, addresses, *args, **kwargs)

        def after_access(policy, oram):
            start = dummies[0]
            try:
                return real_after_access(policy, oram)
            finally:
                chunks[-1][1].append(dummies[0] - start)

        monkeypatch.setattr(PathORAM, "dummy_access", dummy_access)
        monkeypatch.setattr(PathORAM, "access_many", access_many)
        monkeypatch.setattr(BackgroundEviction, "after_access", after_access)
        point = fig8_point(1, 0.8, seed=1)

        assert point.aborted
        assert math.isinf(point.dummy_ratio) and math.isinf(point.access_overhead)
        assert "exceeds factor 15" in point.abort_reason
        assert "livelock" not in point.abort_reason
        budget, calls = chunks[-1]
        # The chunk's eviction calls together issued one dummy past the
        # chunk's budget, not the spec's 200,000-dummy livelock cap.
        assert sum(calls) == budget + 1
        assert dummies[0] < SWEEP_SPEC.livelock_limit

    @pytest.mark.parametrize("seed", [3, 26])
    def test_points_closest_to_the_budget_keep_their_pinned_ratio(self, seed):
        # These two complete with the highest dummy ratios of every pinned
        # point, so the factor-15 budget comes closest to binding on them.
        pinned = json.loads(FIG8_PINS.read_text())[str(seed)]
        index = 1 * len(FIG8_UTILIZATIONS) + FIG8_UTILIZATIONS.index(0.8)
        point = fig8_point(2, 0.8, seed=seed)
        assert not point.aborted
        assert point.dummy_ratio == pinned[index]

    def test_background_eviction_raises_past_its_livelock_limit(self):
        class StuckORAM:
            """An ORAM whose stash never drains."""

            eviction_threshold = 0
            stash_occupancy = 1

            def __init__(self):
                self.dummies = 0

            def dummy_access(self):
                self.dummies += 1

        policy = BackgroundEviction(livelock_limit=7)
        for limit in (7, 3):
            policy.livelock_limit = limit
            oram = StuckORAM()
            with pytest.raises(ReproError, match="livelock"):
                policy.after_access(oram)
            assert oram.dummies == limit + 1
        with pytest.raises(ConfigurationError):
            policy.livelock_limit = 0

    def test_dummy_budget_spans_eviction_calls(self):
        class DrainingORAM:
            """An ORAM whose stash drains after three dummies."""

            eviction_threshold = 0

            def __init__(self):
                self.dummies = 0
                self.stash_occupancy = 0

            def dummy_access(self):
                self.dummies += 1
                self.stash_occupancy -= 1

        policy = BackgroundEviction(livelock_limit=100)
        policy.dummy_budget = 7
        oram = DrainingORAM()
        issued = []
        with pytest.raises(ReproError, match="livelock"):
            while True:
                oram.stash_occupancy = 3
                issued.append(policy.after_access(oram))
        # Two calls spend 6 of the 7; the third may issue one more and
        # raises on the second.
        assert issued == [3, 3] and oram.dummies == 7 + 1
        # The livelock limit still caps a call under a larger budget.
        policy.livelock_limit, policy.dummy_budget = 2, 50
        oram.stash_occupancy = 3
        with pytest.raises(ReproError, match="livelock"):
            policy.after_access(oram)
        assert oram.dummies == 8 + 3


class TestHierarchyDriver:
    def test_figure10_configs_include_baseline_and_variants(self):
        configs = figure10_configs(1 / 1024, position_map_block_sizes=(12, 32))
        assert "baseORAM" in configs
        assert "DZ3Pb32" in configs and "DZ4Pb12" in configs

    def test_breakdown_row_totals(self):
        configs = figure10_configs(1 / 1024, position_map_block_sizes=(32,), data_z_values=(3,))
        row = analytic_breakdown("DZ3Pb32", configs["DZ3Pb32"])
        assert row.total_overhead == pytest.approx(sum(row.per_oram_overhead))
        assert row.total_with_dummies >= row.total_overhead

    def test_figure10_rows_with_measured_dummies(self):
        rows = figure10_rows(scale=1 / 4096, measure_dummies=True, num_accesses=150, seed=7)
        assert all(row.dummy_factor >= 1.0 for row in rows)
        names = {row.name for row in rows}
        assert "baseORAM" in names


class TestDRAMLatencyDriver:
    def test_figure11_configs(self):
        configs = figure11_configs(1.0)
        assert set(configs) == {"DZ3Pb12", "DZ3Pb32", "DZ4Pb12", "DZ4Pb32"}

    def test_measure_latency_row_relationships(self):
        configs = figure11_configs(1.0)
        row = measure_latency(configs["DZ3Pb32"], channels=2, num_accesses=4, name="DZ3Pb32")
        assert row.theoretical_cycles < row.subtree_cycles < row.naive_cycles * 1.2
        assert row.subtree_overhead >= 1.0
        assert row.naive_overhead >= row.subtree_overhead * 0.9


class TestSpecEvaluation:
    def test_table2_rows_reproduce_paper_shape(self):
        rows = {row.name: row for row in table2_rows(num_accesses=4)}
        assert set(rows) == {"baseORAM", "DZ3Pb32", "DZ4Pb32"}
        # The optimised configurations return data much faster than baseORAM
        # and need less on-chip stash storage (Table 2).
        assert rows["DZ3Pb32"].return_data_cycles < 0.75 * rows["baseORAM"].return_data_cycles
        assert rows["DZ3Pb32"].stash_kilobytes < rows["baseORAM"].stash_kilobytes
        assert rows["DZ3Pb32"].finish_access_cycles > rows["DZ3Pb32"].return_data_cycles
        assert rows["DZ4Pb32"].finish_access_cycles > rows["DZ3Pb32"].finish_access_cycles

    def test_figure12_single_benchmark_ordering(self):
        configurations = figure12_configurations(functional_scale=1 / 4096, seed=8)
        baseline = run_dram_baseline("bzip2", 1500, seed=8)
        by_name = {}
        for configuration in configurations:
            result = run_oram_configuration("bzip2", configuration, 1500, seed=8)
            by_name[configuration.name] = result.slowdown_over(baseline)
        # Every ORAM configuration is slower than DRAM, and the optimised
        # configuration beats the baseline.
        assert all(value > 1.0 for value in by_name.values())
        assert by_name["DZ3Pb32"] < by_name["baseORAM"]
