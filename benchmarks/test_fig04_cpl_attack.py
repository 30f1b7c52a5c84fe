"""Figure 4: the common-path-length attack on eviction schemes.

Paper result (L=5, Z=1, threshold 2, 100 experiments): the proposed
background eviction averages CPL 1.979 (expectation 1.969), while the
insecure block-remapping eviction averages 1.79 — clearly detectable.

The reproduction reports, per scheme, the average CPL between a real access
and the eviction access it triggers (see ``repro.attacks.cpl`` for why the
trigger-pair statistic is used at scaled-down sizes) plus the overall
consecutive-pair average the paper plots.
"""

import math
import statistics

from conftest import emit, scaled

from repro.analysis.report import format_table
from repro.attacks.cpl import expected_common_path_length, run_cpl_attack_series

NUM_EXPERIMENTS = 10
ACCESSES_PER_EXPERIMENT = 1500

#: How far the background scheme's trigger-pair CPL may sit from the uniform
#: expectation at ``REPRO_BENCH_SCALE=1.0``.
BACKGROUND_TOLERANCE = 0.06


def _sample_shape() -> tuple[int, int]:
    """(experiments, accesses per experiment) at the current scale."""
    return scaled(NUM_EXPERIMENTS, minimum=3), scaled(ACCESSES_PER_EXPERIMENT, minimum=300)


def background_tolerance(experiments: int, accesses: int) -> float:
    """The background check's tolerance for a run of this shape.

    Trigger pairs grow in proportion to experiments x accesses, and the
    standard error of their mean CPL shrinks as one over the square root
    of their count, so the tolerance is ``0.06 * sqrt(n_full / n_run)``.
    It is 0.06 at full scale and does not tighten above it.
    """
    ratio = NUM_EXPERIMENTS * ACCESSES_PER_EXPERIMENT / (experiments * accesses)
    return BACKGROUND_TOLERANCE * math.sqrt(max(1.0, ratio))


def _run_experiment():
    experiments, accesses = _sample_shape()
    return {
        scheme: run_cpl_attack_series(
            scheme, num_experiments=experiments, num_accesses=accesses, seed=7
        )
        for scheme in ("background", "insecure")
    }


def test_figure4_cpl_attack(benchmark):
    results = benchmark.pedantic(_run_experiment, rounds=1, iterations=1)
    expected = expected_common_path_length(5)

    rows = []
    for scheme, series in results.items():
        rows.append([
            scheme,
            f"{statistics.mean(r.trigger_pair_cpl for r in series):.3f}",
            f"{statistics.mean(r.average_cpl for r in series):.3f}",
            f"{expected:.3f}",
        ])
    emit(
        "Figure 4 — average common path length (L=5, Z=1, threshold 2)",
        format_table(["scheme", "trigger-pair CPL", "overall CPL", "expected"], rows),
    )

    background = statistics.mean(r.trigger_pair_cpl for r in results["background"])
    insecure = statistics.mean(r.trigger_pair_cpl for r in results["insecure"])
    # The secure scheme is statistically indistinguishable from uniform.
    assert abs(background - expected) < background_tolerance(*_sample_shape())
    # The insecure scheme's eviction paths are visibly correlated with the
    # preceding access (the paper sees 1.79 vs 1.969).
    assert insecure < expected - 0.08
    assert insecure < background


def test_background_tolerance_follows_the_standard_error_law():
    assert background_tolerance(NUM_EXPERIMENTS, ACCESSES_PER_EXPERIMENT) == BACKGROUND_TOLERANCE
    # A quarter-scale run: 3 experiments of 375 accesses, 1/13.3 of the pairs.
    assert math.isclose(background_tolerance(3, 375), 0.06 * math.sqrt(15000 / 1125))
    # Larger runs keep the full-scale tolerance rather than tightening it.
    assert background_tolerance(40, 6000) == BACKGROUND_TOLERANCE
