"""The common-path-length (CPL) attack on eviction schemes (Section 3.1.3).

For two uniformly random paths the number of shared buckets follows
``P(CPL = l) = 2^-l`` for ``1 <= l <= L`` and ``2^-L`` for ``l = L+1``, with
expectation ``2 - 2^-L``.  A secure ORAM's observable path sequence must
match this; the insecure block-remapping eviction scheme accesses the path
of a block that failed to evict, which is negatively correlated with the
previous access, pulling the average CPL measurably below the expectation.
Figure 4 runs this attack 100 times against both schemes on a small ORAM
(L = 5, Z = 1, eviction threshold 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.backends import OramSpec, build_oram
from repro.core.config import ORAMConfig
from repro.core.path_oram import leaf_common_path_length
from repro.errors import ConfigurationError, ReproError


def cpl_distribution(levels: int) -> dict[int, float]:
    """Theoretical distribution of CPL between two uniformly random paths."""
    if levels < 1:
        raise ConfigurationError("levels must be >= 1")
    distribution = {length: 2.0 ** -length for length in range(1, levels + 1)}
    distribution[levels + 1] = 2.0 ** -levels
    return distribution


def expected_common_path_length(levels: int) -> float:
    """``E[CPL] = 2 - 2^-L`` for uniformly random paths."""
    if levels < 1:
        raise ConfigurationError("levels must be >= 1")
    return 2.0 - 2.0 ** -levels


def average_common_path_length(path_trace: Sequence[int], levels: int) -> float:
    """Average CPL between consecutive accesses in an observed path trace."""
    if len(path_trace) < 2:
        raise ConfigurationError("need at least two accesses to compute CPL")
    total = 0
    for previous, current in zip(path_trace, path_trace[1:]):
        total += leaf_common_path_length(previous, current, levels)
    return total / (len(path_trace) - 1)


@dataclass(frozen=True)
class CPLAttackResult:
    """Outcome of one CPL attack experiment.

    ``average_cpl`` is the mean CPL over every pair of consecutive observed
    paths (the quantity Figure 4 plots).  ``trigger_pair_cpl`` restricts the
    average to pairs formed by a real access and the eviction access it
    triggered — the pairs the paper's leakage argument is about.  At the
    scaled-down ORAM sizes used here, chains of consecutive eviction
    accesses (rare in the paper's setting) are positively correlated and
    partially mask the leak in the overall mean, so the trigger-pair
    statistic is the more faithful detector; both are reported.
    """

    scheme: str
    average_cpl: float
    trigger_pair_cpl: float
    expected_cpl: float
    num_observed_paths: int
    num_trigger_pairs: int

    @property
    def deviation(self) -> float:
        """How far the trigger-pair average falls below the uniform expectation."""
        return self.expected_cpl - self.trigger_pair_cpl


def _attack_oram_config() -> ORAMConfig:
    """The paper's Figure 4 setup: L = 5, Z = 1, eviction threshold 2."""
    # Z = 1 with 62 total slots needs 62 buckets, i.e. a tree of L = 5.
    config = ORAMConfig(
        working_set_blocks=31,
        utilization=0.5,
        z=1,
        block_bytes=16,
        stash_capacity=None,  # replaced below once L is known
        name="cpl-attack",
    )
    threshold = 2
    return config.with_updates(stash_capacity=config.blocks_per_path + threshold)


def run_cpl_experiment(
    scheme: str,
    num_accesses: int = 2000,
    rng: random.Random | None = None,
) -> CPLAttackResult:
    """Run one attack experiment against an eviction scheme.

    Parameters
    ----------
    scheme:
        ``"background"`` for the paper's secure dummy-access eviction or
        ``"insecure"`` for the block-remapping scheme.
    num_accesses:
        Number of real accesses in the adversarially chosen workload (a
        memory scan, which stresses eviction the most).
    rng:
        Random source; seed for reproducibility.
    """
    if rng is None:
        rng = random.Random()
    config = _attack_oram_config()
    if scheme not in ("background", "insecure"):
        raise ConfigurationError(f"unknown eviction scheme: {scheme!r}")
    oram = build_oram(
        OramSpec(
            protocol="flat", storage="flat", eviction=scheme, record_path_trace=True
        ),
        config,
        rng=rng,
    )
    working_set = config.working_set_blocks
    trigger_pairs: list[int] = []
    for index in range(num_accesses):
        # A memory scan fills the stash fastest (Section 3.1.1), maximising
        # the number of eviction-induced accesses the adversary observes.
        address = index % working_set + 1
        before = len(oram.path_trace)
        try:
            oram.access(address)
        except ReproError:
            # Z = 1 configurations can wedge (Section 2.5.1: Z <= 2 "always
            # fails"); the paths observed so far are still a valid sample.
            break
        trace = oram.path_trace
        # The first path observed for this access is the real access; any
        # further paths are eviction accesses.  The pair (real access,
        # first eviction access) is the one the paper's argument targets.
        if len(trace) > before + 1:
            trigger_pairs.append(
                leaf_common_path_length(trace[before], trace[before + 1], config.levels)
            )

    average = average_common_path_length(oram.path_trace, config.levels)
    expected = expected_common_path_length(config.levels)
    trigger_average = (
        sum(trigger_pairs) / len(trigger_pairs) if trigger_pairs else expected
    )
    return CPLAttackResult(
        scheme=scheme,
        average_cpl=average,
        trigger_pair_cpl=trigger_average,
        expected_cpl=expected,
        num_observed_paths=len(oram.path_trace),
        num_trigger_pairs=len(trigger_pairs),
    )


def run_cpl_attack_series(
    scheme: str,
    num_experiments: int = 100,
    num_accesses: int = 2000,
    seed: int = 0,
) -> list[CPLAttackResult]:
    """Repeat the attack ``num_experiments`` times (the Figure 4 series)."""
    results = []
    for index in range(num_experiments):
        rng = random.Random(seed + index)
        results.append(run_cpl_experiment(scheme, num_accesses=num_accesses, rng=rng))
    return results
