"""Stash-occupancy distribution study (Figure 3, Section 2.5.1).

With an unbounded stash and no background eviction, the number of blocks
left in the stash after each access is recorded; the tail probability
``P(occupancy >= m)`` equals the failure probability of a stash of size
``m``.  The paper runs this for Z = 1..4 on a 4 GB ORAM with a 2 GB working
set; the driver here takes the working-set size as a parameter so the
benchmark can run a scaled-down version with the same shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.backends import OramSpec, build_oram
from repro.core.config import ORAMConfig
from repro.runner import (
    ExperimentRunner,
    ExperimentSpec,
    ProgressCallback,
    derive_seed,
)

#: The scenario of the Figure 3 study: a single fast-path ORAM, unbounded
#: stash, no background eviction.
OCCUPANCY_SPEC = OramSpec(protocol="flat", storage="flat", eviction="none")


@dataclass
class StashOccupancyResult:
    """Occupancy samples for one value of Z."""

    z: int
    samples: list[int]

    @property
    def max_occupancy(self) -> int:
        return max(self.samples) if self.samples else 0

    def tail_probability(self, threshold: int) -> float:
        """``P(occupancy >= threshold)`` over the sampled accesses."""
        if not self.samples:
            return 0.0
        exceeding = sum(1 for value in self.samples if value >= threshold)
        return exceeding / len(self.samples)

    def tail_curve(self, thresholds: list[int]) -> list[tuple[int, float]]:
        """The Figure 3 curve: ``(m, P(occupancy >= m))`` points."""
        return [(m, self.tail_probability(m)) for m in thresholds]


def run_stash_occupancy_experiment(
    z: int,
    working_set_blocks: int,
    num_accesses: int | None = None,
    utilization: float = 0.5,
    seed: int = 0,
) -> StashOccupancyResult:
    """Measure stash occupancy for one Z with an unbounded stash.

    ``num_accesses`` defaults to ``10 * N`` (the paper's setting) where N is
    the working-set size in blocks.
    """
    config = ORAMConfig(
        working_set_blocks=working_set_blocks,
        utilization=utilization,
        z=z,
        block_bytes=128,
        stash_capacity=None,
        name=f"fig3-z{z}",
    )
    oram = build_oram(OCCUPANCY_SPEC, config, rng=random.Random(seed))
    oram.stats.record_occupancy = True
    total = num_accesses if num_accesses is not None else 10 * working_set_blocks
    # The workload stream is its own derived RNG so the whole trace can be
    # pregenerated and consumed by one fused access_many call.
    trace_rng = random.Random(derive_seed(seed, ("fig3-trace", z)))
    randrange = trace_rng.randrange
    oram.access_many(
        [randrange(1, working_set_blocks + 1) for _ in range(total)]
    )
    return StashOccupancyResult(z=z, samples=list(oram.stats.stash_occupancy_samples))


def run_stash_occupancy_sweep(
    z_values: list[int],
    working_set_blocks: int,
    num_accesses: int | None = None,
    utilization: float = 0.5,
    seed: int = 0,
    executor: str = "serial",
    max_workers: int | None = None,
    progress: ProgressCallback | None = None,
) -> dict[int, StashOccupancyResult]:
    """Figure 3: the occupancy distribution for each Z.

    Each Z is an independent simulation (seeded ``seed + z`` as before), so
    ``executor="process"`` runs them in parallel with identical results.
    """
    specs = [
        ExperimentSpec(
            key=("fig3", z),
            fn=run_stash_occupancy_experiment,
            kwargs={
                "z": z,
                "working_set_blocks": working_set_blocks,
                "num_accesses": num_accesses,
                "utilization": utilization,
            },
            seed=seed + z,
        )
        for z in z_values
    ]
    runner = ExperimentRunner(
        executor=executor, max_workers=max_workers, progress=progress
    )
    results = runner.run_values(specs)
    return {z: result for z, result in zip(z_values, results)}
