"""Access statistics and the paper's overhead metrics (Equations 1 and 2)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class AccessStats:
    """Counters accumulated by a :class:`~repro.core.path_oram.PathORAM`.

    The paper's primary metric (Equation 1) is::

        Access_Overhead = (RA + DA) / RA * 2 (L + 1) M / B

    where ``RA`` is the number of real accesses, ``DA`` the number of dummy
    accesses injected by background eviction, ``M`` the (padded) bucket size
    and ``B`` the block size.
    """

    real_accesses: int = 0
    dummy_accesses: int = 0
    path_reads: int = 0
    path_writes: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    #: Logical accesses served without a physical path operation because the
    #: position-map chain coalesced them into an earlier path op on the same
    #: block (see HierarchicalPathORAM's ``plb_entries_per_level``).
    coalesced_ops: int = 0
    #: PosMap Lookaside Buffer outcomes (see :class:`~repro.core.plb.
    #: PosMapLookaside`): a hit means this ORAM's path op for a recursive
    #: position-map lookup was served from the cached label list (the op —
    #: and every op above it in the chain — was skipped); a miss means the
    #: lookup fell through to a physical path op.  A capacity-1 PLB (the
    #: single-entry memo) counts here the same way.
    plb_hits: int = 0
    plb_misses: int = 0
    #: Dynamic super-block events (see
    #: :class:`~repro.core.super_block.DynamicSuperBlockMapper`): groups
    #: merged with their buddy, groups split back into halves, and accesses
    #: that found their block co-resident with a multi-member group (the
    #: accesses whose path op carried the whole group — the prefetch wins).
    super_block_merges: int = 0
    super_block_splits: int = 0
    super_block_hits: int = 0
    #: Distinct stash leaves the write-backs bucketed by deepest level
    #: (:meth:`~repro.core.path_oram.PathORAM._pool_stash`), summed over
    #: calls: the stash work a write-back paid.  The path ops pool the stash
    #: under different rules, so it is left out of equality and
    #: :meth:`fingerprint`.
    stash_leaves_examined: int = field(default=0, compare=False)
    stash_occupancy_samples: list[int] = field(default_factory=list)
    record_occupancy: bool = False

    def __setstate__(self, state: tuple) -> None:
        # Pickles made before ``stash_leaves_examined`` existed lack it.
        self.stash_leaves_examined = 0
        for name, value in state[1].items():
            setattr(self, name, value)

    def record_real_access(self) -> None:
        self.real_accesses += 1

    def record_dummy_access(self) -> None:
        self.dummy_accesses += 1

    def record_path_read(self, real_blocks: int) -> None:
        self.path_reads += 1
        self.blocks_read += real_blocks

    def record_path_write(self, real_blocks: int) -> None:
        self.path_writes += 1
        self.blocks_written += real_blocks

    def sample_stash_occupancy(self, occupancy: int) -> None:
        if self.record_occupancy:
            self.stash_occupancy_samples.append(occupancy)

    @property
    def total_accesses(self) -> int:
        """Real plus dummy accesses."""
        return self.real_accesses + self.dummy_accesses

    @property
    def dummy_ratio(self) -> float:
        """Dummy accesses per real access (the Figure 7 metric)."""
        if self.real_accesses == 0:
            return 0.0
        return self.dummy_accesses / self.real_accesses

    def access_overhead(self, levels: int, bucket_bits: int, block_bits: int) -> float:
        """Equation 1: data moved per useful bit, including dummy accesses."""
        theoretical = 2 * (levels + 1) * bucket_bits / block_bits
        if self.real_accesses == 0:
            return theoretical
        return (self.real_accesses + self.dummy_accesses) / self.real_accesses * theoretical

    def fingerprint(self) -> tuple:
        """Deterministic tuple of every counter (occupancy samples included).

        Used by the checkpoint/resume tests to assert that a restored run
        ends with bit-identical statistics to an uninterrupted one.
        """
        return (
            self.real_accesses,
            self.dummy_accesses,
            self.path_reads,
            self.path_writes,
            self.blocks_read,
            self.blocks_written,
            self.coalesced_ops,
            self.plb_hits,
            self.plb_misses,
            self.super_block_merges,
            self.super_block_splits,
            self.super_block_hits,
            tuple(self.stash_occupancy_samples),
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.real_accesses = 0
        self.dummy_accesses = 0
        self.path_reads = 0
        self.path_writes = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.coalesced_ops = 0
        self.plb_hits = 0
        self.plb_misses = 0
        self.super_block_merges = 0
        self.super_block_splits = 0
        self.super_block_hits = 0
        self.stash_leaves_examined = 0
        self.stash_occupancy_samples.clear()
