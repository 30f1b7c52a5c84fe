"""The created-block write-back of the classified path op.

When a miss creates the accessed block and the stash is otherwise empty,
``_fused_single_access`` keeps the block out of the stash, runs the
buffer-only placement, and then puts the block in the deepest bucket at or
above its class that has a free slot, after that bucket's buffer blocks;
with no free slot it enters the stash ahead of any spilled buffer blocks.
That is the merged walk's choice for a one-block stash, so these tests hold
fresh ``flat`` fills to their ``plain`` twins (the generic op, which always
stashes the created block first): same tree, stash order, leaf buckets,
high-water mark, statistics and RNG state.  Hand-built paths pin each exit
of the placement, and ``stash_leaves_examined`` shows the stash walk the
rule saves.
"""

import pickle

import pytest

from repro.analysis.sweep import SWEEP_SPEC, utilization_config
from repro.backends import OramSpec, build_oram
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.stats import AccessStats
from repro.core.types import Operation
from tests.test_access_many import fingerprint
from tests.test_storm_writeback import PATH_LEAF, tiny_twins


def stash_view(oram):
    """Insertion order of the stash and of its leaf buckets."""
    stash = oram._stash
    return (
        [block.address for block in stash],
        [(leaf, [block.address for block in group]) for leaf, group in stash.leaf_groups()],
    )


def full_state(oram):
    """Everything the twins must agree on, per ORAM of a hierarchy."""
    orams = oram.orams if isinstance(oram, HierarchicalPathORAM) else [oram]
    return (
        fingerprint(oram),
        [stash_view(sub) for sub in orams],
        [sub.stats for sub in orams],
        [sub.max_stash_occupancy for sub in orams],
        orams[0]._rng.getstate(),
    )


def leaves_examined(oram):
    orams = oram.orams if isinstance(oram, HierarchicalPathORAM) else [oram]
    return sum(sub.stats.stash_leaves_examined for sub in orams)


def twins(spec, config, seed=3):
    return [build_oram(spec.with_updates(storage=name), config, seed=seed)
            for name in ("flat", "plain")]


#: A Figure 8 sweep point small enough for tier-1, with an eviction
#: threshold of 0: the fill runs background-eviction storms, and any stash
#: block at all puts the merged walk's twin in the storm write-back.
FILL_CONFIG = utilization_config(4, 0.8, 256, stash_slack=0)

FILLS = {
    "reads with create": lambda oram, n: [oram.access(a) for a in range(1, n + 1)],
    "writes": lambda oram, n: [
        oram.access(a, Operation.WRITE, bytes([a % 256]) * 4) for a in range(1, n + 1)
    ],
    "access_many reads": lambda oram, n: oram.access_many(range(1, n + 1)),
    "access_many writes": lambda oram, n: oram.access_many(
        range(1, n + 1), Operation.WRITE, b"fill"
    ),
}


class TestFreshFillDifferential:
    @pytest.mark.parametrize("fill", sorted(FILLS))
    def test_flat_fill_matches_plain(self, fill):
        flat, plain = twins(SWEEP_SPEC, FILL_CONFIG)
        working_set = FILL_CONFIG.working_set_blocks
        for oram in (flat, plain):
            FILLS[fill](oram, working_set)
            # Continue past the fill, where hits and stash blocks mix in.
            oram.access_many([(a * 7) % working_set + 1 for a in range(300)])
        assert flat.stats.dummy_accesses > 0
        assert full_state(flat) == full_state(plain)
        assert flat.stats.stash_leaves_examined < plain.stats.stash_leaves_examined

    def test_hierarchy_slot_mode_fill_matches_plain(self):
        # Position-map blocks are created in slot mode on first touch.
        data = ORAMConfig(working_set_blocks=1024, z=3, block_bytes=64, stash_capacity=200)
        hierarchy = HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=2,
            position_map_stash_capacity=40,
            onchip_position_map_limit_bytes=32,
        )
        flat, plain = twins(OramSpec(protocol="hierarchical"), hierarchy, seed=5)
        assert flat.num_orams > 2
        for oram in (flat, plain):
            oram.access_many(range(1, 1025))
            oram.access_many(range(1024, 0, -3), Operation.WRITE, b"x")
        assert full_state(flat) == full_state(plain)
        assert leaves_examined(flat) < leaves_examined(plain)


#: ``new_leaf`` per class on PATH_LEAF's path (class = deepest legal level).
#: The twins are the storm tests' hand-built ones, whose eviction threshold
#: is 0: the created block alone, once stashed, puts the ORAM over it.
NEW_LEAF = {0: 0b1001, 1: 0b0001, 2: 0b0101, 3: 0b0111, 4: 0b0110}

#: (path blocks as (level, address, leaf), class of the created block,
#: where it must land: a level, or "stash").  Address 8 is the one created.
PLACEMENTS = {
    "empty path, lands at its class": ((), 3, 3),
    "class bucket full, lands one up": (((3, 1, 0b0110), (4, 2, 0b0110)), 3, 2),
    "every bucket up to its class full": (((0, 1, 0b1100), (1, 2, 0b0010)), 1, "stash"),
    "full root, deepest class": (((0, 1, 0b1100),), 4, 4),
    # Two class-0 blocks compete for the root (the one at level 2 sits
    # deeper than its class allows, which no protocol run leaves), so the
    # root takes the later-read one and block 1 spills in the same op: the
    # created block must enter the stash first.
    "buffer spill in the same op": (((0, 1, 0b1100), (2, 2, 0b1000)), 0, "stash"),
}


class TestPlacementEdges:
    @pytest.mark.parametrize("case", sorted(PLACEMENTS))
    @pytest.mark.parametrize("op", [Operation.READ, Operation.WRITE])
    def test_created_block_lands_where_the_merged_walk_puts_it(self, case, op):
        path_blocks, klass, where = PLACEMENTS[case]
        flat, plain = tiny_twins(path_blocks, ())
        for oram in (flat, plain):
            oram.access_path(8, PATH_LEAF, NEW_LEAF[klass], op, b"new")
        assert full_state(flat) == full_state(plain)
        assert flat.stats.stash_leaves_examined == 0
        assert plain.stats.stash_leaves_examined == 1
        if where == "stash":
            assert stash_view(flat)[0][0] == 8
        else:
            bucket = flat.storage.read_bucket(flat.storage.path(PATH_LEAF)[where])
            assert [block.address for block in bucket][-1] == 8
            assert flat.max_stash_occupancy >= 1
        if case == "buffer spill in the same op":
            assert stash_view(flat)[0] == [8, 1]


class TestStashLeavesExamined:
    def test_figure8_fill_examines_a_small_fraction(self):
        config = utilization_config(4, 0.5, 2048, stash_slack=25)
        examined = {}
        for storage in ("flat", "plain"):
            oram = build_oram(SWEEP_SPEC.with_updates(storage=storage), config, seed=1)
            oram.access_many(range(1, config.working_set_blocks + 1))
            examined[storage] = oram.stats.stash_leaves_examined
        # The generic op pools every created block through the stash (2,079
        # leaves here); the classified op only the fills that met a
        # non-empty stash (58).
        assert 0 < examined["flat"] * 20 < examined["plain"]

    def test_reset_zeroes_and_fingerprint_ignores_it(self):
        stats = AccessStats(real_accesses=3, stash_leaves_examined=7)
        assert stats.fingerprint() == AccessStats(real_accesses=3).fingerprint()
        assert stats == AccessStats(real_accesses=3)
        stats.reset()
        assert stats.stash_leaves_examined == 0

    def test_stats_pickled_without_the_counter_restore_it_as_zero(self):
        stats = AccessStats(real_accesses=5, path_reads=6)
        del stats.stash_leaves_examined  # the layout before the counter
        restored = pickle.loads(pickle.dumps(stats))
        assert restored.stash_leaves_examined == 0
        assert restored.fingerprint() == AccessStats(real_accesses=5, path_reads=6).fingerprint()
        restored.stash_leaves_examined += 1
        assert pickle.loads(pickle.dumps(restored)).stash_leaves_examined == 1
