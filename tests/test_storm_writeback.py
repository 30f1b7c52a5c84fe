"""The storm write-back of the classified path op.

While its stash is over the eviction threshold, ``_fused_single_access``
writes the path's own blocks first and then offers the stash only the slots
they left free, skipping the stash entirely when no stash leaf lies under a
free bucket.  These tests hold that split to the merged walk it replaces:
seeded storms on the flat stack must end bit-identical to the ``plain``
(generic op) and ``memmap-flat`` (column engine) stacks in all three modes
(data, position-map slot, dummy), and hand-built paths pin the subtree
test's boundaries.
"""

import pytest

from repro.analysis.sweep import utilization_config
from repro.backends import OramSpec, build_oram
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.types import Block
from tests.test_access_many import STACKS, build_stack, fingerprint, random_trace

#: Stacks the flat storm runs are compared across (memmap-flat needs NumPy).
TWINS = [name for name in ("flat", "plain", "memmap-flat") if name in STACKS]


@pytest.fixture
def storm_modes(monkeypatch):
    """Count the storm write-backs by mode and by whether they placed blocks."""
    modes: dict[tuple[str, bool], int] = {}
    mode = [None]
    real_op = PathORAM._fused_single_access
    real_offer = PathORAM._offer_free_slots

    def path_op(oram, address, leaf, new_leaf, is_write, data, slot, *rest):
        mode[0] = "dummy" if address is None else "data" if slot is None else "slot"
        return real_op(oram, address, leaf, new_leaf, is_write, data, slot, *rest)

    def offer(oram, *args):
        placed = real_offer(oram, *args)
        key = (mode[0], placed > 0)
        modes[key] = modes.get(key, 0) + 1
        return placed

    monkeypatch.setattr(PathORAM, "_fused_single_access", path_op)
    monkeypatch.setattr(PathORAM, "_offer_free_slots", offer)
    return modes


class TestStormDifferential:
    @pytest.mark.parametrize(
        "z, utilization, slack", [(1, 0.75, 20), (1, 0.8, 30), (2, 0.75, 4), (2, 0.8, 8)]
    )
    def test_flat_matches_plain_and_memmap(self, z, utilization, slack, storm_modes, tmp_path):
        config = utilization_config(z, utilization, 256, stash_slack=slack)
        spec = OramSpec(protocol="flat", eviction="background", livelock_limit=200_000)
        working_set = config.working_set_blocks
        trace = list(range(1, working_set + 1)) + random_trace(working_set, 600, seed=4)
        orams = [build_stack(spec.with_updates(storage=name), config, 3, tmp_path)
                 for name in TWINS]
        results = [oram.access_many(trace) for oram in orams]
        # The flat stack's storms took both exits of the subtree test.
        assert storm_modes.get(("dummy", True)) and storm_modes.get(("dummy", False))
        assert storm_modes.get(("data", True)) or storm_modes.get(("data", False))
        assert results[0].dummy_accesses > 0
        assert all(result == results[0] for result in results)
        assert all(fingerprint(oram) == fingerprint(orams[0]) for oram in orams)
        assert all(oram.stats == orams[0].stats for oram in orams)

    def test_hierarchy_position_map_storms(self, storm_modes, tmp_path):
        # A tight position-map stash keeps the Z=1 position-map ORAMs over
        # their threshold, so slot-mode accesses take the storm write-back.
        data = ORAMConfig(working_set_blocks=1024, z=3, block_bytes=64, stash_capacity=200)
        hierarchy = HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=1,
            position_map_stash_capacity=13,
            position_map_utilization=0.8,
            onchip_position_map_limit_bytes=32,
        )
        spec = OramSpec(protocol="hierarchical")
        trace = random_trace(1024, 1500, seed=2)
        orams = [build_stack(spec.with_updates(storage=name), hierarchy, 5, tmp_path)
                 for name in TWINS]
        results = [oram.access_many(trace) for oram in orams]
        assert storm_modes.get(("slot", True)) and storm_modes.get(("slot", False))
        assert storm_modes.get(("dummy", True))
        assert results[0].dummy_accesses > 0
        assert all(result == results[0] for result in results)
        assert all(fingerprint(oram) == fingerprint(orams[0]) for oram in orams)


#: A 5-level (16-leaf), Z=1 tree whose threshold is 0, so any stash block
#: puts the ORAM in the storm regime.
TINY = ORAMConfig(
    working_set_blocks=8, utilization=0.5, z=1, block_bytes=16, stash_capacity=5
)
#: The accessed path.  Levels 0 and 1 hold one block each whose deepest
#: level is exactly its own (leaves 0b1100 and 0b0010), so the write-back
#: keeps them there and the shallowest free bucket is level 2, covering
#: leaves [LO, HI) = [4, 8).
PATH_LEAF, LO, HI = 0b0110, 4, 8
PATH_BLOCKS = ((0, 1, 0b1100), (1, 2, 0b0010))


def tiny_twins(path_blocks, stash):
    """A flat and a plain ORAM holding ``path_blocks`` ((level, address,
    leaf) on :data:`PATH_LEAF`'s path) and ``stash`` ((address, leaf))."""
    orams = []
    for storage in ("flat", "plain"):
        oram = build_oram(OramSpec(protocol="flat", storage=storage), TINY, seed=1)
        assert TINY.levels == 4 and oram.eviction_threshold == 0
        path = oram.storage.path(PATH_LEAF)
        for level, address, leaf in path_blocks:
            oram.storage.write_bucket(path[level], [Block(address, leaf, address)])
        for address, leaf in stash:
            oram._stash.add(Block(address, leaf, address))
        orams.append(oram)
    return orams


def dummy_on_path(oram, leaf=PATH_LEAF):
    oram._path_op(oram, None, leaf, leaf, False, None, None, 0, 0, 0)


def bucket_addresses(oram, leaf=PATH_LEAF):
    return [[block.address for block in oram.storage.read_bucket(index)]
            for index in oram.storage.path(leaf)]


class TestSubtreeBoundaries:
    @pytest.mark.parametrize(
        "stash_leaf, landing",
        [(LO, 2), (HI - 1, 3), (HI, None)],
        ids=["lo", "hi-1", "hi"],
    )
    def test_stash_leaf_at_the_free_bucket_edges(self, stash_leaf, landing):
        flat, plain = tiny_twins(PATH_BLOCKS, [(3, stash_leaf)])
        for oram in (flat, plain):
            dummy_on_path(oram)
        expected = [[1], [2], [], []]
        if landing is None:
            assert flat.stash_addresses() == [3]
        else:
            expected[landing].append(3)
            assert flat.stash_addresses() == []
        assert bucket_addresses(flat)[:4] == expected
        assert fingerprint(flat) == fingerprint(plain)

    def test_free_root_takes_a_shallow_stash_block(self):
        # Empty path: the root is the shallowest free bucket, so every stash
        # leaf lies under it.  Of the two leaves sharing no prefix with the
        # path, the class cap (Z blocks for the root's class) collects only
        # the first in stash order, and that one lands at the root.
        flat, plain = tiny_twins((), [(3, 0b1011), (4, 0b0111), (5, 0b1111)])
        for oram in (flat, plain):
            dummy_on_path(oram)
        assert bucket_addresses(flat) == [[3], [], [], [4], []]
        assert flat.stash_addresses() == [5]
        assert fingerprint(flat) == fingerprint(plain)

    def test_stash_keys_change_at_constant_size(self):
        # The first write-back caches the stash's sorted leaves ({HI}: no
        # leaf under the free bucket).  Swapping that block for one under
        # the bucket keeps the stash size but must still be seen.
        flat, plain = tiny_twins(PATH_BLOCKS, [(3, HI)])
        for oram in (flat, plain):
            dummy_on_path(oram)
            assert oram.stash_addresses() == [3]
            oram._stash.pop(3)
            oram._stash.add(Block(4, LO, 4))
            dummy_on_path(oram)
        assert flat.stash_addresses() == []
        assert bucket_addresses(flat)[2] == [4]
        assert fingerprint(flat) == fingerprint(plain)
