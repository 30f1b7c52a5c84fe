"""Hierarchical (recursive) Path ORAM tests."""

import random

import pytest

from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.interface import ORAMMemoryInterface
from repro.core.types import Operation
from repro.errors import ConfigurationError


@pytest.fixture
def hierarchy() -> HierarchyConfig:
    data = ORAMConfig(working_set_blocks=512, z=4, block_bytes=64, stash_capacity=150)
    return HierarchyConfig(
        data_oram=data,
        position_map_block_bytes=8,
        position_map_z=3,
        onchip_position_map_limit_bytes=32,
        name="test",
    )


class TestConstruction:
    def test_has_multiple_orams(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(1))
        assert oram.num_orams == hierarchy.num_orams >= 2
        assert oram.data_oram is oram.orams[0]

    @pytest.mark.parametrize("limit", [0, -1])
    def test_livelock_limit_floor(self, hierarchy, limit):
        with pytest.raises(ConfigurationError, match="livelock_limit"):
            HierarchicalPathORAM(hierarchy, livelock_limit=limit)

    def test_onchip_position_map_sized_for_outermost_oram(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(1))
        outer = hierarchy.oram_configs[-1]
        assert len(oram.onchip_position_map) == outer.position_map_entries


class TestAccessCorrectness:
    def test_write_then_read(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(2))
        oram.write(10, "ten")
        assert oram.read(10).data == "ten"

    def test_random_workload_matches_reference(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(3))
        rng = random.Random(4)
        reference: dict[int, int] = {}
        working_set = hierarchy.data_oram.working_set_blocks
        for step in range(1500):
            address = rng.randrange(1, working_set + 1)
            if rng.random() < 0.5:
                reference[address] = step
                oram.write(address, step)
            else:
                result = oram.read(address)
                if address in reference:
                    assert result.data == reference[address]

    def test_every_address_reachable(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(5))
        working_set = hierarchy.data_oram.working_set_blocks
        for address in range(1, working_set + 1, 37):
            oram.write(address, address)
        for address in range(1, working_set + 1, 37):
            assert oram.read(address).data == address

    def test_stats_count_hierarchical_accesses(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(6))
        for address in range(1, 31):
            oram.access(address, Operation.READ)
        assert oram.stats.real_accesses == 30
        # Every hierarchical access touches every ORAM in the chain once.
        for underlying in oram.orams:
            assert underlying.stats.real_accesses == 30

    def test_stashes_stay_bounded(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(7))
        rng = random.Random(8)
        working_set = hierarchy.data_oram.working_set_blocks
        for _ in range(800):
            oram.access(rng.randrange(1, working_set + 1))
            for underlying in oram.orams:
                capacity = underlying.config.stash_capacity
                assert capacity is None or underlying.stash_occupancy <= capacity


class TestExclusiveInterface:
    def test_extract_insert_roundtrip(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(9))
        oram.write(5, "five")
        extracted = oram.extract(5)
        assert extracted[5] == "five"
        # The block is no longer resident: a second extract misses.
        assert oram.extract(5)[5] is None
        oram.insert(5, "five-again")
        assert oram.read(5).data == "five-again"

    def test_interface_counts_fetches_and_writebacks(self, hierarchy):
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(10))
        interface = ORAMMemoryInterface(oram)
        interface.fetch(1)
        interface.fetch(2)
        interface.writeback(1)
        assert interface.stats.fetches == 2
        assert interface.stats.writebacks == 1
        assert interface.real_accesses() >= 2

    def test_super_block_prefetch_through_interface(self):
        data = ORAMConfig(
            working_set_blocks=256, z=4, block_bytes=64, stash_capacity=150,
            super_block_size=2,
        )
        hierarchy = HierarchyConfig(
            data_oram=data, position_map_block_bytes=8,
            onchip_position_map_limit_bytes=64,
        )
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(11))
        interface = ORAMMemoryInterface(oram)
        fetched = interface.fetch(1)
        assert set(fetched) == {1, 2}
        assert interface.super_block_size == 2
        assert interface.stats.prefetched_lines == 1


class TestSingleLevelDegenerateHierarchy:
    def test_single_oram_hierarchy_works(self):
        data = ORAMConfig(working_set_blocks=128, z=4, block_bytes=32, stash_capacity=100)
        hierarchy = HierarchyConfig(
            data_oram=data, onchip_position_map_limit_bytes=1 << 20
        )
        assert hierarchy.num_orams == 1
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(12))
        for address in range(1, 129):
            oram.write(address, -address)
        for address in range(1, 129):
            assert oram.read(address).data == -address
