"""ORAMConfig and HierarchyConfig tests."""

import math

import pytest

from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.presets import (
    PAPER_WORKING_SET_BLOCKS,
    base_oram,
    dz3pb12,
    dz3pb32,
    dz4pb32,
    make_hierarchy,
    scaled_working_set_blocks,
)
from repro.errors import ConfigurationError


class TestDerivedGeometry:
    def test_total_blocks_follows_utilization(self):
        config = ORAMConfig(working_set_blocks=1000, utilization=0.25, z=4)
        assert config.total_blocks == 4000

    def test_levels_cover_required_buckets(self):
        config = ORAMConfig(working_set_blocks=1000, utilization=0.5, z=4)
        assert config.num_buckets >= math.ceil(config.total_blocks / config.z)
        # And one fewer level would not suffice.
        assert (1 << config.levels) - 1 < math.ceil(config.total_blocks / config.z)

    def test_num_leaves_and_buckets_consistent(self):
        config = ORAMConfig(working_set_blocks=500, z=2)
        assert config.num_buckets == 2 * config.num_leaves - 1
        assert config.num_levels == config.levels + 1

    def test_capacity_at_least_total_blocks(self):
        for z in (1, 2, 3, 4, 8):
            config = ORAMConfig(working_set_blocks=777, z=z, stash_capacity=None)
            assert config.capacity_blocks >= config.total_blocks

    def test_paper_scale_data_oram_geometry(self):
        # 4 GB working set of 128-byte blocks at 50% utilization => 8 GB ORAM.
        config = ORAMConfig(working_set_blocks=PAPER_WORKING_SET_BLOCKS, z=4)
        assert config.total_blocks == 2 * PAPER_WORKING_SET_BLOCKS
        assert config.levels == 24
        assert config.address_bits == 26

    def test_blocks_per_path(self):
        config = ORAMConfig(working_set_blocks=100, z=3, stash_capacity=None)
        assert config.blocks_per_path == 3 * (config.levels + 1)


class TestBucketSizing:
    def test_counter_bucket_bits(self):
        config = ORAMConfig(working_set_blocks=1 << 20, z=4, block_bytes=128)
        expected = 4 * (config.leaf_bits + config.address_bits + 1024) + 64
        assert config.bucket_bits == expected

    def test_strawman_bucket_bits_larger(self):
        counter = ORAMConfig(working_set_blocks=1 << 16, z=4, encryption="counter")
        strawman = counter.with_updates(encryption="strawman")
        assert strawman.bucket_bits > counter.bucket_bits

    def test_bucket_padded_to_dram_granularity(self):
        config = ORAMConfig(working_set_blocks=1 << 16, z=3, block_bytes=128)
        assert config.bucket_bytes % 64 == 0
        assert config.bucket_bytes * 8 >= config.bucket_bits

    def test_small_pmap_blocks_share_padded_size(self):
        # The paper notes 16-byte and 32-byte position-map blocks both pad
        # to a 128-byte bucket (Section 4.1.5).
        pb16 = ORAMConfig(working_set_blocks=1 << 20, z=3, block_bytes=16, stash_capacity=None)
        pb32 = ORAMConfig(working_set_blocks=1 << 20, z=3, block_bytes=32, stash_capacity=None)
        assert pb16.bucket_bytes == pb32.bucket_bytes == 128

    def test_path_bytes(self):
        config = ORAMConfig(working_set_blocks=4096, z=4)
        assert config.path_bytes == (config.levels + 1) * config.bucket_bytes


class TestValidation:
    def test_zero_working_set_rejected(self):
        with pytest.raises(ConfigurationError):
            ORAMConfig(working_set_blocks=0)

    def test_bad_utilization_rejected(self):
        with pytest.raises(ConfigurationError):
            ORAMConfig(working_set_blocks=10, utilization=0.0)
        with pytest.raises(ConfigurationError):
            ORAMConfig(working_set_blocks=10, utilization=1.5)

    def test_bad_z_rejected(self):
        with pytest.raises(ConfigurationError):
            ORAMConfig(working_set_blocks=10, z=0)

    def test_unknown_encryption_rejected(self):
        with pytest.raises(ConfigurationError):
            ORAMConfig(working_set_blocks=10, encryption="rot13")

    def test_stash_smaller_than_path_rejected(self):
        with pytest.raises(ConfigurationError):
            ORAMConfig(working_set_blocks=1 << 16, z=4, stash_capacity=10)

    def test_eviction_threshold(self):
        config = ORAMConfig(working_set_blocks=1 << 14, z=4, stash_capacity=200)
        assert config.eviction_threshold == 200 - config.blocks_per_path
        unbounded = config.with_updates(stash_capacity=None)
        assert unbounded.eviction_threshold is None


class TestConstructors:
    def test_with_updates_preserves_other_fields(self):
        config = ORAMConfig(working_set_blocks=512, z=3, name="orig")
        updated = config.with_updates(z=4)
        assert updated.z == 4
        assert updated.working_set_blocks == 512
        assert updated.name == "orig"

    def test_describe_mentions_key_parameters(self):
        text = ORAMConfig(working_set_blocks=512, z=3, name="demo").describe()
        assert "Z=3" in text and "demo" in text


class TestHierarchyConfig:
    def test_recursion_terminates_below_limit(self, small_hierarchy):
        configs = small_hierarchy.oram_configs
        assert configs[-1].position_map_bits <= small_hierarchy.onchip_position_map_limit_bytes * 8
        assert small_hierarchy.num_orams == len(configs)

    def test_intermediate_maps_exceed_limit(self, small_hierarchy):
        # Every ORAM except the last must have needed another level.
        for config in small_hierarchy.oram_configs[:-1]:
            assert config.position_map_bits > small_hierarchy.onchip_position_map_limit_bytes * 8

    def test_position_map_capacity_chain(self, small_hierarchy):
        configs = small_hierarchy.oram_configs
        for parent_index in range(1, len(configs)):
            child = configs[parent_index - 1]
            parent = configs[parent_index]
            k = small_hierarchy.labels_per_position_block(child)
            assert parent.working_set_blocks * k >= child.position_map_entries

    def test_single_oram_when_map_fits(self):
        config = ORAMConfig(working_set_blocks=128, z=4, block_bytes=32, stash_capacity=None)
        hierarchy = HierarchyConfig(data_oram=config, onchip_position_map_limit_bytes=1 << 20)
        assert hierarchy.num_orams == 1

    def test_too_small_pmap_block_rejected(self):
        config = ORAMConfig(working_set_blocks=1 << 20, z=4)
        hierarchy = HierarchyConfig(data_oram=config, position_map_block_bytes=1)
        with pytest.raises(ConfigurationError):
            _ = hierarchy.oram_configs

    def test_describe_lists_every_oram(self, small_hierarchy):
        text = small_hierarchy.describe()
        assert text.count("ORAM") >= small_hierarchy.num_orams


class TestPresets:
    def test_scaled_working_set(self):
        assert scaled_working_set_blocks(1.0) == PAPER_WORKING_SET_BLOCKS
        assert scaled_working_set_blocks(1 / 1024) == PAPER_WORKING_SET_BLOCKS // 1024

    def test_base_oram_uses_strawman_and_z4(self):
        hierarchy = base_oram(1 / 1024)
        assert hierarchy.data_oram.z == 4
        assert hierarchy.data_oram.encryption == "strawman"
        assert hierarchy.position_map_block_bytes == 128

    def test_dz3pb32_uses_counter_and_z3(self):
        hierarchy = dz3pb32(1 / 1024)
        assert hierarchy.data_oram.z == 3
        assert hierarchy.data_oram.encryption == "counter"
        assert hierarchy.position_map_block_bytes == 32

    def test_dz4pb32_z(self):
        assert dz4pb32(1 / 1024).data_oram.z == 4

    def test_paper_scale_hierarchy_position_map_under_200kb(self):
        hierarchy = dz3pb32(1.0)
        assert hierarchy.onchip_position_map_bits / 8 <= 200 * 1024

    def test_smaller_pmap_blocks_need_more_orams(self):
        assert dz3pb12(1.0).num_orams >= dz3pb32(1.0).num_orams

    def test_super_block_size_propagates(self):
        hierarchy = make_hierarchy(scale=1 / 1024, super_block_size=2)
        assert hierarchy.data_oram.super_block_size == 2
