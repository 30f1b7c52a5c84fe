"""Background eviction policies and super-block mapping tests."""

import random

import pytest

from repro.core.background_eviction import (
    BackgroundEviction,
    InsecureBlockRemapEviction,
    NoEviction,
)
from repro.core.config import ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.super_block import StaticSuperBlockMapper
from repro.errors import ConfigurationError, ReproError


class TestBackgroundEviction:
    def test_stash_kept_below_threshold_after_each_access(self):
        config = ORAMConfig(working_set_blocks=1024, z=2, block_bytes=16, stash_capacity=60)
        oram = PathORAM(config, eviction_policy=BackgroundEviction(), rng=random.Random(1))
        rng = random.Random(2)
        threshold = config.eviction_threshold
        for _ in range(1500):
            oram.access(rng.randrange(1, 1025))
            assert oram.stash_occupancy <= threshold

    def test_smaller_z_needs_more_dummy_accesses(self):
        # Figures 7/8: Z=1 issues far more dummy accesses than Z=4.  The
        # stash is kept tight (C = 60) so Z = 1 sees solid eviction pressure
        # within a short run; at C = 100 the seed measured only ~1% dummies,
        # which made the comparison hostage to tie-break order in the
        # write-back.
        ratios = {}
        for z in (1, 4):
            config = ORAMConfig(
                working_set_blocks=1024, z=z, block_bytes=16, stash_capacity=60
            )
            oram = PathORAM(config, eviction_policy=BackgroundEviction(), rng=random.Random(3))
            rng = random.Random(4)
            for _ in range(1200):
                oram.access(rng.randrange(1, 1025))
            ratios[z] = oram.stats.dummy_ratio
        assert ratios[1] > ratios[4]
        assert ratios[4] < 0.5

    def test_no_eviction_policy_never_issues_dummies(self, small_config, rng):
        oram = PathORAM(small_config, eviction_policy=NoEviction(), rng=rng)
        for address in range(1, 101):
            oram.access(address)
        assert oram.stats.dummy_accesses == 0

    def test_livelock_limit_raises(self):
        policy = BackgroundEviction(livelock_limit=1)

        class _StuckORAM:
            """An ORAM whose stash never drains."""

            def __init__(self):
                self.config = ORAMConfig(
                    working_set_blocks=1024, z=2, block_bytes=16, stash_capacity=60
                )
                self.stash_occupancy = 10_000

            def dummy_access(self):
                pass

        with pytest.raises(ReproError):
            policy.after_access(_StuckORAM())

    def test_invalid_livelock_limit_rejected(self):
        with pytest.raises(ConfigurationError, match="livelock_limit"):
            BackgroundEviction(livelock_limit=0)
        with pytest.raises(ConfigurationError, match="livelock_limit"):
            InsecureBlockRemapEviction(livelock_limit=0)

    def test_invalid_dummy_budget_rejected(self):
        policy = BackgroundEviction()
        for budget in (0, -3):
            with pytest.raises(ConfigurationError, match="dummy_budget"):
                policy.dummy_budget = budget
        assert policy.dummy_budget is None


class TestInsecureEviction:
    def test_insecure_eviction_also_bounds_stash(self):
        config = ORAMConfig(working_set_blocks=512, z=1, block_bytes=16, stash_capacity=20)
        oram = PathORAM(
            config,
            eviction_policy=InsecureBlockRemapEviction(rng=random.Random(9)),
            rng=random.Random(10),
        )
        rng = random.Random(11)
        for _ in range(800):
            oram.access(rng.randrange(1, 513))
            assert oram.stash_occupancy <= config.stash_capacity

    def test_insecure_eviction_preserves_data(self):
        config = ORAMConfig(working_set_blocks=128, z=1, block_bytes=16, stash_capacity=20)
        oram = PathORAM(
            config,
            eviction_policy=InsecureBlockRemapEviction(rng=random.Random(1)),
            rng=random.Random(2),
        )
        for address in range(1, 129):
            oram.write(address, address * 3)
        for address in range(1, 129):
            assert oram.read(address).data == address * 3


class TestStaticSuperBlockMapper:
    def test_size_one_maps_each_address_to_own_group(self):
        mapper = StaticSuperBlockMapper(1)
        assert mapper.group_of(1) == 0
        assert mapper.group_of(17) == 16
        assert mapper.addresses_in_group(4) == [5]

    def test_adjacent_addresses_share_group(self):
        mapper = StaticSuperBlockMapper(2)
        assert mapper.group_of(1) == mapper.group_of(2) == 0
        assert mapper.group_of(3) == mapper.group_of(4) == 1
        assert mapper.addresses_in_group(1) == [3, 4]

    def test_group_size_four(self):
        mapper = StaticSuperBlockMapper(4)
        assert mapper.addresses_in_group(0) == [1, 2, 3, 4]
        assert all(mapper.group_of(a) == 0 for a in (1, 2, 3, 4))
        assert mapper.group_of(5) == 1

    def test_num_groups_rounds_up(self):
        mapper = StaticSuperBlockMapper(4)
        assert mapper.num_groups(9) == 3
        assert mapper.num_groups(8) == 2

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticSuperBlockMapper(0)
        mapper = StaticSuperBlockMapper(2)
        with pytest.raises(ConfigurationError):
            mapper.group_of(0)
        with pytest.raises(ConfigurationError):
            mapper.addresses_in_group(-1)
        with pytest.raises(ConfigurationError):
            mapper.num_groups(0)


class TestSuperBlockORAMBehaviour:
    def test_super_block_members_share_leaf(self):
        config = ORAMConfig(
            working_set_blocks=256, z=4, block_bytes=32, stash_capacity=150,
            super_block_size=2,
        )
        oram = PathORAM(config, rng=random.Random(1))
        rng = random.Random(2)
        for _ in range(300):
            oram.access(rng.randrange(1, 257))
        # The position map is keyed by group, so both members trivially share
        # a leaf; additionally every tree-resident member must sit on that path.
        for bucket_index in range(config.num_buckets):
            for block in oram.storage.read_bucket(bucket_index):
                group = oram.super_block_mapper.group_of(block.address)
                leaf = oram.position_map.lookup(group)
                assert bucket_index in oram.storage.path(leaf)

    def test_super_block_access_returns_correct_data(self):
        config = ORAMConfig(
            working_set_blocks=64, z=4, block_bytes=32, stash_capacity=120,
            super_block_size=4,
        )
        oram = PathORAM(config, rng=random.Random(5))
        for address in range(1, 65):
            oram.write(address, address + 100)
        for address in range(1, 65):
            assert oram.read(address).data == address + 100

    def test_position_map_entries_shrink_with_super_blocks(self):
        base = ORAMConfig(working_set_blocks=256, z=4, stash_capacity=None)
        merged = base.with_updates(super_block_size=4)
        assert merged.position_map_entries == base.position_map_entries // 4
