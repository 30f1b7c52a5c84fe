"""PathORAM protocol tests: correctness, invariants, eviction, failure."""

import random

import pytest

from repro.backends import OramSpec
from repro.core.background_eviction import BackgroundEviction, NoEviction
from repro.core.config import ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.tree import EncryptedTreeStorage
from repro.core.types import Operation
from repro.crypto.bucket_encryption import CounterBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.errors import ConfigurationError, StashOverflowError
from tests.test_access_many import STACKS, build_stack, fingerprint


def check_invariant(oram: PathORAM) -> None:
    """Every block must lie on the path to its mapped leaf, or in the stash."""
    config = oram.config
    mapper = oram.super_block_mapper
    seen: set[int] = set()
    for bucket_index in range(config.num_buckets):
        for block in oram.storage.read_bucket(bucket_index):
            assert block.address not in seen, "duplicate block in tree"
            seen.add(block.address)
            leaf = oram.position_map.lookup(mapper.group_of(block.address))
            assert bucket_index in oram.storage.path(leaf), (
                f"block {block.address} stored off its mapped path"
            )
    for address in oram.stash_addresses():
        assert address not in seen, "block duplicated between stash and tree"


class TestBasicAccess:
    def test_write_then_read(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        oram.write(1, "hello")
        assert oram.read(1).data == "hello"

    def test_read_of_never_written_address(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        result = oram.read(17)
        assert result.found is False
        assert result.data is None

    def test_many_writes_and_reads(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        reference: dict[int, int] = {}
        for step in range(2000):
            address = rng.randrange(1, small_config.working_set_blocks + 1)
            if rng.random() < 0.5:
                reference[address] = step
                oram.write(address, step)
            else:
                expected = reference.get(address)
                result = oram.read(address)
                if expected is not None:
                    assert result.data == expected

    def test_overwrite_replaces_value(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        oram.write(5, "first")
        oram.write(5, "second")
        assert oram.read(5).data == "second"

    def test_out_of_range_address_rejected(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        with pytest.raises(ConfigurationError):
            oram.access(0)
        with pytest.raises(ConfigurationError):
            oram.access(small_config.working_set_blocks + 1)

    def test_access_remaps_block_to_new_leaf(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        oram.write(1, "x")
        leaves = set()
        for _ in range(30):
            oram.read(1)
            leaves.add(oram.position_map.lookup(oram.super_block_mapper.group_of(1)))
        # With many remaps over many leaves, we should see several leaves.
        assert len(leaves) > 3

    def test_invariant_holds_after_random_workload(self, tiny_config, rng):
        oram = PathORAM(tiny_config, rng=rng)
        for _ in range(500):
            address = rng.randrange(1, tiny_config.working_set_blocks + 1)
            oram.access(address, Operation.WRITE, address)
        check_invariant(oram)

    def test_stats_count_real_accesses(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        for address in range(1, 51):
            oram.read(address)
        assert oram.stats.real_accesses == 50
        assert oram.stats.path_reads >= 50
        assert oram.stats.path_writes >= 50


class TestObliviousness:
    def test_path_trace_records_all_accesses(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng, record_path_trace=True)
        for address in range(1, 21):
            oram.read(address)
        assert len(oram.path_trace) >= 20
        assert all(0 <= leaf < small_config.num_leaves for leaf in oram.path_trace)

    def test_repeated_access_to_same_block_looks_random(self, small_config):
        # Accessing the same block repeatedly must still visit fresh random
        # paths (because of remapping); the trace should not repeat a single
        # leaf.
        oram = PathORAM(small_config, rng=random.Random(3), record_path_trace=True)
        for _ in range(64):
            oram.read(7)
        assert len(set(oram.path_trace)) > 10


class TestDummyAccess:
    def test_dummy_access_does_not_grow_stash(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        for address in range(1, 101):
            oram.write(address, address)
        before = oram.stash_occupancy
        for _ in range(20):
            oram.dummy_access()
            assert oram.stash_occupancy <= before
            before = oram.stash_occupancy

    def test_dummy_access_counted_separately(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        oram.dummy_access()
        oram.dummy_access()
        assert oram.stats.dummy_accesses == 2
        assert oram.stats.real_accesses == 0

    def test_dummy_access_preserves_data(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        for address in range(1, 51):
            oram.write(address, address * 11)
        for _ in range(50):
            oram.dummy_access()
        for address in range(1, 51):
            assert oram.read(address).data == address * 11


class TestStashFailure:
    def test_unbounded_stash_never_fails(self):
        config = ORAMConfig(working_set_blocks=512, z=1, block_bytes=16, stash_capacity=None)
        oram = PathORAM(config, eviction_policy=NoEviction(), rng=random.Random(5))
        for _ in range(2000):
            oram.access(random.Random(5).randrange(1, 513))
        assert oram.max_stash_occupancy > 0

    def test_z1_without_eviction_overflows_small_stash(self):
        # Figure 3: Z=1 with no background eviction accumulates blocks and
        # eventually exceeds a small stash.
        config = ORAMConfig(
            working_set_blocks=2048, z=1, block_bytes=16, stash_capacity=30
        )
        oram = PathORAM(config, eviction_policy=NoEviction(), rng=random.Random(7))
        rng = random.Random(8)
        with pytest.raises(StashOverflowError):
            for _ in range(20000):
                oram.access(rng.randrange(1, 2049))

    def test_background_eviction_prevents_failure_for_same_config(self):
        config = ORAMConfig(
            working_set_blocks=2048, z=1, block_bytes=16, stash_capacity=30
        )
        oram = PathORAM(config, eviction_policy=BackgroundEviction(), rng=random.Random(7))
        rng = random.Random(8)
        for _ in range(3000):
            oram.access(rng.randrange(1, 2049))
        assert oram.stash_occupancy <= config.stash_capacity
        assert oram.stats.dummy_accesses > 0


class TestExclusiveAPI:
    def test_extract_removes_block(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        oram.write(3, "payload")
        extracted = oram.extract(3)
        assert extracted[3] == "payload"
        # After extraction the block is gone; a read misses.
        assert oram.read(3).found is False

    def test_insert_returns_block_to_oram(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        oram.write(3, "payload")
        oram.extract(3)
        oram.insert(3, "updated")
        assert oram.read(3).data == "updated"

    def test_extract_returns_whole_super_block(self, rng):
        config = ORAMConfig(
            working_set_blocks=256, z=4, block_bytes=32, stash_capacity=150,
            super_block_size=2,
        )
        oram = PathORAM(config, rng=rng)
        oram.write(1, "a")
        oram.write(2, "b")
        extracted = oram.extract(1)
        assert set(extracted) == {1, 2}
        assert extracted[2] == "b"

    def test_extract_never_written_address_still_returns_entry(self, small_config, rng):
        oram = PathORAM(small_config, rng=rng)
        extracted = oram.extract(42)
        assert 42 in extracted and extracted[42] is None


BOUNDARY_STACKS = [name for name in ("flat", "plain", "memmap-flat") if name in STACKS]

#: Public calls with an out-of-range address, leaf or operation on a
#: 64-block ORAM (leaves 0..31).
BAD_CALLS = {
    "contains(65)": lambda oram: oram.contains(65),
    "contains(0)": lambda oram: oram.contains(0),
    "remap_access(10**6)": lambda oram: oram.remap_access(10**6),
    "access_path(65, 0, 2)": lambda oram: oram.access_path(65, 0, 2),
    "access_path(3, 10**9, 2)": lambda oram: oram.access_path(3, 10**9, 2),
    "access_path(3, -1, 2)": lambda oram: oram.access_path(3, -1, 2),
    "access_path(3, 0, 32)": lambda oram: oram.access_path(3, 0, 32),
    "extract_path(3, 10**9, 2)": lambda oram: oram.extract_path(3, 10**9, 2),
    "access_position_block(3, 10**9, 2, 0, 1, 4, 8)": (
        lambda oram: oram.access_position_block(3, 10**9, 2, 0, 1, 4, 8)
    ),
    "access(3, 'wrte')": lambda oram: oram.access(3, "wrte", b"x"),
    "access_many([3, 4], 'WRITE')": lambda oram: oram.access_many([3, 4], "WRITE", b"x"),
    "access_path(3, 0, 2, 'update')": lambda oram: oram.access_path(3, 0, 2, "update", b"x"),
}


class TestBoundaryErrors:
    @pytest.mark.parametrize("stack", BOUNDARY_STACKS)
    def test_invalid_address_or_leaf_raises_before_any_state_change(self, stack, tmp_path):
        config = ORAMConfig(working_set_blocks=64, z=4, block_bytes=32, stash_capacity=80)
        oram = build_stack(OramSpec(protocol="flat", storage=stack), config, 5, tmp_path)
        oram.access_many(list(range(1, 65)))
        before = fingerprint(oram), oram._rng.getstate()
        for name, call in BAD_CALLS.items():
            with pytest.raises(ConfigurationError):
                call(oram)
            assert (fingerprint(oram), oram._rng.getstate()) == before, name


class TestEncryptedBackend:
    def test_oram_works_over_encrypted_storage(self, rng):
        config = ORAMConfig(working_set_blocks=64, z=4, block_bytes=32, stash_capacity=80)
        storage = EncryptedTreeStorage(config, CounterBucketCipher(ProcessorKey(seed=3)))
        oram = PathORAM(config, storage=storage, rng=rng)
        for address in range(1, 65):
            oram.write(address, bytes([address]) * 4)
        for address in range(1, 65):
            assert oram.read(address).data == bytes([address]) * 4

    def test_adversary_sees_only_changing_ciphertext(self, rng):
        config = ORAMConfig(working_set_blocks=64, z=4, block_bytes=32, stash_capacity=80)
        storage = EncryptedTreeStorage(config, CounterBucketCipher(ProcessorKey(seed=3)))
        oram = PathORAM(config, storage=storage, rng=rng)
        oram.write(1, b"secret")
        root_before = storage.raw_bucket(0)
        oram.read(1)
        root_after = storage.raw_bucket(0)
        assert root_before != root_after
