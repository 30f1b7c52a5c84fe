"""Tests for the position map, stash, block types and bucket codec."""

import pickle
import random

import pytest

from repro.core.bucket_codec import BucketCodec
from repro.core.config import ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.position_map import PositionMap
from repro.core.stash import Stash
from repro.core.stats import AccessStats
from repro.core.types import DUMMY_ADDRESS, Block, Operation
from repro.errors import ConfigurationError, EncryptionError


class TestBlock:
    def test_dummy_detection(self):
        assert Block(address=DUMMY_ADDRESS, leaf=0).is_dummy()
        assert not Block(address=1, leaf=0).is_dummy()

    def test_operation_enum_values(self):
        assert Operation.READ.value == "read"
        assert Operation.WRITE.value == "write"


class TestPositionMap:
    def test_initial_leaves_in_range(self, rng):
        pmap = PositionMap(100, 16, rng=rng)
        assert all(0 <= pmap.lookup(i) < 16 for i in range(100))

    def test_assign_and_lookup(self, rng):
        pmap = PositionMap(10, 8, rng=rng)
        pmap.assign(2, 5)
        assert pmap.lookup(2) == 5

    def test_assign_out_of_range_rejected(self, rng):
        pmap = PositionMap(10, 8, rng=rng)
        with pytest.raises(ConfigurationError):
            pmap.assign(0, 8)

    def test_initial_distribution_is_roughly_uniform(self):
        pmap = PositionMap(8000, 8, rng=random.Random(1))
        counts = [0] * 8
        for i in range(8000):
            counts[pmap.lookup(i)] += 1
        assert min(counts) > 800 and max(counts) < 1200

    def test_invalid_construction(self, rng):
        with pytest.raises(ConfigurationError):
            PositionMap(0, 4, rng=rng)
        with pytest.raises(ConfigurationError):
            PositionMap(4, 0, rng=rng)


class TestStash:
    def test_add_get_pop(self):
        stash = Stash()
        stash.add(Block(address=3, leaf=1, data="x"))
        assert 3 in stash
        assert stash.get(3).data == "x"
        assert stash.pop(3).address == 3
        assert 3 not in stash

    def test_dummy_blocks_ignored(self):
        stash = Stash()
        stash.add(Block(address=DUMMY_ADDRESS, leaf=0))
        assert len(stash) == 0

    def test_overwrite_same_address_does_not_grow(self):
        stash = Stash()
        stash.add(Block(address=1, leaf=0, data="a"))
        stash.add(Block(address=1, leaf=3, data="b"))
        assert len(stash) == 1
        assert stash.get(1).data == "b"

    def test_max_occupancy_tracks_high_water_mark(self):
        stash = Stash()
        for address in range(1, 6):
            stash.add(Block(address=address, leaf=0))
        for address in range(1, 4):
            stash.pop(address)
        assert stash.occupancy == 2
        assert stash.max_occupancy == 5

    def test_addresses_and_blocks_snapshots(self):
        stash = Stash()
        for address in (4, 7, 9):
            stash.add(Block(address=address, leaf=0))
        assert sorted(stash.addresses()) == [4, 7, 9]
        assert {b.address for b in stash.blocks()} == {4, 7, 9}

    def test_clear(self):
        stash = Stash()
        stash.add(Block(address=1, leaf=0))
        stash.clear()
        assert len(stash) == 0

    @pytest.mark.parametrize(
        "mutate, leaves",
        [
            (lambda stash: stash.add(Block(address=9, leaf=1)), [1, 2, 5, 6]),
            (lambda stash: stash.retarget(3, 7), [2, 5, 7]),
            (lambda stash: stash.remove_placed([stash.get(4)]), [5, 6]),
            (lambda stash: stash.pop(3), [2, 5]),
            (lambda stash: stash.pop_range(5, 1, 3), [2, 6]),
            (lambda stash: stash.retarget_range_collect(5, 1, 3, 0), [0, 2, 6]),
            (lambda stash: stash.clear(), []),
        ],
        ids=[
            "add", "retarget", "remove_placed", "pop", "pop_range",
            "retarget_range_collect", "clear",
        ],
    )
    def test_sorted_leaves_follow_every_mutator(self, mutate, leaves):
        stash = Stash()
        for address, leaf in ((1, 5), (2, 5), (3, 6), (4, 2)):
            stash.add(Block(address=address, leaf=leaf))
        assert stash.sorted_leaves() == [2, 5, 6]
        mutate(stash)
        assert stash.sorted_leaves() == leaves
        assert leaves == sorted(leaf for leaf, _ in stash.leaf_groups())

    def test_sorted_leaves_kept_while_the_leaf_set_holds(self):
        stash = Stash()
        stash.add(Block(address=1, leaf=5))
        ordered = stash.sorted_leaves()
        stash.add(Block(address=2, leaf=5))
        stash.retarget(2, 5)
        stash.pop(1)
        assert stash.sorted_leaves() is ordered

    def test_leaf_cache_stays_out_of_pickled_state(self):
        stash = Stash()
        stash.add(Block(address=3, leaf=9))
        assert stash.sorted_leaves() == [9]
        assert "_sorted_leaves" not in stash.__getstate__()
        restored = pickle.loads(pickle.dumps(stash))
        assert restored._sorted_leaves is None
        assert restored.sorted_leaves() == [9]
        assert restored.fingerprint() == stash.fingerprint()
        # A stash pickled before the view existed (it had a capacity knob).
        old = Stash.__new__(Stash)
        old.__setstate__({
            "_blocks": {3: Block(address=3, leaf=9)},
            "_by_leaf": {9: [Block(address=3, leaf=9)]},
            "_capacity": None,
            "_max_occupancy": 1,
        })
        assert not hasattr(old, "_capacity")
        assert old.sorted_leaves() == [9]
        # An ORAM snapshot keeps its friend views aliased to the stash's.
        oram = PathORAM(ORAMConfig(working_set_blocks=64), rng=random.Random(1))
        oram._stash.add(Block(address=3, leaf=1))
        oram._stash.sorted_leaves()
        restored_oram = PathORAM.restore(oram.snapshot())
        assert restored_oram._stash_by_leaf is restored_oram._stash._by_leaf
        assert restored_oram._stash_blocks is restored_oram._stash._blocks
        assert restored_oram._stash.fingerprint() == oram._stash.fingerprint()


class TestAccessStats:
    def test_dummy_ratio(self):
        stats = AccessStats()
        for _ in range(10):
            stats.record_real_access()
        for _ in range(5):
            stats.record_dummy_access()
        assert stats.dummy_ratio == 0.5
        assert stats.total_accesses == 15

    def test_access_overhead_equation(self):
        # Equation 1: (RA+DA)/RA * 2(L+1)M/B
        stats = AccessStats(real_accesses=100, dummy_accesses=50)
        overhead = stats.access_overhead(levels=20, bucket_bits=4096, block_bits=1024)
        assert overhead == pytest.approx(1.5 * 2 * 21 * 4)

    def test_occupancy_sampling_respects_flag(self):
        stats = AccessStats()
        stats.sample_stash_occupancy(5)
        assert stats.stash_occupancy_samples == []
        stats.record_occupancy = True
        stats.sample_stash_occupancy(5)
        assert stats.stash_occupancy_samples == [5]

    def test_reset_zeroes_every_counter(self):
        stats = AccessStats(real_accesses=1, dummy_accesses=2, path_reads=3)
        stats.stash_occupancy_samples.append(4)
        stats.reset()
        assert stats.fingerprint() == AccessStats().fingerprint()


class TestBucketCodec:
    @pytest.fixture
    def codec(self, small_config):
        return BucketCodec(small_config)

    def test_roundtrip_bytes_payload(self, codec):
        block = Block(address=5, leaf=3, data=b"hello world")
        decoded = codec.decode_block(codec.encode_block(block))
        assert decoded.address == 5 and decoded.leaf == 3 and decoded.data == b"hello world"

    def test_roundtrip_label_payload(self, codec):
        block = Block(address=9, leaf=1, data=[4, 8, 15, 16, 23, 42])
        decoded = codec.decode_block(codec.encode_block(block))
        assert decoded.data == [4, 8, 15, 16, 23, 42]

    def test_roundtrip_none_payload(self, codec):
        block = Block(address=2, leaf=0, data=None)
        decoded = codec.decode_block(codec.encode_block(block))
        assert decoded.data is None

    def test_dummy_encodes_and_decodes_to_none(self, codec):
        assert codec.decode_block(codec.encode_block(None)) is None

    def test_bucket_padded_to_z_slots(self, codec, small_config):
        slots = codec.encode_blocks([Block(address=1, leaf=0, data=b"x")])
        assert len(slots) == small_config.z

    def test_decode_blocks_drops_dummies(self, codec):
        slots = codec.encode_blocks([Block(address=1, leaf=0, data=b"x")])
        blocks = codec.decode_blocks(slots)
        assert len(blocks) == 1 and blocks[0].address == 1

    def test_unsupported_payload_rejected(self, codec):
        with pytest.raises(EncryptionError):
            codec.encode_block(Block(address=1, leaf=0, data={"not": "supported"}))

    def test_truncated_plaintext_rejected(self, codec):
        with pytest.raises(EncryptionError):
            codec.decode_block(b"short")

    def test_bucket_loops_match_the_slot_helpers(self, codec, small_config):
        # encode_blocks / decode_blocks frame bytes payloads inline; every
        # slot must still equal what the per-slot helpers produce.
        blocks = [
            Block(address=4, leaf=2, data=b"\x00abc\xff"),
            Block(address=5, leaf=1, data=bytearray(b"xyz")),
            Block(address=6, leaf=3, data=-7),
            Block(address=7, leaf=0, data=[1, 2]),
        ][: small_config.z]
        slots = codec.encode_blocks(blocks)
        assert slots[: len(blocks)] == [codec.encode_block(block) for block in blocks]
        decoded = [codec.decode_block(slot) for slot in slots[: len(blocks)]]
        assert codec.decode_blocks(slots) == decoded

    @pytest.mark.parametrize(
        "block",
        [
            Block(address=1 << 64, leaf=0, data=b"x"),
            Block(address=1, leaf=-1, data=b"x"),
        ],
        ids=["wide_address", "negative_leaf"],
    )
    def test_bucket_encode_rejects_out_of_range_bytes_block(self, codec, block):
        with pytest.raises(EncryptionError, match="does not fit its slot"):
            codec.encode_blocks([block])

    def test_bucket_decode_rejects_truncated_slots(self, codec):
        slot = codec.encode_block(Block(address=1, leaf=0, data=b"payload"))
        with pytest.raises(EncryptionError, match="payload truncated"):
            codec.decode_blocks([slot[:-1]])
        with pytest.raises(EncryptionError, match="too short"):
            codec.decode_blocks([b"short"])
