"""Bucket codec: slot layout pins, round trips and typed errors."""

import pytest

from repro.core.bucket_codec import BucketCodec
from repro.core.config import ORAMConfig
from repro.core.types import Block
from repro.errors import EncryptionError

# One block per payload tag, plus the widest header; the hex literals pin
# each encoded slot so the layout in the codec's docstring cannot drift.
SLOT_CASES = {
    "none": (
        Block(address=3, leaf=7, data=None),
        "030000000000000007000000000000000000000000",
    ),
    "bytes": (
        Block(address=4, leaf=2, data=b"\x00abc\xff"),
        "04000000000000000200000000000000010500000000616263ff",
    ),
    "bytearray": (
        Block(address=5, leaf=0, data=bytearray(b"xyz")),
        "05000000000000000000000000000000010300000078797a",
    ),
    "int": (
        Block(address=6, leaf=1, data=(1 << 100) + 17),
        "06000000000000000100000000000000031000000011000000000000000000000010000000",
    ),
    "negative_int": (
        Block(address=7, leaf=9, data=-(1 << 127)),
        "07000000000000000900000000000000031000000000000000000000000000000000000080",
    ),
    "labels": (
        Block(address=8, leaf=5, data=[0, 1, (1 << 64) - 1]),
        "0800000000000000050000000000000002030000000000000000000000"
        "0100000000000000ffffffffffffffff",
    ),
    "empty_labels": (
        Block(address=9, leaf=4, data=[]),
        "090000000000000004000000000000000200000000",
    ),
    "large_header": (
        Block(address=(1 << 64) - 1, leaf=(1 << 63) + 1, data=b""),
        "ffffffffffffffff01000000000000800100000000",
    ),
}
DUMMY_SLOT = "000000000000000000000000000000000000000000"


@pytest.fixture
def codec() -> BucketCodec:
    return BucketCodec(ORAMConfig(working_set_blocks=64, z=4))


@pytest.mark.parametrize("case", sorted(SLOT_CASES))
def test_slot_pinned(codec, case):
    block, expected = SLOT_CASES[case]
    assert codec.encode_block(block).hex() == expected


@pytest.mark.parametrize("case", sorted(SLOT_CASES))
def test_slot_roundtrip(codec, case):
    block, _ = SLOT_CASES[case]
    decoded = codec.decode_block(codec.encode_block(block))
    assert decoded == block
    # bytearray payloads come back as bytes; every other tag keeps its type.
    expected_type = bytes if isinstance(block.data, bytearray) else type(block.data)
    assert type(decoded.data) is expected_type


def test_dummy_slot_pinned(codec):
    assert codec.encode_block(None).hex() == DUMMY_SLOT
    assert codec.encode_block(Block(address=0, leaf=5, data=b"ignored")).hex() == DUMMY_SLOT
    assert codec.decode_block(bytes.fromhex(DUMMY_SLOT)) is None


def test_bucket_pads_with_dummies(codec):
    blocks = [SLOT_CASES["bytes"][0], SLOT_CASES["labels"][0]]
    slots = codec.encode_blocks(blocks)
    assert len(slots) == 4
    assert [slot.hex() for slot in slots[2:]] == [DUMMY_SLOT, DUMMY_SLOT]
    assert codec.decode_blocks(slots) == blocks


#: A path of buckets holding every payload tag, dummies and empty levels.
PATH_LEVELS = [
    [SLOT_CASES["bytes"][0], SLOT_CASES["int"][0]],
    None,
    [SLOT_CASES[case][0] for case in ("none", "labels", "bytearray", "large_header")],
    [],
    [Block(address=0, leaf=3, data=b"dummy"), SLOT_CASES["negative_int"][0]],
    [SLOT_CASES["empty_labels"][0]],
]


def reference_slots(blocks):
    """One bucket's slots block by block: each encoded, then dummies to Z=4."""
    slots = [BucketCodec.encode_block(block) for block in blocks or []]
    return slots + [bytes.fromhex(DUMMY_SLOT)] * (4 - len(slots))


def test_encode_path_is_per_block_encoding_padded_to_z(codec):
    expected = [reference_slots(blocks) for blocks in PATH_LEVELS]
    assert codec.encode_path(PATH_LEVELS) == expected
    assert [codec.encode_blocks(blocks or []) for blocks in PATH_LEVELS] == expected
    assert codec.encode_path([]) == []
    assert [codec.decode_blocks(slots) for slots in expected] == [
        [block for block in blocks or [] if block.address] for blocks in PATH_LEVELS
    ]


@pytest.mark.parametrize(
    "bad",
    [Block(address=1, leaf=1 << 64, data=b"x"), Block(address=1, leaf=0, data=1 << 127),
     Block(address=2, leaf=0, data=("a", "tuple"))],
    ids=["wide_leaf_bytes", "int_too_large", "tuple"],
)
def test_encode_path_raises_the_per_block_error_mid_path(codec, bad):
    with pytest.raises(EncryptionError) as per_block:
        codec.encode_block(bad)
    levels = [list(PATH_LEVELS[0]), None, [SLOT_CASES["labels"][0], bad]]
    with pytest.raises(EncryptionError) as path:
        codec.encode_path(levels)
    assert str(path.value) == str(per_block.value)


@pytest.mark.parametrize(
    "block",
    [
        Block(address=-1, leaf=0, data=None),
        Block(address=1 << 64, leaf=0, data=None),
        Block(address=1, leaf=-1, data=b"x"),
        Block(address=1, leaf=1 << 64, data=b"x"),
        Block(address=1, leaf=0, data=[1, -2]),
        Block(address=1, leaf=0, data=[1 << 64]),
        Block(address=1, leaf=0, data=1 << 127),
        Block(address=1, leaf=0, data=-(1 << 127) - 1),
    ],
    ids=[
        "negative_address",
        "wide_address",
        "negative_leaf",
        "wide_leaf",
        "negative_label",
        "wide_label",
        "int_too_large",
        "int_too_small",
    ],
)
def test_out_of_range_fields_raise_encryption_error(codec, block):
    with pytest.raises(EncryptionError):
        codec.encode_block(block)


def test_truncated_label_body_rejected(codec):
    slot = codec.encode_block(SLOT_CASES["labels"][0])
    with pytest.raises(EncryptionError):
        codec.decode_block(slot[:-1])
