"""One-pass path crypto against a slot-level reference.

``EncryptedTreeStorage.seal_path`` frames a whole path as one piece list
and XORs it once; ``open_path`` XORs the ciphertexts as read and parses the
joined plaintext by offset.  The reference here does it the long way, one
slot and one bucket at a time: ``BucketCodec.encode_block`` per block, a
frame per bucket (block count, then each slot's length, u32), and one
``Prf.keystream`` per bucket seeded by ``(bucket index, counter)``, XORed
byte by byte behind the clear 64-bit counter.  Both kernels of
``prf._xor`` are checked in one run.

The error cases forge bucket ciphertexts under the real key on the
``encrypted`` stack (no authentication tree, so the decode checks are the
only guard) and pin each ``EncryptionError`` message.
"""

import struct

import pytest

from repro.core.bucket_codec import BucketCodec
from repro.core.config import ORAMConfig
from repro.core.tree import EncryptedTreeStorage
from repro.core.types import Block
from repro.crypto import prf as prf_module
from repro.crypto.bucket_encryption import CounterBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.crypto.prf import Prf
from repro.errors import EncryptionError

KEY = ProcessorKey(seed=11)
BLOCK_BYTES = 32


def payloads() -> list:
    """Every payload kind the codec carries, edge sizes included."""
    return [
        b"",
        b"\x07",
        bytes(range(BLOCK_BYTES)),
        None,
        -5,
        -(1 << 100),
        1 << 100,
        [3, 0, (1 << 64) - 1],
        [],
        bytearray(b"ab"),
    ]


def reference_plaintext(blocks, z: int) -> bytes:
    slots = [BucketCodec.encode_block(block) for block in blocks or []]
    slots += [BucketCodec.encode_block(None)] * (z - len(slots))
    frame = struct.pack(f"<{len(slots) + 1}I", len(slots), *map(len, slots))
    return frame + b"".join(slots)


def reference_seal(bucket_index: int, counter: int, plaintext: bytes) -> bytes:
    pad = Prf(KEY.key_bytes).keystream(len(plaintext), bucket_index, counter)
    return struct.pack("<Q", counter) + bytes(a ^ b for a, b in zip(plaintext, pad))


def stored(blocks) -> list[Block]:
    """What a read returns for ``blocks``: dummies dropped, bytearray as bytes."""
    return [
        Block(block.address, block.leaf,
              bytes(block.data) if isinstance(block.data, bytearray) else block.data)
        for block in blocks or []
        if block.address
    ]


def paths(config: ORAMConfig) -> dict[str, list]:
    """All-empty, all-full and mixed level lists for one path of ``config``."""
    z, levels = config.z, config.levels + 1
    pool = payloads()
    address = iter(range(1, 10_000))

    def bucket(count: int, offset: int) -> list[Block]:
        return [Block(next(address), (offset + slot) % config.num_leaves,
                      pool[(offset + slot) % len(pool)]) for slot in range(count)]

    mixed = []
    for level in range(levels):
        kind = level % 4
        if kind == 0:
            mixed.append(None)
        elif kind == 1:
            mixed.append([])
        else:
            mixed.append(bucket(min(z, level % (z + 1)), level))
    # A dummy-address block encodes as a dummy slot and never reads back.
    mixed[-1] = [Block(0, 1, b"dummy")] + bucket(z - 1, 3)
    return {
        "empty": [None] * levels,
        "full": [bucket(z, level) for level in range(levels)],
        "mixed": mixed,
    }


@pytest.fixture(params=["default", "integer"])
def xor_kernel(request, monkeypatch):
    """Run once on the default ``_xor`` kernel and once on the integer op."""
    if request.param == "integer":
        monkeypatch.setattr(prf_module, "_np", None)
    return request.param


@pytest.mark.parametrize("z", [1, 2, 3, 4, 8])
def test_sealed_bytes_counters_and_blocks_match_the_slot_reference(z, xor_kernel):
    config = ORAMConfig(working_set_blocks=16, z=z, block_bytes=BLOCK_BYTES)
    cipher = CounterBucketCipher(KEY)
    storage = EncryptedTreeStorage(config, cipher)
    counters: dict[int, int] = {}
    leaf = config.num_leaves - 1
    path = storage.path(leaf)
    for name, levels in list(paths(config).items()) * 2:
        sealed = storage.seal_path(leaf, levels)
        expected = []
        for bucket_index, blocks in zip(path, levels):
            counters[bucket_index] = counters.get(bucket_index, 0) + 1
            plaintext = reference_plaintext(blocks, z)
            expected.append(reference_seal(bucket_index, counters[bucket_index], plaintext))
        assert sealed == expected, name
        assert storage.raw_path(leaf) == expected, name
        assert [cipher.current_counter(index) for index in path] == [
            counters[index] for index in path
        ]
        want = [block for blocks in levels for block in stored(blocks)]
        assert storage.open_path(leaf, storage.raw_path(leaf)) == want, name
        assert storage.read_path_blocks(leaf) == want, name
        assert [storage.read_bucket(index) for index in path] == [
            stored(blocks) for blocks in levels
        ], name


@pytest.mark.parametrize("z", [1, 4, 8])
def test_single_bucket_writes_match_the_slot_reference(z, xor_kernel):
    config = ORAMConfig(working_set_blocks=16, z=z, block_bytes=BLOCK_BYTES)
    storage = EncryptedTreeStorage(config, CounterBucketCipher(KEY))
    for counter, blocks in enumerate(paths(config)["full"][:3] + [[]], start=1):
        storage.write_bucket(5, blocks)
        plaintext = reference_plaintext(blocks, z)
        assert storage.raw_bucket(5) == reference_seal(5, counter, plaintext)
        assert storage.read_bucket(5) == stored(blocks)


def test_an_empty_bucket_is_one_constant():
    # At Z=4 an empty bucket's plaintext is its 20-byte frame plus four
    # 21-byte dummy slots, behind the 8-byte counter.
    config = ORAMConfig(working_set_blocks=16, z=4, block_bytes=BLOCK_BYTES)
    storage = EncryptedTreeStorage(config, CounterBucketCipher(KEY))
    sealed = storage.seal_path(0, [None] * (config.levels + 1))
    assert {len(ciphertext) for ciphertext in sealed} == {8 + 104}
    assert storage.read_path_blocks(0) == []


# ----------------------------------------------------------------------
# Decode errors on the encrypted stack
# ----------------------------------------------------------------------
CONFIG = ORAMConfig(working_set_blocks=16, z=4, block_bytes=BLOCK_BYTES)
SLOT = struct.Struct("<QQBI")


def forged_bucket(tamper) -> bytes:
    """The plaintext of a bucket holding a ``bytes`` and a ``None`` block, its
    frame, slot headers and bodies passed through ``tamper(count, lengths,
    headers, bodies)`` and joined again."""
    blocks = [Block(4, 1, b"payload"), Block(5, 2, None)]
    slots = [BucketCodec.encode_block(block) for block in blocks]
    slots += [BucketCodec.encode_block(None)] * (CONFIG.z - len(slots))
    headers = [list(SLOT.unpack_from(slot)) for slot in slots]
    bodies = [slot[SLOT.size :] for slot in slots]
    count, lengths = CONFIG.z, [len(slot) for slot in slots]
    count, lengths = tamper(count, lengths, headers, bodies)
    return struct.pack(f"<{len(lengths) + 1}I", count, *lengths) + b"".join(
        SLOT.pack(*header) + body for header, body in zip(headers, bodies)
    )


def garble_count(count, lengths, headers, bodies):
    return 0xFFFF, lengths


def length_past_the_end(count, lengths, headers, bodies):
    lengths[1] += 1
    return count, lengths


def truncate_payload(count, lengths, headers, bodies):
    headers[0][3] += 1  # the header claims one byte more than the slot holds
    return count, lengths


def unknown_tag(count, lengths, headers, bodies):
    headers[1][2] = 9
    return count, lengths


@pytest.mark.parametrize(
    ("tamper", "message"),
    [
        (garble_count, "counter bucket plaintext missing block length"),
        (length_past_the_end, "counter bucket plaintext truncated block body"),
        (truncate_payload, "block payload truncated"),
        (unknown_tag, "unknown payload tag 9"),
    ],
    ids=["garbled_count", "length_past_bucket_end", "truncated_payload", "unknown_tag"],
)
def test_forged_bucket_raises_its_decode_error(tamper, message, xor_kernel):
    storage = EncryptedTreeStorage(CONFIG, CounterBucketCipher(KEY))
    leaf = 2
    storage.seal_path(leaf, [[Block(9, leaf, b"ok")]] * (CONFIG.levels + 1))
    raw = storage.raw_path(leaf)
    victim = storage.path(leaf)[1]
    raw[1] = reference_seal(victim, 7, forged_bucket(tamper))
    with pytest.raises(EncryptionError) as raised:
        storage.open_path(leaf, raw)
    assert str(raised.value) == message
