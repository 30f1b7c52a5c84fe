"""The bucket plaintext format of the encrypted storage back-end.

This module owns a bucket's plaintext: a frame (the slot count, then each
slot's length, u32) and the slots.  The cipher sees only seeds and byte
extents; :meth:`BucketCodec.frame_path` / :meth:`~BucketCodec.parse_path`
move a whole path in one pass each.

A bucket holds exactly ``Z`` slots.  Real blocks carry a ``(leaf, address,
payload)`` triplet; unused slots are filled with dummy blocks (address 0)
with an empty body (an empty bucket is one constant, 104 bytes at ``Z=4``).
Slots are *not* fixed-size (a dummy is its 21-byte
header, a 128-byte payload takes 149 bytes), so unlike the paper's buckets a
bucket's plaintext and ciphertext length shows how many real blocks it holds:
at ``Z=4``, ``112 + 128 k`` counter-scheme bytes for ``k`` 128-byte blocks.

Payloads may be ``None`` (functional runs), raw ``bytes`` (processor data),
a signed integer or a ``list`` of ``int`` (position-map ORAM blocks holding
leaf labels); each is tagged so decoding restores the original type, so a
read returns what was written.  A ``bytearray`` reads back as the ``bytes``
it compares equal to.  Any other payload raises :class:`EncryptionError`,
``bool`` included: a tuple, a ``str``, or a list holding anything but
``int`` would read back as a different object.  :meth:`BucketCodec.check_payload`
also refuses ``bytes`` longer than the config's ``block_bytes``.

Slot layout (little-endian), a 21-byte ``<QQBI`` header then the body::

    address  u64 | leaf  u64 | tag  u8 | length  u32 | body

=========  ===========================================  ================
tag        body                                          ``length``
=========  ===========================================  ================
0 none     empty (also every dummy slot, address 0)      0
1 bytes    the payload bytes                             byte count
2 labels   one u64 per label                             label count
3 int      16-byte two's-complement integer              16
=========  ===========================================  ================

A field that does not fit its width raises :class:`EncryptionError`.
"""

from __future__ import annotations

import functools
import struct
from itertools import accumulate
from typing import Any, Iterable, Sequence

from repro.core.config import ORAMConfig
from repro.core.types import DUMMY_ADDRESS, Block
from repro.errors import EncryptionError

_PAYLOAD_NONE = 0
_PAYLOAD_BYTES = 1
_PAYLOAD_LABELS = 2
_PAYLOAD_INT = 3

_HEADER = struct.Struct("<QQBI")
_HEADER_BYTES = _HEADER.size
_DUMMY_SLOT = _HEADER.pack(DUMMY_ADDRESS, 0, _PAYLOAD_NONE, 0)


@functools.cache
def _frame(count: int) -> struct.Struct:
    """Block count, then ``count`` slot lengths (u32); ``_frame(0)`` is the count."""
    return struct.Struct(f"<{count + 1}I")


@functools.cache
def _empty_bucket(z: int) -> bytes:
    return _frame(z).pack(z, *[_HEADER_BYTES] * z) + _DUMMY_SLOT * z


def check_payload_size(payload: Any, block_bytes: int, error: type[Exception]) -> None:
    """Raise ``error`` for ``bytes`` over ``block_bytes``: every stack's length rule."""
    if isinstance(payload, (bytes, bytearray)) and len(payload) > block_bytes:
        raise error(f"payload of {len(payload)} bytes exceeds block_bytes={block_bytes}")


def extents(sizes: Sequence[int]) -> Iterable[tuple[int, int]]:
    """The ``(start, end)`` of each of ``sizes`` bytes laid end to end."""
    return zip(accumulate(sizes, initial=0), accumulate(sizes))


def _slot_extents(plaintext: bytes, start: int, end: int) -> tuple[int, tuple[int, ...]]:
    """Check the bucket frame at ``start``; its first slot's offset and slot lengths."""
    if end - start < 4:
        raise EncryptionError("counter bucket plaintext missing block count")
    (count,) = _frame(0).unpack_from(plaintext, start)
    offset = start + 4 + 4 * count
    if offset > end:
        raise EncryptionError("counter bucket plaintext missing block length")
    lengths = _frame(count).unpack_from(plaintext, start)[1:]
    if offset + sum(lengths) > end:
        raise EncryptionError("counter bucket plaintext truncated block body")
    return offset, lengths


def join_slots(slot_lists: Iterable[Sequence[bytes]]) -> tuple[bytes, list[tuple[int, int]]]:
    """Frame each bucket's slots: the joined plaintext and each one's extent."""
    framed = [b"".join([_frame(len(slots)).pack(len(slots), *map(len, slots)), *slots])
              for slots in slot_lists]
    return b"".join(framed), list(extents(list(map(len, framed))))


def split_slots(plaintext: bytes, bounds: Iterable[tuple[int, int]]) -> list[list[bytes]]:
    """The slot byte strings of each bucket at ``bounds`` in ``plaintext``."""
    path_slots = []
    for start, end in bounds:
        offset, lengths = _slot_extents(plaintext, start, end)
        path_slots.append([plaintext[offset + at : offset + to] for at, to in extents(lengths)])
    return path_slots


class BucketCodec:
    """Frame / parse a path's buckets in one pass each; single slots and slot lists on top."""

    def __init__(self, config: ORAMConfig) -> None:
        self._config = config

    # ------------------------------------------------------------------
    # Per-block encoding
    # ------------------------------------------------------------------
    @staticmethod
    def encode_block(block: Block | None) -> bytes:
        """Serialise one block (``None`` produces a dummy slot)."""
        if block is None or block.is_dummy():
            return _DUMMY_SLOT
        payload = block.data
        try:
            if payload is None:
                return _HEADER.pack(block.address, block.leaf, _PAYLOAD_NONE, 0)
            if isinstance(payload, (bytes, bytearray)):
                header = _HEADER.pack(block.address, block.leaf, _PAYLOAD_BYTES, len(payload))
                return header + payload
            if isinstance(payload, int) and not isinstance(payload, bool):
                header = _HEADER.pack(block.address, block.leaf, _PAYLOAD_INT, 16)
                return header + payload.to_bytes(16, "little", signed=True)
            if isinstance(payload, list) and all(type(v) is int for v in payload):
                header = _HEADER.pack(block.address, block.leaf, _PAYLOAD_LABELS, len(payload))
                return header + struct.pack(f"<{len(payload)}Q", *payload)
        except (struct.error, OverflowError, TypeError, ValueError) as exc:
            raise EncryptionError(f"block {block.address} does not fit its slot: {exc}") from exc
        raise EncryptionError(f"unsupported block payload type: {type(payload).__name__}")

    def check_payload(self, payload: Any) -> None:
        """Raise :class:`EncryptionError` for a payload the codec cannot
        encode, or ``bytes`` longer than ``block_bytes`` (the encoding stacks'
        write entry points call it before any state changes)."""
        check_payload_size(payload, self._config.block_bytes, EncryptionError)
        if payload is not None and not isinstance(payload, (bytes, bytearray)):
            self.encode_block(Block(1, 0, payload))

    def decode_block(self, plaintext: bytes) -> Block | None:
        """Deserialise one block; dummies decode to ``None``."""
        return next(iter(self.decode_blocks([plaintext])), None)

    # ------------------------------------------------------------------
    # Paths and buckets
    # ------------------------------------------------------------------
    def frame_path(self, level_buckets: Sequence[list[Block] | None]) -> tuple[list, list, list]:
        """``(pieces, heads, sizes)``: a path's levels (real blocks, ``None``
        if empty) as one piece list.  Level ``i`` is a ``b""`` placeholder at
        ``heads[i]`` (for a cipher's clear header), then ``sizes[i]`` bytes:
        its frame, each slot's header and payload, and its padding dummies;
        an empty level is one cached constant."""
        z = self._config.z
        empty = _empty_bucket(z)
        pack, encode_block = _HEADER.pack, self.encode_block
        pieces, heads, sizes = [], [], []
        for blocks in level_buckets:
            heads.append(len(pieces))
            if not blocks:
                pieces += (b"", empty)
                sizes.append(len(empty))
                continue
            pieces += (b"", b"")
            lengths = []
            try:
                for block in blocks:
                    payload = block.data
                    if type(payload) is bytes and block.address != DUMMY_ADDRESS:
                        pieces += (pack(block.address, block.leaf, _PAYLOAD_BYTES, len(payload)),
                                   payload)
                        lengths.append(_HEADER_BYTES + len(payload))
                    else:
                        slot = encode_block(block)
                        pieces.append(slot)
                        lengths.append(len(slot))
            except struct.error as exc:
                message = f"block {block.address} does not fit its slot: {exc}"
                raise EncryptionError(message) from exc
            pieces.append(_DUMMY_SLOT * (z - len(lengths)))
            lengths += [_HEADER_BYTES] * (z - len(lengths))
            pieces[heads[-1] + 1] = _frame(len(lengths)).pack(len(lengths), *lengths)
            sizes.append(4 + 4 * len(lengths) + sum(lengths))
        return pieces, heads, sizes

    def parse_path(self, plaintext: bytes, bounds: Sequence[tuple[int, int]]) -> list[Block]:
        """The real blocks of the buckets at the ``(start, end)`` extents
        ``bounds`` of ``plaintext``, in order; an empty bucket is skipped on
        one compare."""
        empty = _empty_bucket(self._config.z)
        unpack = _HEADER.unpack_from
        blocks: list[Block] = []
        for start, end in bounds:
            if end - start == len(empty) and plaintext.startswith(empty, start):
                continue
            offset, lengths = _slot_extents(plaintext, start, end)
            for length in lengths:
                slot, offset = offset, offset + length
                if length < _HEADER_BYTES:
                    raise EncryptionError("block plaintext too short")
                address, leaf, tag, size = unpack(plaintext, slot)
                if address == DUMMY_ADDRESS:
                    continue
                body, room = slot + _HEADER_BYTES, length - _HEADER_BYTES
                if tag == _PAYLOAD_BYTES:
                    if room < size:
                        raise EncryptionError("block payload truncated")
                    data = plaintext[body : body + size]
                elif tag == _PAYLOAD_NONE:
                    data = None
                elif tag == _PAYLOAD_INT:
                    if room < size:
                        raise EncryptionError("integer payload truncated")
                    data = int.from_bytes(plaintext[body : body + size], "little", signed=True)
                elif tag == _PAYLOAD_LABELS:
                    if room < 8 * size:
                        raise EncryptionError("label payload truncated")
                    data = list(struct.unpack_from(f"<{size}Q", plaintext, body))
                else:
                    raise EncryptionError(f"unknown payload tag {tag}")
                blocks.append(Block(address, leaf, data))
        return blocks

    def encode_path(self, level_buckets: Sequence[list[Block] | None]) -> list[list[bytes]]:
        """Each level's slot byte strings: :meth:`frame_path`, split."""
        pieces, _, sizes = self.frame_path(level_buckets)
        return split_slots(b"".join(pieces), extents(sizes))

    def encode_blocks(self, blocks: list[Block]) -> list[bytes]:
        """Serialise one bucket: :meth:`encode_path` of a one-level path."""
        return self.encode_path((blocks,))[0]

    def decode_blocks(self, plaintexts: list[bytes]) -> list[Block]:
        """Deserialise a bucket's slots, dropping dummies."""
        return self.parse_path(*join_slots([plaintexts]))
