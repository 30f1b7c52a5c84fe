"""Serialisation of bucket contents for the encrypted storage back-end.

A bucket holds exactly ``Z`` slots.  Real blocks carry a ``(leaf, address,
payload)`` triplet; unused slots are filled with dummy blocks (address 0)
with an empty body.  Slots are *not* fixed-size (a dummy is its 21-byte
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

import struct
from typing import Any, Sequence

from repro.core.config import ORAMConfig
from repro.core.types import DUMMY_ADDRESS, Block
from repro.errors import EncryptionError

_PAYLOAD_NONE = 0
_PAYLOAD_BYTES = 1
_PAYLOAD_LABELS = 2
_PAYLOAD_INT = 3

_HEADER = struct.Struct("<QQBI")
_DUMMY_SLOT = _HEADER.pack(DUMMY_ADDRESS, 0, _PAYLOAD_NONE, 0)


class BucketCodec:
    """Encode / decode the ``Z`` per-block plaintexts of a bucket, or of every
    bucket on a path in one call."""

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
        """Raise :class:`EncryptionError` unless a block can carry ``payload``:
        one the codec cannot encode, or ``bytes`` longer than the config's
        ``block_bytes`` (the write entry points of the encoding stacks call
        it before any state changes, so a bad payload never reaches a path
        write-back)."""
        if isinstance(payload, (bytes, bytearray)):
            if len(payload) > self._config.block_bytes:
                raise EncryptionError(
                    f"payload of {len(payload)} bytes exceeds block_bytes="
                    f"{self._config.block_bytes}"
                )
        elif payload is not None:
            self.encode_block(Block(1, 0, payload))

    def decode_block(self, plaintext: bytes) -> Block | None:
        """Deserialise one block; dummies decode to ``None``."""
        if len(plaintext) < _HEADER.size:
            raise EncryptionError("block plaintext too short")
        address, leaf, tag, length = _HEADER.unpack_from(plaintext)
        if address == DUMMY_ADDRESS:
            return None
        body = plaintext[_HEADER.size :]
        if tag == _PAYLOAD_NONE:
            data = None
        elif tag == _PAYLOAD_BYTES:
            if len(body) < length:
                raise EncryptionError("block payload truncated")
            data = body[:length]
        elif tag == _PAYLOAD_INT:
            if len(body) < length:
                raise EncryptionError("integer payload truncated")
            data = int.from_bytes(body[:length], "little", signed=True)
        elif tag == _PAYLOAD_LABELS:
            if len(body) < 8 * length:
                raise EncryptionError("label payload truncated")
            data = list(struct.unpack_from(f"<{length}Q", body))
        else:
            raise EncryptionError(f"unknown payload tag {tag}")
        return Block(address=address, leaf=leaf, data=data)

    # ------------------------------------------------------------------
    # Path and bucket encoding
    # ------------------------------------------------------------------
    def encode_path(self, level_buckets: Sequence[list[Block] | None]) -> list[list[bytes]]:
        """Serialise a path's buckets in one call: each level's real blocks
        (``None`` for an empty level), padded with dummies to ``Z``.  ``bytes``
        payloads (the hot case) are framed inline."""
        pack = _HEADER.pack
        encode_block = self.encode_block
        dummies = [_DUMMY_SLOT] * self._config.z
        path_slots: list[list[bytes]] = []
        for blocks in level_buckets:
            if not blocks:
                path_slots.append(dummies[:])
                continue
            slots: list[bytes] = []
            for block in blocks:
                payload = block.data
                if type(payload) is not bytes or block.address == DUMMY_ADDRESS:
                    slots.append(encode_block(block))
                    continue
                try:
                    header = pack(block.address, block.leaf, _PAYLOAD_BYTES, len(payload))
                except struct.error as exc:
                    message = f"block {block.address} does not fit its slot: {exc}"
                    raise EncryptionError(message) from exc
                slots.append(header + payload)
            slots += dummies[len(slots) :]
            path_slots.append(slots)
        return path_slots

    def encode_blocks(self, blocks: list[Block]) -> list[bytes]:
        """Serialise one bucket: :meth:`encode_path` of a one-level path."""
        return self.encode_path((blocks,))[0]

    def decode_blocks(self, plaintexts: list[bytes]) -> list[Block]:
        """Deserialise a bucket, dropping dummy slots; ``bytes`` payloads are
        sliced inline."""
        blocks: list[Block] = []
        append = blocks.append
        unpack = _HEADER.unpack_from
        size = _HEADER.size
        for plaintext in plaintexts:
            if plaintext == _DUMMY_SLOT:
                continue
            if len(plaintext) < size:
                raise EncryptionError("block plaintext too short")
            address, leaf, tag, length = unpack(plaintext)
            if address == DUMMY_ADDRESS:
                continue
            if tag == _PAYLOAD_BYTES:
                if len(plaintext) < size + length:
                    raise EncryptionError("block payload truncated")
                append(Block(address, leaf, plaintext[size : size + length]))
            else:
                append(self.decode_block(plaintext))
        return blocks
