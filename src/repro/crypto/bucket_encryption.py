"""Randomized bucket encryption schemes from Section 2.2 of the paper.

Two schemes are implemented, both turning the plaintext of a bucket (the
``Z`` per-block ``(leaf, address, data)`` triplets) into a randomized
ciphertext so that an observer cannot tell whether a bucket changed on a
path write-back:

* :class:`StrawmanBucketCipher` (Section 2.2.1, used by the baseline
  configuration of [Fletcher et al. 2012]): every block gets a fresh random
  128-bit key ``K'``, stored encrypted under the processor key ``K``, plus a
  one-time pad generated from ``K'``.  Bucket size
  ``M = Z * (128 + L + U + B)`` bits.
* :class:`CounterBucketCipher` (Section 2.2.2): a single 64-bit per-bucket
  counter, stored in the clear, seeds the pad
  ``PRF_K(BucketID || BucketCounter)``.  Bucket size
  ``M = Z * (L + U + B) + 64`` bits — the scheme the rest of the paper (and
  this reproduction) assumes.

The bucket plaintext format (frame and slots) belongs to
:mod:`repro.core.bucket_codec`; the ciphers see only seeds and byte extents.
The counter scheme seals and opens a whole path in one XOR; the strawman
keeps the base class's per-bucket, per-slot path defaults.
"""

from __future__ import annotations

import random
import struct
from abc import ABC, abstractmethod
from itertools import accumulate
from typing import Sequence

from repro.crypto.keys import ProcessorKey
from repro.crypto.prf import Keystream, Prf, PrfBackend, _xor
from repro.errors import EncryptionError

#: Bits of overhead per block in the strawman scheme (the encrypted K').
STRAWMAN_PER_BLOCK_OVERHEAD_BITS = 128

#: Bits of overhead per bucket in the counter-based scheme (BucketCounter).
COUNTER_PER_BUCKET_OVERHEAD_BITS = 64

_COUNTER = struct.Struct("<Q")


def strawman_bucket_bits(z: int, l_bits: int, u_bits: int, b_bits: int) -> int:
    """Bucket size in bits under the strawman scheme: ``Z(128 + L + U + B)``."""
    return z * (STRAWMAN_PER_BLOCK_OVERHEAD_BITS + l_bits + u_bits + b_bits)


def counter_bucket_bits(z: int, l_bits: int, u_bits: int, b_bits: int) -> int:
    """Bucket size in bits under the counter scheme: ``Z(L + U + B) + 64``."""
    return z * (l_bits + u_bits + b_bits) + COUNTER_PER_BUCKET_OVERHEAD_BITS


class BucketCipher(ABC):
    """Interface shared by both bucket encryption schemes."""

    def __init__(self, processor_key: ProcessorKey, backend: PrfBackend = "shake128") -> None:
        self._key = processor_key
        self._prf = Prf(processor_key.key_bytes, backend=backend)
        self._keystream = Keystream(self._prf)

    @abstractmethod
    def encrypt(self, bucket_id: int, block_plaintexts: Sequence[bytes]) -> bytes:
        """Encrypt the blocks of one bucket into a single ciphertext."""

    @abstractmethod
    def decrypt(self, bucket_id: int, ciphertext: bytes) -> list[bytes]:
        """Recover the per-block plaintexts of one bucket."""

    def encrypt_path(self, bucket_ids: Sequence[int], pieces: list[bytes],
                     heads: Sequence[int], sizes: Sequence[int]) -> list[bytes]:
        """One ciphertext per bucket of a path framed by ``BucketCodec.frame_path``;
        by default :meth:`encrypt` each bucket's slots."""
        from repro.core.bucket_codec import extents, split_slots
        return list(map(self.encrypt, bucket_ids, split_slots(b"".join(pieces), extents(sizes))))

    def decrypt_path(self, bucket_ids: Sequence[int],
                     ciphertexts: Sequence[bytes]) -> tuple[bytes, list[tuple[int, int]]]:
        """A path's bucket plaintexts, joined, and each one's ``(start, end)``
        (for ``BucketCodec.parse_path``); by default :meth:`decrypt` each."""
        from repro.core.bucket_codec import join_slots
        return join_slots(map(self.decrypt, bucket_ids, ciphertexts))

    @staticmethod
    @abstractmethod
    def bucket_bits(z: int, l_bits: int, u_bits: int, b_bits: int) -> int:
        """Size of an encrypted bucket in bits for the given parameters."""


class StrawmanBucketCipher(BucketCipher):
    """Per-block random-key scheme (Section 2.2.1).

    Each block ciphertext is ``Enc_K(K') || (pad_{K'} XOR plaintext)`` where
    ``K'`` is a fresh random 128-bit key.  ``Enc_K(K')`` is realised as a
    16-byte pad keyed by the processor key and a per-call nonce, which is
    ciphertext-size-equivalent to the paper's ``AES_K(K')``.
    """

    KEY_FIELD_BYTES = 16

    def __init__(
        self,
        processor_key: ProcessorKey,
        backend: PrfBackend = "shake128",
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(processor_key, backend=backend)
        self._rng = rng if rng is not None else random.Random()
        self._nonce = 0

    def encrypt(self, bucket_id: int, block_plaintexts: Sequence[bytes]) -> bytes:
        pieces: list[bytes] = []
        for plaintext in block_plaintexts:
            block_key = bytes(self._rng.getrandbits(8) for _ in range(self.KEY_FIELD_BYTES))
            self._nonce += 1
            wrapped_key = self._keystream.apply(block_key, bucket_id, self._nonce, 0)
            # Store the nonce so decryption can unwrap K'; in hardware the
            # wrap would be AES_K(K') and need no nonce, but the ciphertext
            # size we account for is identical (the nonce rides in the same
            # 128-bit field conceptually; we serialise it separately here).
            block_prf = Prf(block_key, backend=self._prf.backend)
            pad = block_prf.keystream(len(plaintext), 0)
            body = _xor(plaintext, pad)
            pieces.append(
                self._nonce.to_bytes(8, "little")
                + wrapped_key
                + len(plaintext).to_bytes(4, "little")
                + body
            )
        return b"".join(pieces)

    def decrypt(self, bucket_id: int, ciphertext: bytes) -> list[bytes]:
        plaintexts: list[bytes] = []
        offset = 0
        while offset < len(ciphertext):
            if offset + 8 + self.KEY_FIELD_BYTES + 4 > len(ciphertext):
                raise EncryptionError("truncated strawman bucket ciphertext")
            nonce = int.from_bytes(ciphertext[offset : offset + 8], "little")
            offset += 8
            wrapped_key = ciphertext[offset : offset + self.KEY_FIELD_BYTES]
            offset += self.KEY_FIELD_BYTES
            body_len = int.from_bytes(ciphertext[offset : offset + 4], "little")
            offset += 4
            if offset + body_len > len(ciphertext):
                raise EncryptionError("truncated strawman block body")
            body = ciphertext[offset : offset + body_len]
            offset += body_len
            block_key = self._keystream.apply(wrapped_key, bucket_id, nonce, 0)
            block_prf = Prf(block_key, backend=self._prf.backend)
            pad = block_prf.keystream(body_len, 0)
            plaintexts.append(_xor(body, pad))
        return plaintexts

    @staticmethod
    def bucket_bits(z: int, l_bits: int, u_bits: int, b_bits: int) -> int:
        return strawman_bucket_bits(z, l_bits, u_bits, b_bits)


class CounterBucketCipher(BucketCipher):
    """Counter-based scheme (Section 2.2.2).

    The whole bucket plaintext is XORed with the pad
    ``PRF_K(BucketID || BucketCounter)`` and the 64-bit
    counter is stored in the clear ahead of the ciphertext.  Buckets are
    always read and written atomically, so one counter per bucket suffices;
    seeding with BucketID guarantees two buckets never share a pad.
    """

    COUNTER_BYTES = 8

    def __init__(self, processor_key: ProcessorKey, backend: PrfBackend = "shake128") -> None:
        super().__init__(processor_key, backend=backend)
        self._counters: dict[int, int] = {}

    def current_counter(self, bucket_id: int) -> int:
        """The last counter value used for ``bucket_id`` (0 if never written)."""
        return self._counters.get(bucket_id, 0)

    def encrypt(self, bucket_id: int, block_plaintexts: Sequence[bytes]) -> bytes:
        from repro.core.bucket_codec import join_slots
        plaintext, _ = join_slots((block_plaintexts,))
        return self.encrypt_path((bucket_id,), [b"", plaintext], (0,), (len(plaintext),))[0]

    def decrypt(self, bucket_id: int, ciphertext: bytes) -> list[bytes]:
        from repro.core.bucket_codec import split_slots
        return split_slots(*self.decrypt_path((bucket_id,), (ciphertext,)))[0]

    def encrypt_path(self, bucket_ids: Sequence[int], pieces: list[bytes],
                     heads: Sequence[int], sizes: Sequence[int]) -> list[bytes]:
        """Bump each bucket's counter into its head piece, XOR the joined path
        once with a pad that leaves the counters clear, and cut it per bucket."""
        counters, pack, gap = self._counters, _COUNTER.pack, self.COUNTER_BYTES
        spans = []
        for bucket_id, head, size in zip(bucket_ids, heads, sizes):
            counter = counters[bucket_id] = counters.get(bucket_id, 0) + 1
            pieces[head] = pack(counter)
            spans.append((size, (bucket_id, counter)))
        path = _xor(b"".join(pieces), self._prf.joined_keystream(spans, gap))
        cuts = [0, *accumulate(gap + size for size in sizes)]
        return [path[start:end] for start, end in zip(cuts, cuts[1:])]

    def decrypt_path(self, bucket_ids: Sequence[int],
                     ciphertexts: Sequence[bytes]) -> tuple[bytes, list[tuple[int, int]]]:
        """XOR the ciphertexts as read, joined, with one pad seeded by each
        clear counter (which the pad's zero gaps leave in place)."""
        unpack, gap = _COUNTER.unpack_from, self.COUNTER_BYTES
        spans, bounds, end = [], [], 0
        for bucket_id, ciphertext in zip(bucket_ids, ciphertexts):
            size = len(ciphertext) - gap
            if size < 0:
                raise EncryptionError("counter bucket ciphertext shorter than its counter")
            spans.append((size, (bucket_id, unpack(ciphertext)[0])))
            start, end = end + gap, end + gap + size
            bounds.append((start, end))
        return _xor(b"".join(ciphertexts), self._prf.joined_keystream(spans, gap)), bounds

    @staticmethod
    def bucket_bits(z: int, l_bits: int, u_bits: int, b_bits: int) -> int:
        return counter_bucket_bits(z, l_bits, u_bits, b_bits)
