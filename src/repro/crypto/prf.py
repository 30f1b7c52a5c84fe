"""Keyed pseudo-random functions and one-time-pad keystreams.

The paper's bucket encryption generates one-time pads with
``AES_K(seed || chunk_index)``.  Pure-Python AES is far too slow to sit on
the hot path of million-access simulations, so the default PRF here is
SHA-256 based (HMAC-like keyed hashing).  Both back-ends expose the same
interface; the AES back-end is used in tests to demonstrate equivalence of
the construction and is available to callers who want bit-exact AES pads.

The pad definition is fixed: chunk ``i`` of a keystream is
``block(*seed, i)``, 16 bytes each.  ``keystream`` hashes the ``key || seed``
prefix once and then only feeds each 8-byte chunk index to a copy of that
hash state, and ``Keystream.apply`` XORs the whole buffer as one integer.
What remains per 16 bytes of pad is one SHA-256 copy-and-finalise (about
1 µs on a 2-CPU x86 host), 39 of them for the 616-byte body of a ``Z=4``
bucket: the cost the paper's on-chip AES engine takes off the critical path.
"""

from __future__ import annotations

import hashlib
from typing import Literal

from repro.crypto.aes import AES128

PrfBackend = Literal["sha256", "aes"]

#: Bytes per keystream chunk (one ``block`` output).
_CHUNK_BYTES = 16


def _seed_bytes(seed: tuple[int, ...]) -> bytes:
    return b"".join(s.to_bytes(8, "little", signed=False) for s in seed)


def _hash_chunk(base: hashlib._Hash, suffix: bytes) -> bytes:
    h = base.copy()
    h.update(suffix)
    return h.digest()[:_CHUNK_BYTES]


def _xor(data: bytes, pad: bytes) -> bytes:
    """``data XOR pad`` for equal-length byte strings, as one integer op."""
    n = len(data)
    return (int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")).to_bytes(n, "little")


class Prf:
    """A keyed PRF mapping an integer-tuple seed to pseudo-random bytes.

    Parameters
    ----------
    key:
        16-byte key.
    backend:
        ``"sha256"`` (default, fast) or ``"aes"`` (bit-exact AES-CTR-style
        pads, slow).
    """

    def __init__(self, key: bytes, backend: PrfBackend = "sha256") -> None:
        if backend not in ("sha256", "aes"):
            raise ValueError(f"unknown PRF backend: {backend!r}")
        self._key = bytes(key)
        self._backend = backend
        if backend == "aes":
            # Hash the seed down to one AES block and encrypt it: a standard
            # PRF construction when the seed may exceed the block size.
            self._aes = AES128(self._pad_key(key))
            self._hash_prefix = b""
            self._chunk = self._aes_chunk
        else:
            self._hash_prefix = self._key
            self._chunk = _hash_chunk

    @staticmethod
    def _pad_key(key: bytes) -> bytes:
        if len(key) == 16:
            return key
        return hashlib.sha256(key).digest()[:16]

    def _aes_chunk(self, base: hashlib._Hash, suffix: bytes) -> bytes:
        return self._aes.encrypt_block(_hash_chunk(base, suffix))

    @property
    def backend(self) -> str:
        return self._backend

    def block(self, *seed: int) -> bytes:
        """Return one 16-byte pseudo-random block for the given seed tuple."""
        return self._chunk(hashlib.sha256(self._hash_prefix), _seed_bytes(seed))

    def keystream(self, nbytes: int, *seed: int) -> bytes:
        """Return ``nbytes`` of keystream derived from the seed tuple.

        Chunk ``i`` of the keystream is ``block(*seed, i)``, mirroring the
        paper's per-chunk pads ``AES_K(seed || i)``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        base = hashlib.sha256(self._hash_prefix + _seed_bytes(seed))
        chunk = self._chunk
        chunks = [chunk(base, i.to_bytes(8, "little")) for i in range(-(-nbytes // _CHUNK_BYTES))]
        return b"".join(chunks)[:nbytes]


class Keystream:
    """Convenience XOR-pad built on :class:`Prf`.

    ``apply`` both encrypts and decrypts (XOR with the same pad).
    """

    def __init__(self, prf: Prf) -> None:
        self._prf = prf

    def apply(self, data: bytes, *seed: int) -> bytes:
        """XOR ``data`` with the keystream derived from ``seed``."""
        return _xor(data, self._prf.keystream(len(data), *seed))
