"""Keyed pseudo-random functions and one-time-pad keystreams.

The paper's counter scheme (Section 2.2.2) needs a PRF keyed by ``K`` over
``BucketID || BucketCounter``; it assumes an on-chip AES engine makes that
cheap.  Pure-Python AES is far too slow for the hot path of million-access
simulations, so the default pad here is one extendable-output call:

    keystream(n, *seed) = SHAKE128(K || seed)[:n]

with ``seed`` packed as unsigned little-endian 64-bit integers.  NIST
SP 800-185 KMAC is the formal keyed form of this construction; the bare
``K || seed`` prefix suffices here because the bucket ciphers' keys (the
processor key and the strawman's per-block ``K'``) are all 16 bytes.
Domain separation between uses comes from each cipher's fixed seed arity:
under the processor key a counter-scheme bucket pad takes two ints and a
strawman key wrap three, so two uses never hash the same input.  Because
SHAKE output is a stream, ``block(*seed)`` is ``keystream(16, *seed)`` and
every shorter pad is a prefix of a longer one.  One C call makes a bucket
body's pad, whatever its (occupancy-dependent) length; ``joined_keystream``
makes a path's pads in one loop (each after an optional zero gap), and
``keystream`` is its one-span case.

``_xor`` applies every pad.  With NumPy installed (the ``fast`` extra) it
XORs every input as ``uint8`` arrays, so a path-sized XOR costs about a
microsecond whatever its length; without NumPy it is one integer op.  Both
kernels give the same bytes.

The ``"aes"`` backend is the paper-faithful reference: chunk ``i`` of its
keystream is ``block(*seed, i) = AES_K(SHA-256(seed || i)[:16])``, 16 bytes
each.  No ``OramSpec`` reaches it; it is pinned by its own known answer.

Either way, ciphertext shape and length do not depend on the pad, so an
observer of DRAM learns nothing from which PRF is used.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Literal, Sequence

from repro.crypto.aes import AES128

try:
    import numpy as _np
except ImportError:  # NumPy is the optional ``fast`` extra
    _np = None

PrfBackend = Literal["shake128", "aes"]

#: Bytes per ``block`` output (one AES block).
_CHUNK_BYTES = 16


class _SeedPackers(dict):
    """``_SEED_PACK[len(seed)](*seed)`` packs a seed; one ``Struct`` per arity."""

    def __missing__(self, arity: int):
        pack = self[arity] = struct.Struct(f"<{arity}Q").pack
        return pack


_SEED_PACK = _SeedPackers()


def _seed_bytes(seed: tuple[int, ...]) -> bytes:
    try:
        return _SEED_PACK[len(seed)](*seed)
    except struct.error as exc:
        raise OverflowError(f"PRF seed {seed} is not unsigned 64-bit") from exc


def _xor(data: bytes, pad: bytes) -> bytes:
    """``data XOR pad`` for equal-length byte strings, as ``bytes``: one NumPy
    ``uint8`` XOR when NumPy imported, else one integer op."""
    if _np is not None:
        return (_np.frombuffer(data, _np.uint8) ^ _np.frombuffer(pad, _np.uint8)).tobytes()
    n = len(data)
    return (int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")).to_bytes(n, "little")


class Prf:
    """A keyed PRF mapping an integer-tuple seed to pseudo-random bytes.

    Parameters
    ----------
    key:
        16-byte key.
    backend:
        ``"shake128"`` (default, fast) or ``"aes"`` (bit-exact AES-CTR-style
        pads, slow).
    """

    def __init__(self, key: bytes, backend: PrfBackend = "shake128") -> None:
        if backend not in ("shake128", "aes"):
            raise ValueError(f"unknown PRF backend: {backend!r}")
        self._key = bytes(key)
        self._backend = backend
        if backend == "aes":
            # Hash the seed down to one AES block and encrypt it: a standard
            # PRF construction when the seed may exceed the block size.
            self._aes = AES128(self._pad_key(key))

    @staticmethod
    def _pad_key(key: bytes) -> bytes:
        if len(key) == 16:
            return key
        return hashlib.sha256(key).digest()[:16]

    @property
    def backend(self) -> PrfBackend:
        return self._backend

    def block(self, *seed: int) -> bytes:
        """Return one 16-byte pseudo-random block for the given seed tuple."""
        if self._backend == "aes":
            digest = hashlib.sha256(_seed_bytes(seed)).digest()
            return self._aes.encrypt_block(digest[:_CHUNK_BYTES])
        return self.keystream(_CHUNK_BYTES, *seed)

    def keystream(self, nbytes: int, *seed: int) -> bytes:
        """Return ``nbytes`` of keystream derived from the seed tuple.

        On ``"aes"``, chunk ``i`` of the keystream is ``block(*seed, i)``,
        mirroring the paper's per-chunk pads ``AES_K(seed || i)``.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.joined_keystream(((nbytes, seed),))

    def joined_keystream(self, spans: Sequence[tuple[int, tuple[int, ...]]], gap: int = 0) -> bytes:
        """The pads of a path's ``(nbytes, seed)`` spans (``nbytes >= 0``) in one
        call, each after ``gap`` zero bytes: ``bytes(gap) + keystream(n0, *seed0)
        + bytes(gap) + keystream(n1, *seed1) + ...``."""
        zeros = bytes(gap)
        if self._backend == "aes":
            block, size = self.block, _CHUNK_BYTES
            return b"".join([zeros + b"".join([block(*seed, i) for i in range(-(-n // size))])[:n]
                             for n, seed in spans])
        key, xof = self._key, hashlib.shake_128
        try:
            return b"".join([zeros + xof(key + _SEED_PACK[len(s)](*s)).digest(n) for n, s in spans])
        except struct.error as exc:
            raise OverflowError(f"a PRF seed in {spans} is not unsigned 64-bit") from exc


class Keystream:
    """Convenience XOR-pad built on :class:`Prf`.

    ``apply`` both encrypts and decrypts (XOR with the same pad).
    """

    def __init__(self, prf: Prf) -> None:
        self._prf = prf

    def apply(self, data: bytes, *seed: int) -> bytes:
        """XOR ``data`` with the keystream derived from ``seed``."""
        return _xor(data, self._prf.keystream(len(data), *seed))
