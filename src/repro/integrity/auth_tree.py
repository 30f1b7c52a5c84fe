"""The paper's Path-ORAM-integrated authentication tree (Section 5).

The authentication tree mirrors the ORAM tree exactly.  Leaf nodes hash
their bucket; each internal node hashes

    H( f0 || f1 || ((f0 or f1) gating the bucket) || f0-gated left child hash
       || f1-gated right child hash )

where ``f0``/``f1`` are the bucket's child-valid flags, stored in external
memory with the bucket.  The root hash and the root's child-valid flags are
kept on chip.  The gating means never-written subtrees contribute a fixed
all-zero value, so neither the authentication tree nor the ORAM tree needs
to be initialised at program start.

Per ORAM access, only the sibling hashes along the accessed path (at most
``L`` of them) are read and only the ``L`` path hashes are rewritten — in
contrast to the strawman Merkle tree's ``Z (L+1)^2`` hashes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import ORAMConfig
from repro.core.tree import path_indices
from repro.errors import ConfigurationError, IntegrityError

HASH_BYTES = 32
_ZERO_HASH = b"\x00" * HASH_BYTES

#: The two child-valid flags as the byte pair an internal-node hash starts with.
_FLAG_BYTES = ((b"\x00\x00", b"\x00\x01"), (b"\x01\x00", b"\x01\x01"))


@dataclass
class AuthCounters:
    """Hash-traffic accounting used to check the paper's overhead claim."""

    sibling_hashes_read: int = 0
    hashes_written: int = 0
    verifications: int = 0
    updates: int = 0


class PathORAMAuthenticator:
    """Maintains and checks the mirrored authentication tree for one ORAM."""

    def __init__(self, config: ORAMConfig) -> None:
        self._config = config
        num_buckets = config.num_buckets
        # External state: one hash and two child-valid flags per bucket.
        self._hashes: list[bytes] = [_ZERO_HASH] * num_buckets
        self._flags: list[list[int]] = [[0, 0] for _ in range(num_buckets)]
        # On-chip state: the root hash and the root's child-valid flags.
        # With both flags clear the root hashes its flags and two gated
        # (all-zero) child hashes.
        self._root_flags = [0, 0]
        self._root_hash = hashlib.sha256(_FLAG_BYTES[0][0] + _ZERO_HASH + _ZERO_HASH).digest()
        self.counters = AuthCounters()

    @property
    def config(self) -> ORAMConfig:
        return self._config

    @property
    def root_hash(self) -> bytes:
        """The on-chip root hash."""
        return self._root_hash

    # ------------------------------------------------------------------
    # Hash computation
    # ------------------------------------------------------------------
    def _flags_of(self, bucket_index: int) -> list[int]:
        if bucket_index == 0:
            return self._root_flags
        return self._flags[bucket_index]

    def _reachability(self, path: Sequence[int]) -> list[bool]:
        """Whether each bucket on ``path`` was reachable from the root at the
        start of this access (all valid bits above it are 1), in one
        top-down pass.  An even heap index is a right child (flag 1)."""
        flags = self._flags
        node_flags = self._root_flags
        reachable = [True] * len(path)
        for position in range(1, len(path)):
            child = path[position]
            if not node_flags[not child & 1]:
                reachable[position:] = [False] * (len(path) - position)
                break
            node_flags = flags[child]
        return reachable

    def _fold(self, path: Sequence[int], buckets: Sequence[bytes],
              reachable: Sequence[bool], store: bool) -> bytes:
        """Hash ``buckets`` bottom-up along ``path`` (gated as in the module
        docstring, siblings from the external hash list) and return the root
        hash; with ``store``, write every non-root hash back to that list."""
        hashes = self._hashes
        flags = self._flags
        sha256 = hashlib.sha256
        levels = len(path) - 1
        current = sha256(buckets[levels]).digest()
        if store:
            hashes[path[levels]] = current
        for position in range(levels - 1, -1, -1):
            node = path[position]
            child = path[position + 1]
            f0, f1 = flags[node] if node else self._root_flags
            if child & 1:
                left, right = current, hashes[child + 1]
            else:
                left, right = hashes[child - 1], current
            gated = buckets[position] if (f0 or f1) and reachable[position] else b""
            current = sha256(b"".join((
                _FLAG_BYTES[f0][f1], gated, left if f0 else _ZERO_HASH, right if f1 else _ZERO_HASH
            ))).digest()
            if store and node:
                hashes[node] = current
        return current

    # ------------------------------------------------------------------
    # Public protocol
    # ------------------------------------------------------------------
    def verify_path(self, leaf: int, buckets: Sequence[bytes], path: Sequence[int] = ()) -> None:
        """Verify the buckets read along the path to ``leaf``.

        ``buckets`` are the raw (encrypted) bucket contents, root first;
        never-written buckets should be passed as ``b""``; ``path`` may be the
        leaf's bucket indices (a storage's memoised ``path(leaf)``).  Raises
        :class:`IntegrityError` if the recomputed root does not match the
        on-chip root hash.
        """
        path = path or path_indices(leaf, self._config.levels)
        if len(buckets) != len(path):
            raise ConfigurationError("bucket count does not match path length")
        recomputed = self._fold(path, buckets, self._reachability(path), store=False)
        counters = self.counters
        counters.sibling_hashes_read += len(path) - 1
        counters.verifications += 1
        if recomputed != self._root_hash:
            raise IntegrityError(f"authentication failed on path to leaf {leaf}")

    def update_path(self, leaf: int, new_buckets: Sequence[bytes],
                    path: Sequence[int] = ()) -> None:
        """Install new bucket contents along the path to ``leaf``.

        Updates the child-valid flags (the path just written becomes valid;
        sibling flags survive only if the bucket was already reachable),
        recomputes the path hashes bottom-up and refreshes the on-chip root.
        """
        path = path or path_indices(leaf, self._config.levels)
        if len(new_buckets) != len(path):
            raise ConfigurationError("bucket count does not match path length")
        levels = len(path) - 1
        reachable = self._reachability(path)
        # Set the flag of the direction taken (the leaf's bits, most
        # significant first).  The other flag is only trustworthy if this
        # bucket was already reachable; otherwise it is uninitialised memory.
        flags = self._flags
        for position in range(levels):
            node = path[position]
            node_flags = flags[node] if node else self._root_flags
            if not reachable[position]:
                node_flags[0] = node_flags[1] = 0
            node_flags[(leaf >> (levels - 1 - position)) & 1] = 1
        # Every bucket on the path has now been written, so it is reachable
        # for the purpose of the new hashes.
        self._root_hash = self._fold(path, new_buckets, [True] * len(path), store=True)
        counters = self.counters
        counters.hashes_written += max(levels, 1)
        counters.updates += 1

    def tamper_with_hash(self, bucket_index: int, new_hash: bytes) -> None:
        """Testing hook: corrupt a stored (external) hash."""
        self._hashes[bucket_index] = new_hash
