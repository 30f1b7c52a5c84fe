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


def _hash(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


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
        self._root_flags = [0, 0]
        self._root_hash = self._node_hash(b"", [0, 0], _ZERO_HASH, _ZERO_HASH, reachable=False)
        self._written = [False] * num_buckets
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
    @staticmethod
    def _node_hash(bucket: bytes, flags: Sequence[int], left: bytes, right: bytes,
                   reachable: bool) -> bytes:
        """Internal-node hash with the paper's flag gating."""
        gated_bucket = bucket if (flags[0] or flags[1]) and reachable else b""
        gated_left = left if flags[0] else _ZERO_HASH
        gated_right = right if flags[1] else _ZERO_HASH
        return _hash(bytes([flags[0], flags[1]]) + gated_bucket + gated_left + gated_right)

    @staticmethod
    def _leaf_hash(bucket: bytes) -> bytes:
        return _hash(bucket)

    def _is_leaf(self, bucket_index: int) -> bool:
        return 2 * bucket_index + 1 >= self._config.num_buckets

    def _child_direction(self, parent: int, child: int) -> int:
        """0 if ``child`` is the left child of ``parent``, 1 if the right."""
        if child == 2 * parent + 1:
            return 0
        if child == 2 * parent + 2:
            return 1
        raise ConfigurationError(f"bucket {child} is not a child of {parent}")

    def _flags_of(self, bucket_index: int) -> list[int]:
        if bucket_index == 0:
            return self._root_flags
        return self._flags[bucket_index]

    def _reachability(self, path: Sequence[int]) -> list[bool]:
        """Whether each bucket on ``path`` was reachable from the root at the
        start of this access (all valid bits above it are 1), in one
        top-down pass: reachability holds until the first unset bit."""
        reachable = [True] * len(path)
        for position in range(len(path) - 1):
            parent = path[position]
            if not self._flags_of(parent)[self._child_direction(parent, path[position + 1])]:
                reachable[position + 1 :] = [False] * (len(path) - position - 1)
                break
        return reachable

    def _compute_path_root(self, path: Sequence[int], buckets: Sequence[bytes],
                           flags_by_node: Sequence[Sequence[int]],
                           reachability: Sequence[bool]) -> bytes:
        """Recompute the root hash from leaf to root along ``path``."""
        levels = len(path) - 1
        current = self._leaf_hash(buckets[levels])
        for position in range(levels - 1, -1, -1):
            node = path[position]
            child_on_path = path[position + 1]
            direction = self._child_direction(node, child_on_path)
            sibling = (2 * node + 1) if direction == 1 else (2 * node + 2)
            sibling_hash = self._hashes[sibling]
            self.counters.sibling_hashes_read += 1
            left = current if direction == 0 else sibling_hash
            right = current if direction == 1 else sibling_hash
            current = self._node_hash(
                buckets[position], flags_by_node[position], left, right,
                reachable=reachability[position],
            )
        return current

    # ------------------------------------------------------------------
    # Public protocol
    # ------------------------------------------------------------------
    def verify_path(self, leaf: int, buckets: Sequence[bytes]) -> None:
        """Verify the buckets read along the path to ``leaf``.

        ``buckets`` are the raw (encrypted) bucket contents, root first;
        never-written buckets should be passed as ``b""``.  Raises
        :class:`IntegrityError` if the recomputed root does not match the
        on-chip root hash.
        """
        path = path_indices(leaf, self._config.levels)
        if len(buckets) != len(path):
            raise ConfigurationError("bucket count does not match path length")
        flags_by_node = [list(self._flags_of(index)) for index in path]
        reachability = self._reachability(path)
        recomputed = self._compute_path_root(path, buckets, flags_by_node, reachability)
        self.counters.verifications += 1
        if recomputed != self._root_hash:
            raise IntegrityError(f"authentication failed on path to leaf {leaf}")

    def update_path(self, leaf: int, new_buckets: Sequence[bytes]) -> None:
        """Install new bucket contents along the path to ``leaf``.

        Updates the child-valid flags (the path just written becomes valid;
        sibling flags survive only if the bucket was already reachable),
        recomputes the path hashes bottom-up and refreshes the on-chip root.
        """
        path = path_indices(leaf, self._config.levels)
        if len(new_buckets) != len(path):
            raise ConfigurationError("bucket count does not match path length")
        levels = len(path) - 1

        reachability = self._reachability(path)

        # Update child-valid flags along the path (top-down).
        for position in range(levels):
            node = path[position]
            child = path[position + 1]
            direction = self._child_direction(node, child)
            flags = self._flags_of(node)
            new_flags = list(flags)
            new_flags[direction] = 1
            # The other flag is only trustworthy if this bucket was already
            # reachable; otherwise the stored bits are uninitialised memory.
            if not reachability[position]:
                new_flags[1 - direction] = 0
            if node == 0:
                self._root_flags = new_flags
            else:
                self._flags[node] = new_flags

        flags_by_node = [list(self._flags_of(index)) for index in path]
        # Every bucket on the path has now been written, so it is reachable
        # for the purpose of the new hashes.
        new_reachability = [True] * len(path)

        # Recompute hashes bottom-up and store them.
        current = self._leaf_hash(new_buckets[levels])
        self._hashes[path[levels]] = current
        self.counters.hashes_written += 1
        for position in range(levels - 1, -1, -1):
            node = path[position]
            child_on_path = path[position + 1]
            direction = self._child_direction(node, child_on_path)
            sibling = (2 * node + 1) if direction == 1 else (2 * node + 2)
            sibling_hash = self._hashes[sibling]
            left = current if direction == 0 else sibling_hash
            right = current if direction == 1 else sibling_hash
            current = self._node_hash(
                new_buckets[position], flags_by_node[position], left, right,
                reachable=new_reachability[position],
            )
            if node == 0:
                self._root_hash = current
            else:
                self._hashes[node] = current
                self.counters.hashes_written += 1
        for index in path:
            self._written[index] = True
        self.counters.updates += 1

    def tamper_with_hash(self, bucket_index: int, new_hash: bytes) -> None:
        """Testing hook: corrupt a stored (external) hash."""
        self._hashes[bucket_index] = new_hash
