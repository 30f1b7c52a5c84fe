"""ORAM tree geometry and bucket storage back-ends.

The ORAM tree is a full binary tree of ``L + 1`` levels stored in heap
order: the root is bucket 0 and the children of bucket ``i`` are
``2i + 1`` and ``2i + 2``.  Leaf ``l`` (``0 <= l < 2^L``) lives in bucket
``2^L - 1 + l``.

Three storage back-ends are provided:

* :class:`FlatTreeStorage` keeps every bucket in a contiguous preallocated
  slot array — the fast functional back-end the design-space sweeps run on
  by default.  It implements the batched path fast paths without per-bucket
  list copies and maintains its occupancy counter in O(1).
* :class:`PlainTreeStorage` keeps buckets as Python lists of
  :class:`~repro.core.types.Block` — the straightforward reference back-end
  the fast one is differentially tested against.
* :class:`EncryptedTreeStorage` keeps buckets as ciphertext produced by a
  :class:`~repro.crypto.bucket_encryption.BucketCipher`, exercising the full
  randomized-encryption path of Section 2.2.

:class:`TreeStorage` also defines the *path* operations the Path ORAM
protocol drives, :meth:`TreeStorage.read_path_blocks` and
:meth:`TreeStorage.write_path_levels` (``read_path`` / ``write_path`` are
adapters onto them), with per-bucket defaults.  The flat store moves slots
directly; the encrypted store moves whole paths through
:meth:`EncryptedTreeStorage.open_path` and
:meth:`EncryptedTreeStorage.seal_path`, which the integrity-verifying
storage composes with its authenticator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.core.bucket_codec import BucketCodec, check_payload_size
from repro.core.config import ORAMConfig
from repro.core.types import Block
from repro.crypto.bucket_encryption import BucketCipher
from repro.errors import ConfigurationError


def path_indices(leaf: int, levels: int) -> list[int]:
    """Bucket indices on the path from the root to ``leaf``, root first.

    Parameters
    ----------
    leaf:
        Leaf label in ``[0, 2^levels)``.
    levels:
        Tree depth ``L``.
    """
    num_leaves = 1 << levels
    if not 0 <= leaf < num_leaves:
        raise ConfigurationError(f"leaf {leaf} out of range [0, {num_leaves})")
    index = num_leaves - 1 + leaf
    path = [index]
    while index > 0:
        index = (index - 1) // 2
        path.append(index)
    path.reverse()
    return path


def common_path_length(leaf_a: int, leaf_b: int, levels: int) -> int:
    """Number of buckets shared by the paths to two leaves (Section 3.1.3).

    Any two paths share at least the root, so the result is in
    ``[1, L + 1]``.
    """
    path_a = path_indices(leaf_a, levels)
    path_b = path_indices(leaf_b, levels)
    shared = 0
    for bucket_a, bucket_b in zip(path_a, path_b):
        if bucket_a != bucket_b:
            break
        shared += 1
    return shared


#: The one per-leaf cache rule: a storage keeps its per-leaf path geometry
#: in a leaf-indexed list when the tree has at most this many leaves (the
#: classified path op's cutoff, 16 levels); bigger trees touch too many
#: distinct leaves for a cache to pay, so they recompute it per access.
LEAF_CACHE_LEAVES = 1 << 16


class TreeStorage(ABC):
    """Abstract bucket store for one Path ORAM tree.

    The storage owns its per-leaf path geometry: :meth:`_build_geometry`
    says what one leaf's record is (here the path's bucket indices; the
    slot-array and column stacks keep the record their path I/O reads), and
    :meth:`_geometry` caches it under :data:`LEAF_CACHE_LEAVES`.  The cache
    is derived state, so pickles leave it out.
    """

    def __init__(self, config: ORAMConfig) -> None:
        self._config = config
        self._geometry_table = self._new_geometry_table()

    def _new_geometry_table(self) -> list | None:
        num_leaves = self._config.num_leaves
        return [None] * num_leaves if num_leaves <= LEAF_CACHE_LEAVES else None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_geometry_table"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Snapshots written before the storage owned one geometry table
        # carry its per-leaf caches.
        for stale in ("_path_cache", "_base_cache", "_path_rows"):
            state.pop(stale, None)
        self.__dict__.update(state)
        self._geometry_table = self._new_geometry_table()

    @property
    def config(self) -> ORAMConfig:
        return self._config

    @property
    def num_buckets(self) -> int:
        return self._config.num_buckets

    def _build_geometry(self, leaf: int) -> tuple[int, ...]:
        """One leaf's geometry record, computed; raises
        :class:`~repro.errors.ConfigurationError` for a leaf outside
        ``[0, 2^L)``."""
        return tuple(path_indices(leaf, self._config.levels))

    def _geometry(self, leaf: int):
        """One leaf's geometry record, cached in the leaf-indexed table on
        trees of at most :data:`LEAF_CACHE_LEAVES` leaves.  An out-of-range
        leaf goes to :meth:`_build_geometry`, which rejects it (a list index
        would silently wrap a negative leaf)."""
        table = self._geometry_table
        if table is not None and 0 <= leaf < len(table):
            geometry = table[leaf]
            if geometry is None:
                geometry = table[leaf] = self._build_geometry(leaf)
            return geometry
        return self._build_geometry(leaf)

    def path(self, leaf: int) -> tuple[int, ...]:
        """Bucket indices along the path to ``leaf``, root first (the
        storage's geometry record, cached per leaf)."""
        return self._geometry(leaf)

    def check_payload(self, payload: Any) -> None:
        """Raise :class:`ConfigurationError` for ``bytes`` over ``block_bytes``."""
        check_payload_size(payload, self._config.block_bytes, ConfigurationError)

    @abstractmethod
    def read_bucket(self, bucket_index: int) -> list[Block]:
        """Return the real blocks stored in one bucket."""

    @abstractmethod
    def write_bucket(self, bucket_index: int, blocks: list[Block]) -> None:
        """Overwrite one bucket with up to ``Z`` real blocks (padded with
        dummies by the back-end as needed)."""

    def read_path_blocks(self, leaf: int) -> list[Block]:
        """Every real block on the path to ``leaf`` — the protocol's path
        read.  The default reads bucket by bucket."""
        blocks: list[Block] = []
        for bucket_index in self.path(leaf):
            blocks.extend(self.read_bucket(bucket_index))
        return blocks

    def read_path(self, leaf: int) -> list[Block]:
        """Read and return all real blocks on the path to ``leaf``."""
        return self.read_path_blocks(leaf)

    def write_path_levels(self, leaf: int, level_buckets: list[list[Block] | None]) -> None:
        """Write back a whole path — the protocol's path write.  ``level_buckets``
        is aligned with the path, root first; ``None`` or ``[]`` writes that
        bucket empty (all dummies).  The default writes bucket by bucket."""
        for bucket_index, blocks in zip(self.path(leaf), level_buckets):
            self.write_bucket(bucket_index, blocks or [])

    def write_path(self, leaf: int, assignments: dict[int, list[Block]]) -> None:
        """:meth:`write_path_levels` from a bucket index → blocks mapping;
        path buckets missing from it are written empty."""
        self.write_path_levels(leaf, [assignments.get(index) for index in self.path(leaf)])

    def occupancy(self) -> int:
        """Total number of real blocks currently stored in the tree."""
        return sum(len(self.read_bucket(i)) for i in range(self.num_buckets))


class PlainTreeStorage(TreeStorage):
    """Functional bucket store holding :class:`Block` objects directly."""

    def __init__(self, config: ORAMConfig) -> None:
        super().__init__(config)
        self._buckets: list[list[Block]] = [[] for _ in range(config.num_buckets)]

    def read_bucket(self, bucket_index: int) -> list[Block]:
        return list(self._buckets[bucket_index])

    def write_bucket(self, bucket_index: int, blocks: list[Block]) -> None:
        if len(blocks) > self._config.z:
            raise ConfigurationError(
                f"bucket {bucket_index} overfilled: {len(blocks)} > Z={self._config.z}"
            )
        self._buckets[bucket_index] = list(blocks)


class FlatTreeStorage(TreeStorage):
    """Array-backed bucket store: the fast functional back-end.

    All ``num_buckets * Z`` block slots live in one preallocated flat list;
    bucket ``i`` owns slots ``[i*Z, (i+1)*Z)`` and its leading count slot
    records how many of them hold real blocks.  The count is authoritative:
    slots past it are never read, so shrinking a bucket only rewrites the
    count (stale block references linger in the array, bounded by its size).
    Compared to :class:`PlainTreeStorage` this avoids a per-bucket list
    allocation on every read and write, reads whole paths in a single pass,
    and maintains :meth:`occupancy` as an O(1) counter instead of rescanning
    the tree.

    Behaviour is bit-identical to :class:`PlainTreeStorage` (the
    differential property test in ``tests/test_core_properties.py`` enforces
    this), so it is the default back-end for functional simulations.
    """

    #: Slot-array stride per bucket: slot 0 holds the bucket's real-block
    #: count, slots 1..Z hold the blocks.  One contiguous array, one index.
    def __init__(self, config: ORAMConfig) -> None:
        super().__init__(config)
        self._z = config.z
        self._stride = config.z + 1
        slots: list[Block | int | None] = [None] * (config.num_buckets * self._stride)
        for bucket_index in range(config.num_buckets):
            slots[bucket_index * self._stride] = 0
        self._slots = slots
        self._occupancy = 0

    def _build_geometry(self, leaf: int) -> tuple[int, ...]:
        """The path's bucket base offsets (``bucket_index * stride``), root
        first: this stack's per-leaf record."""
        stride = self._stride
        return tuple(index * stride for index in path_indices(leaf, self._config.levels))

    def path(self, leaf: int) -> tuple[int, ...]:
        """Bucket indices to ``leaf``, recomputed: this stack caches bases."""
        return tuple(path_indices(leaf, self._config.levels))

    def read_bucket(self, bucket_index: int) -> list[Block]:
        base = bucket_index * self._stride
        return self._slots[base + 1 : base + 1 + self._slots[base]]

    def write_bucket(self, bucket_index: int, blocks: list[Block]) -> None:
        count = len(blocks)
        if count > self._z:
            raise ConfigurationError(
                f"bucket {bucket_index} overfilled: {count} > Z={self._z}"
            )
        base = bucket_index * self._stride
        slots = self._slots
        old = slots[base]
        slots[base + 1 : base + 1 + count] = blocks
        slots[base] = count
        self._occupancy += count - old

    def read_path_blocks(self, leaf: int) -> list[Block]:
        """Collect every real block on the path in one pass, no copies."""
        slots = self._slots
        blocks: list[Block] = []
        append = blocks.append
        for base in self._geometry(leaf):
            count = slots[base]
            if count:
                if count == 1:
                    append(slots[base + 1])
                else:
                    blocks.extend(slots[base + 1 : base + 1 + count])
        return blocks

    def write_path_levels(self, leaf: int, level_buckets: list[list[Block] | None]) -> None:
        """Write a whole path directly into the slot array, level-aligned."""
        slots = self._slots
        z = self._z
        occupancy = self._occupancy
        # Validate before mutating anything so a mid-path overfill cannot
        # leave the slot array and the occupancy counter inconsistent.
        for blocks in level_buckets:
            if blocks and len(blocks) > z:
                raise ConfigurationError(f"bucket overfilled: {len(blocks)} > Z={z}")
        for base, blocks in zip(self._geometry(leaf), level_buckets):
            old = slots[base]
            if blocks:
                count = len(blocks)
                slots[base + 1 : base + 1 + count] = blocks
            elif old:
                count = 0
            else:
                continue
            slots[base] = count
            occupancy += count - old
        self._occupancy = occupancy

    def occupancy(self) -> int:
        """Real blocks stored in the tree — an O(1) maintained counter."""
        return self._occupancy


class EncryptedTreeStorage(TreeStorage):
    """Bucket store that keeps every bucket as randomized ciphertext.

    Each bucket is serialised by :class:`BucketCodec` (real blocks padded
    with dummies up to ``Z``) and encrypted by the supplied cipher, so an
    external observer of this storage sees only ciphertext that changes on
    every write — the property Section 2.2 requires.  A path, or a single
    bucket, is one pass each way (:meth:`open_path` / :meth:`seal_path`).
    """

    def __init__(self, config: ORAMConfig, cipher: BucketCipher) -> None:
        super().__init__(config)
        self._cipher = cipher
        self._codec = BucketCodec(config)
        self._buckets: list[bytes | None] = [None] * config.num_buckets

    def check_payload(self, payload: Any) -> None:
        """Raise :class:`~repro.errors.EncryptionError` for a payload this
        storage's codec cannot carry (:meth:`BucketCodec.check_payload`)."""
        self._codec.check_payload(payload)

    def read_bucket(self, bucket_index: int) -> list[Block]:
        ciphertext = self._buckets[bucket_index]
        if ciphertext is None:
            # Uninitialised DRAM: treated as an empty bucket (the paper's
            # integrity layer handles "never written" buckets explicitly).
            return []
        return self._codec.parse_path(*self._cipher.decrypt_path((bucket_index,), (ciphertext,)))

    def write_bucket(self, bucket_index: int, blocks: list[Block]) -> None:
        if len(blocks) > self._config.z:
            raise ConfigurationError(
                f"bucket {bucket_index} overfilled: {len(blocks)} > Z={self._config.z}"
            )
        sealed = self._cipher.encrypt_path((bucket_index,), *self._codec.frame_path((blocks,)))
        self._buckets[bucket_index] = sealed[0]

    def open_path(self, leaf: int, raw: list[bytes]) -> list[Block]:
        """The real blocks in the path ciphertexts ``raw`` (as :meth:`raw_path`
        returns them, root first); never-written buckets (``b""``) are skipped."""
        written = [index for index, ciphertext in zip(self.path(leaf), raw) if ciphertext]
        return self._codec.parse_path(*self._cipher.decrypt_path(written, [c for c in raw if c]))

    def seal_path(self, leaf: int, level_buckets: list[list[Block] | None]) -> list[bytes]:
        """Encode, encrypt and store the path as :meth:`write_path_levels` does,
        checking every level against ``Z`` first; return the new ciphertexts,
        root first (what :meth:`raw_path` now reads)."""
        z = self._config.z
        for blocks in level_buckets:
            if blocks and len(blocks) > z:
                raise ConfigurationError(f"bucket overfilled: {len(blocks)} > Z={z}")
        path = self.path(leaf)
        sealed = self._cipher.encrypt_path(path, *self._codec.frame_path(level_buckets))
        for bucket_index, ciphertext in zip(path, sealed):
            self._buckets[bucket_index] = ciphertext
        return sealed

    def read_path_blocks(self, leaf: int) -> list[Block]:
        return self.open_path(leaf, self.raw_path(leaf))

    def write_path_levels(self, leaf: int, level_buckets: list[list[Block] | None]) -> None:
        self.seal_path(leaf, level_buckets)

    def raw_bucket(self, bucket_index: int) -> bytes | None:
        """Ciphertext of one bucket as an adversary would see it."""
        return self._buckets[bucket_index]

    def raw_path(self, leaf: int) -> list[bytes]:
        """Raw ciphertext of every bucket on the path to ``leaf``, root first.

        Never-written buckets read as ``b""``.  This is the one read entry
        point the integrity layer verifies against, and the hook point the
        fault injector (:mod:`repro.faults`) intercepts to model a memory
        device returning corrupted, stale or lost data.
        """
        buckets = self._buckets
        return [buckets[index] or b"" for index in self.path(leaf)]
