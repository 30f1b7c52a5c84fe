"""NumPy slot-array tree storage: the column layout under ``memmap-flat``.

:class:`NumpyFlatTreeStorage` keeps the ORAM tree as *columns* instead of a
list of Python objects: per-bucket occupancy counts plus per-slot address
and leaf labels live in preallocated int64 ndarrays, and only the opaque
payloads stay in an aligned object column.  Whole-path reads gather the
path's slot rows with the storage's per-leaf geometry record, and the
flattened write-back scatters counts and slot columns back with slice
assignments — the ndarray version of
:class:`~repro.core.tree.FlatTreeStorage`'s batched path operations.

Two invariants make the columns *self-describing*, which is what the
column-native execution engine (:mod:`repro.core.numpy_engine`) relies on
to run whole path operations without materialising a single Python
:class:`~repro.core.types.Block`:

* every slot row at or past its bucket's count holds ``address == -1``,
  ``leaf == empty_leaf`` (``2**levels``, outside the real label range) and
  ``data is None`` — vacated rows are re-padded on every write, so a row's
  own columns say whether it is live, and an empty row's leaf classifies
  into a dedicated out-of-range class with no masking pass;
* one extra *sentinel row* sits at the very end of the columns,
  permanently empty, so a gather index pointing at it reads an empty slot
  — the engine's scatter uses it to express "this destination slot stays
  empty" inside a single fancy-indexed assignment.

The Block-shell protocol still works unchanged (path reads materialise
shells from the columns, path writes decompose them again), so the
columns stay bit-identical to the list-backed flat storage whether the
column engine is active or not — the differential property tests enforce
it.

This class is not a registered stack of its own: in RAM the list-backed
``flat`` stack is faster at every tree size measured.  It is the base of
:class:`~repro.core.memmap_tree.MemmapTreeStorage`, which homes the same
columns in an on-disk file, and tests build it directly as an in-RAM twin
of that stack.  This module must only be imported when NumPy is
available; :mod:`repro.backends` guards the import and simply does not
register ``memmap-flat`` otherwise, so the pure-Python suite keeps
passing without NumPy installed.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import ORAMConfig
from repro.core.tree import TreeStorage, path_indices
from repro.core.types import Block
from repro.errors import ConfigurationError

#: Column value marking an empty slot (addresses are >= 1, dummies are 0).
_EMPTY = -1


class NumpyFlatTreeStorage(TreeStorage):
    """Column-oriented bucket store backed by NumPy slot arrays.

    Layout: bucket ``i`` owns slot rows ``[i*Z, (i+1)*Z)`` of the
    ``address``, ``leaf`` and ``data`` columns; ``counts[i]`` is
    authoritative for how many leading rows hold real blocks, and rows past
    the count are kept padded empty (see the module invariants).
    """

    #: Class marker the protocol checks (without importing this module) to
    #: decide whether the column-native execution engine can attach.
    columnar = True

    def __init__(self, config: ORAMConfig) -> None:
        super().__init__(config)
        self._z = config.z
        num_buckets = config.num_buckets
        num_rows = num_buckets * config.z
        #: Leaf value stored in empty rows: one past the real label range,
        #: so ``empty_leaf ^ leaf`` always has bit ``levels`` set and the
        #: engine's classification table maps every empty row to one
        #: dedicated out-of-range class.
        self.empty_leaf = 1 << config.levels
        self._allocate_columns(num_buckets, num_rows)
        #: False until any non-None payload lands in the data column.  While
        #: False the column is provably all-``None`` and the engine skips
        #: the payload gather/scatter entirely.
        self.has_payloads = False
        self._occupancy = 0

    def _allocate_columns(self, num_buckets: int, num_rows: int) -> None:
        """Provision the three numeric columns plus the payload column.

        Subclasses override this to home the numeric columns somewhere
        other than fresh in-RAM ndarrays (the memory-mapped stack points
        them at regions of an on-disk file) while keeping every invariant
        above: int64 dtype, one permanently empty sentinel row, empty rows
        padded with ``_EMPTY`` / ``empty_leaf``.
        """
        self._counts = np.zeros(num_buckets, dtype=np.int64)
        # One sentinel row past the end, permanently empty (see module doc).
        self._addresses = np.full(num_rows + 1, _EMPTY, dtype=np.int64)
        self._leaves = np.full(num_rows + 1, self.empty_leaf, dtype=np.int64)
        # Payloads are arbitrary Python objects (None, bytes, label lists);
        # they ride in an aligned *object ndarray* column so the engine can
        # gather/scatter them with the same fancy indices as the numeric
        # columns — but only when a real payload was ever attached.
        self._data = np.full(num_rows + 1, None, dtype=object)

    # ------------------------------------------------------------------
    # Bucket interface
    # ------------------------------------------------------------------
    def read_bucket(self, bucket_index: int) -> list[Block]:
        count = int(self._counts[bucket_index])
        if not count:
            return []
        row = bucket_index * self._z
        addresses = self._addresses
        leaves = self._leaves
        data = self._data
        return [
            Block(
                address=int(addresses[slot]),
                leaf=int(leaves[slot]),
                data=data[slot],
            )
            for slot in range(row, row + count)
        ]

    def write_bucket(self, bucket_index: int, blocks: list[Block]) -> None:
        count = len(blocks)
        z = self._z
        if count > z:
            raise ConfigurationError(
                f"bucket {bucket_index} overfilled: {count} > Z={z}"
            )
        row = bucket_index * z
        addresses = self._addresses
        leaves = self._leaves
        data = self._data
        has_payloads = self.has_payloads
        for offset, block in enumerate(blocks):
            slot = row + offset
            addresses[slot] = block.address
            leaves[slot] = block.leaf
            payload = block.data
            data[slot] = payload
            if payload is not None:
                has_payloads = True
        self.has_payloads = has_payloads
        if count < z:
            # Re-pad the vacated tail so the columns stay self-describing.
            addresses[row + count : row + z] = _EMPTY
            leaves[row + count : row + z] = self.empty_leaf
            data[row + count : row + z] = None
        old = int(self._counts[bucket_index])
        self._counts[bucket_index] = count
        self._occupancy += count - old

    # ------------------------------------------------------------------
    # Batched path operations: gathers and scatters over the columns
    # ------------------------------------------------------------------
    def _build_geometry(self, leaf: int) -> tuple:
        """This stack's per-leaf record, shared by its own path I/O and the
        column engine: ``(rows_ext, rows, buckets, bases)`` — the gather
        index (the path's slot rows root first, then the sentinel row), its
        view without the sentinel (the scatter destination), the path's
        bucket indices as an ndarray and their first slot rows as ints.
        Subclasses may append fields (the memory-mapped stack adds its page
        set); readers take the first four."""
        buckets = np.asarray(path_indices(leaf, self._config.levels), dtype=np.int64)
        bases = buckets * self._z
        rows_ext = np.empty(bases.size * self._z + 1, dtype=np.int64)
        rows_ext[:-1] = (bases[:, None] + np.arange(self._z)).ravel()
        rows_ext[-1] = self._config.num_buckets * self._z
        return rows_ext, rows_ext[:-1], buckets, bases.tolist()

    def path(self, leaf: int) -> tuple[int, ...]:
        """Bucket indices to ``leaf``, recomputed: this stack caches the
        record above instead."""
        return tuple(path_indices(leaf, self._config.levels))

    def read_path_blocks(self, leaf: int) -> list[Block]:
        """Materialise every real block on the path from the columns.

        One gather of the path's count column decides which slot rows are
        live; the address/leaf columns for those rows are pulled in two
        fancy-indexed reads instead of a Python loop per bucket.
        """
        buckets, bases = self._geometry(leaf)[2:4]
        counts = self._counts[buckets]
        total = int(counts.sum())
        if not total:
            return []
        # Slot rows of the occupied prefix of every path bucket.
        rows = np.concatenate(
            [
                np.arange(base, base + count)
                for base, count in zip(bases, counts.tolist())
                if count
            ]
        )
        addresses = self._addresses[rows].tolist()
        leaves = self._leaves[rows].tolist()
        data = self._data
        return [
            Block(address=address, leaf=block_leaf, data=data[row])
            for address, block_leaf, row in zip(addresses, leaves, rows.tolist())
        ]

    def write_path_levels(self, leaf: int, level_buckets) -> None:
        """Scatter a whole path back into the columns, level-aligned."""
        z = self._z
        for blocks in level_buckets:
            if blocks and len(blocks) > z:
                raise ConfigurationError(f"bucket overfilled: {len(blocks)} > Z={z}")
        buckets, bases = self._geometry(leaf)[2:4]
        counts = self._counts
        addresses = self._addresses
        leaves = self._leaves
        data = self._data
        empty_leaf = self.empty_leaf
        has_payloads = self.has_payloads
        occupancy = self._occupancy
        for bucket_index, base, blocks in zip(buckets.tolist(), bases, level_buckets):
            old = int(counts[bucket_index])
            if blocks:
                count = len(blocks)
                addresses[base : base + count] = [block.address for block in blocks]
                leaves[base : base + count] = [block.leaf for block in blocks]
                # Scalar stores: a slice assignment would let NumPy coerce a
                # list of equal-length payload lists into a 2-D array.
                for offset, block in enumerate(blocks):
                    payload = block.data
                    data[base + offset] = payload
                    if payload is not None:
                        has_payloads = True
            elif old:
                count = 0
            else:
                continue
            if count < old:
                # Re-pad vacated rows (rows past ``old`` are already empty).
                addresses[base + count : base + old] = _EMPTY
                leaves[base + count : base + old] = empty_leaf
                data[base + count : base + old] = None
            counts[bucket_index] = count
            occupancy += count - old
        self.has_payloads = has_payloads
        self._occupancy = occupancy

    def occupancy(self) -> int:
        """Real blocks stored in the tree — an O(1) maintained counter."""
        return self._occupancy
