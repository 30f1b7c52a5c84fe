"""Column-native path execution over :class:`NumpyFlatTreeStorage`.

This module is the ``memmap-flat`` stack's counterpart of the fused
classified fast path in :mod:`repro.core.path_oram`: one
:class:`ColumnEngine` attaches to a :class:`~repro.core.path_oram.PathORAM`
whose storage is the exact column store, and runs whole path operations —
read, classification, greedy write-back — directly on the int64 columns.
No :class:`~repro.core.types.Block` shell is materialised for a block that
enters on the path and leaves on the path (the overwhelmingly common case):

* the path's address/leaf rows are gathered with the fancy-index in the
  storage's per-leaf geometry record (the path's ``(levels+1) * Z`` slot
  rows plus the storage's sentinel row), the same record the storage's
  own path I/O reads;
* every gathered row is classified to the deepest level it may legally
  occupy with vectorised bucket arithmetic — a single table gather for
  moderate trees, ``frexp``-based bit-length arithmetic for trees too deep
  for a table — and the storage's padded-empty invariant makes empty rows
  classify into a dedicated out-of-range class with no masking pass;
* the greedy deepest-first placement runs as *chunk arithmetic* over the
  stable argsort of the classes: candidate pools are (start, stop) spans,
  levels take from the tail of the accumulated span list exactly like the
  list engine's placement walk, and the result is a source-index vector;
* the write-back is three fancy-indexed scatters (addresses, leaves,
  counts) over the whole path, with the sentinel source expressing empty
  destination slots — the payload column is gathered and scattered *only
  when a real payload was ever attached* (``storage.has_payloads``).

Blocks that genuinely cross the tree/stash boundary — spilled path blocks,
placed stash blocks, the accessed block itself — are the only ones that
touch Python ``Block`` shells, so the stash keeps its exact list-engine
representation and the engine stays **bit-identical** to the list-backed
flat stack: same RNG draws, same stash contents, same tree layout, same
statistics.  ``tests/test_access_many.py`` pins this differentially.

The module imports NumPy at module level and must therefore only be
imported when a columnar storage instance already exists (which implies
NumPy is available); :class:`~repro.core.path_oram.PathORAM` guards the
import accordingly, keeping the pure-Python suite importable without
NumPy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.numpy_tree import NumpyFlatTreeStorage
from repro.core.types import Block

#: Largest tree depth for which the engine precomputes the classification
#: table (``2^(levels+1)`` int64 entries — 1 MiB at 16 levels); deeper
#: trees classify with vectorised frexp bit-length arithmetic instead.
_TABLE_LEVELS = 16

#: Marker chunk for the accessed block inside the placement span lists.
_VIRTUAL = (-1, -1)


class ColumnEngine:
    """The column engine's path op for one PathORAM.

    Build through :meth:`for_oram`, which returns ``None`` when the engine
    cannot guarantee bit-identical semantics (wrapper storages, grouped
    super blocks, single-leaf trees).  The engine is an op, not a loop:
    the ORAM installs :meth:`_path_op` as its own path op, and every entry
    point (the trace loop, single accesses, dummies, the recursive
    chain's position-map and data steps) calls it there.
    """

    @classmethod
    def for_oram(cls, oram) -> "ColumnEngine | None":
        storage = oram.storage
        # Exact type only: a subclass may intercept bucket/path methods,
        # which the engine's direct column access would bypass — unless the
        # subclass declares itself engine-native (the memory-mapped stack:
        # its only interception need is the pre-write journaling hook the
        # engine honours via ``note_path_write``).
        if type(storage) is not NumpyFlatTreeStorage and not getattr(
            type(storage), "column_engine_native", False
        ):
            return None
        if not oram._single_member_groups or not oram._draw_bits:  # noqa: SLF001
            return None
        return cls(oram)

    def __init__(self, oram) -> None:
        storage: NumpyFlatTreeStorage = oram.storage
        self._storage = storage
        # Durable storages journal dirty pages before they are mutated; the
        # engine calls this once per path op, with the path's geometry
        # record, just before its scatters.
        self._note_path_write = getattr(storage, "note_path_write", None)
        config = oram.config
        self._levels = levels = config.levels
        self._z = z = config.z
        self._grid = grid = (levels + 1) * z
        #: Index of the sentinel inside *gathered* arrays (they carry the
        #: grid's rows plus the sentinel row last).
        self._sentinel_src = grid
        self._empty_class = levels + 1
        # Columns (friend access, like the list engine's _slots fast path).
        self._addresses = storage._addresses  # noqa: SLF001
        self._leaves = storage._leaves  # noqa: SLF001
        self._data = storage._data  # noqa: SLF001
        self._counts = storage._counts  # noqa: SLF001
        # Classification: deepest legal level of a block with leaf b on the
        # path to leaf l is levels - bit_length(b ^ l); empty rows carry an
        # out-of-range leaf, so their diff has bit ``levels`` set and they
        # land in the dedicated empty class levels + 1.
        if levels <= _TABLE_LEVELS:
            self._class_table = self._build_class_table()
        else:
            self._class_table = None
        # Scratch reused by every op: source index per destination slot
        # (sentinel = leave empty), plus the XOR out-buffer so the hot
        # read's classification input never allocates.
        self._src_buf = np.empty(grid, dtype=np.int64)
        self._diff_buf = np.empty(grid + 1, dtype=np.int64)

    def _build_class_table(self) -> np.ndarray:
        levels = self._levels
        diffs = np.arange(1 << (levels + 1), dtype=np.int64)
        bit_length = np.frexp(diffs.astype(np.float64))[1]
        return (levels - bit_length) % (levels + 2)

    def _classify(self, diffs: np.ndarray) -> np.ndarray:
        table = self._class_table
        if table is not None:
            return table[diffs]
        bit_length = np.frexp(diffs.astype(np.float64))[1]
        return (self._levels - bit_length) % (self._levels + 2)

    def _class_of(self, diff: int) -> int:
        """Python-side classification for the accessed block."""
        return self._levels - diff.bit_length()

    # ------------------------------------------------------------------
    # The column-native path operation
    # ------------------------------------------------------------------
    @staticmethod
    def _path_op(
        oram,
        address: int | None,
        leaf: int,
        new_leaf: int,
        is_write: bool,
        data: Any,
        slot: int | None,
        child_new_leaf: int,
        labels_per_block: int,
        child_num_leaves: int,
    ):
        """One full path operation (read, block update, write-back).

        Three modes share the body, exactly like the list engine's
        ``_fused_single_access``:

        * ``address is None`` — dummy access: no block is located or
          remapped, the path is just read and greedily written back.
        * ``slot is None`` — data access: returns ``(result_data, found)``.
        * ``slot`` set — position-map access: its label vector is updated
          in place and ``(displaced_child_leaf, labels)`` is returned.

        In both access modes a block the ORAM does not hold is created
        with an empty payload (the whole address space logically exists).
        A static method of the ORAM and the op's 9 arguments, like the
        list engine's op, so the ORAM can keep it as its ``_path_op``
        without a reference cycle; the engine is ``oram._column_engine``.
        The caller has validated the address and updated the position map.
        """
        engine = oram._column_engine  # noqa: SLF001
        levels = engine._levels
        z = engine._z
        stash_blocks = oram._stash_blocks  # noqa: SLF001
        by_leaf = oram._stash_by_leaf  # noqa: SLF001
        storage = engine._storage
        addresses_col = engine._addresses
        leaves_col = engine._leaves
        data_col = engine._data

        if oram._record_path_trace:  # noqa: SLF001
            oram._path_trace.append(leaf)  # noqa: SLF001

        # The storage's per-leaf record: gather index (sentinel last),
        # scatter rows, bucket indices, first slot row per bucket.
        geometry = storage._geometry(leaf)  # noqa: SLF001
        rows_ext, rows, buckets, bases = geometry[:4]

        # ---- gather + vectorised classification ----
        lvs = leaves_col[rows_ext]
        table = engine._class_table
        if table is not None:
            diff = np.bitwise_xor(lvs, leaf, out=engine._diff_buf)
            cls = table[diff]
        else:
            cls = engine._classify(lvs ^ leaf)
        order = cls.argsort(kind="stable")
        cnt = np.bincount(cls, minlength=levels + 2).tolist()
        addrs = addresses_col[rows_ext]
        gather_payloads = storage.has_payloads
        data_g = data_col[rows_ext] if gather_payloads else None
        live = engine._grid + 1 - cnt[levels + 1]
        pending = live  # grows by the stash candidates below

        # ---- locate the accessed block ----
        block = None
        in_stash = False
        target_pos = -1  # position within `order`
        target_src = -1  # index within the gathered arrays
        if address is not None:
            block = stash_blocks.get(address)
            in_stash = block is not None
            if not in_stash and cnt[levels]:
                # A block's stored leaf always equals its position-map
                # leaf, so the accessed block can only sit in the deepest
                # class (diff == 0).  Scan that small pool in read order.
                for pos in range(live - cnt[levels], live):
                    src = int(order[pos])
                    if int(addrs[src]) == address:
                        target_pos = pos
                        target_src = src
                        break

        transient = len(stash_blocks) + pending
        if transient > oram._transient_peak:  # noqa: SLF001
            oram._transient_peak = transient  # noqa: SLF001
        stats = oram._stats  # noqa: SLF001
        stats.path_reads += 1
        stats.blocks_read += pending

        # ---- block update / retarget (mirrors _fused_single_access) ----
        found = True
        virtual_class = -1
        virtual_payload = None
        stash = oram._stash  # noqa: SLF001
        if address is None:
            found = False
        elif in_stash:
            stash.retarget(address, new_leaf)
        elif target_pos >= 0:
            # Retargeted, then classified last in its class pool (the
            # shared tie-break order); stays columnar via a virtual chunk.
            virtual_class = engine._class_of(new_leaf ^ leaf)
            virtual_payload = data_g[target_src] if gather_payloads else None
        else:
            found = False
            block = Block(address=address, leaf=new_leaf, data=None)
            stash.add(block)

        # Mode-specific payload handling.
        if slot is not None:
            if virtual_class >= 0:
                labels = virtual_payload
                if labels is None:
                    randrange = oram._rng.randrange  # noqa: SLF001
                    labels = [
                        randrange(child_num_leaves) for _ in range(labels_per_block)
                    ]
                virtual_payload = labels
            else:
                labels = block.data
                if labels is None:
                    randrange = oram._rng.randrange  # noqa: SLF001
                    labels = [
                        randrange(child_num_leaves) for _ in range(labels_per_block)
                    ]
                    block.data = labels
            result = labels[slot]
            labels[slot] = child_new_leaf
        elif virtual_class >= 0:
            if is_write:
                virtual_payload = data
            result = virtual_payload
        elif block is not None:
            if is_write:
                block.data = data
            result = block.data
        else:
            result = None

        # ---- bucket stash candidates by deepest legal level ----
        by_stash = oram._by_deepest_stash  # noqa: SLF001
        pooled = oram._pool_stash(leaf) if by_leaf else 0  # noqa: SLF001
        pending += pooled
        has_stash = pooled != 0

        # ---- placement: chunk arithmetic over the argsorted classes ----
        # `avail` accumulates candidate spans deepest-class-first; each
        # level takes up to Z from its tail — the exact selection and
        # ordering rule of the list engine's placement walk.  Class-d's
        # pool sits at order[hi - cnt[d] : hi] (pools are laid out in
        # ascending class order by the stable argsort).
        src_buf = engine._src_buf
        src_buf[:] = engine._sentinel_src
        avail: list[tuple[int, int]] = []
        avail_len = 0
        avail_stash: list[Block] = []
        ns = 0
        placed_stash: list[Block] | None = [] if has_stash else None
        scalar_rows: list[tuple[int, Block]] = []
        virtual_dest = -1
        takes = [0] * (levels + 1)
        written = 0
        hi = live
        for d in range(levels, -1, -1):
            c = cnt[d]
            lo = hi - c
            if has_stash:
                s_ready = by_stash[d]
                if s_ready:
                    avail_stash.extend(s_ready)
                    s_ready.clear()
                    ns = len(avail_stash)
            # Fast lane: nothing carried over, no stash competitor, no
            # special block in this class — the pool is this level's
            # bucket verbatim (the dominant steady-state case).
            if (
                not avail_len
                and not ns
                and c <= z
                and virtual_class != d
                and (target_pos < 0 or d != levels)
            ):
                if c:
                    src_buf[d * z : d * z + c] = order[lo:hi]
                    takes[d] = c
                    written += c
                    if written == pending:
                        hi = lo
                        break
                hi = lo
                continue
            if c:
                if d == levels and target_pos >= 0:
                    if lo < target_pos:
                        avail.append((lo, target_pos))
                        avail_len += target_pos - lo
                    if target_pos + 1 < hi:
                        avail.append((target_pos + 1, hi))
                        avail_len += hi - target_pos - 1
                else:
                    avail.append((lo, hi))
                    avail_len += c
            hi = lo
            if virtual_class == d:
                avail.append(_VIRTUAL)
                avail_len += 1
            take = avail_len if avail_len < z else z
            if take:
                # Pop `take` entries off the tail, preserving sequence
                # order among the popped chunks.
                need = take
                popped: list[tuple[int, int]] = []
                while need:
                    chunk = avail[-1]
                    if chunk is _VIRTUAL:
                        popped.append(chunk)
                        avail.pop()
                        need -= 1
                    else:
                        a, b = chunk
                        span = b - a
                        if span <= need:
                            popped.append(chunk)
                            avail.pop()
                            need -= span
                        else:
                            popped.append((b - need, b))
                            avail[-1] = (a, b - need)
                            need = 0
                avail_len -= take
                popped.reverse()
                base_row = bases[d]
                grid_pos = d * z
                pos = 0
                for chunk in popped:
                    if chunk is _VIRTUAL:
                        virtual_dest = base_row + pos
                        pos += 1
                    else:
                        a, b = chunk
                        src_buf[grid_pos + pos : grid_pos + pos + b - a] = order[a:b]
                        pos += b - a
            if ns and take < z:
                extra = z - take if z - take < ns else ns
                ns -= extra
                placed = avail_stash[ns:]
                del avail_stash[ns:]
                base_row = bases[d]
                for offset, placed_block in enumerate(placed):
                    scalar_rows.append((base_row + take + offset, placed_block))
                placed_stash.extend(placed)
                take += extra
            takes[d] = take
            written += take
            if written == pending:
                # Every candidate is placed; shallower levels stay empty
                # (the sentinel default in src_buf and the zero takes
                # clear their buckets).
                break

        # ---- scatter the whole path back (sentinel source = empty) ----
        note = engine._note_path_write
        if note is not None:
            note(geometry)
        addresses_col[rows] = addrs[src_buf]
        leaves_col[rows] = lvs[src_buf]
        if gather_payloads:
            data_col[rows] = data_g[src_buf]
        engine._counts[buckets] = takes
        has_payloads = gather_payloads
        if virtual_dest >= 0:
            addresses_col[virtual_dest] = address
            leaves_col[virtual_dest] = new_leaf
            if virtual_payload is not None:
                data_col[virtual_dest] = virtual_payload
                has_payloads = True
            elif gather_payloads:
                data_col[virtual_dest] = None
        for row, placed_block in scalar_rows:
            addresses_col[row] = placed_block.address
            leaves_col[row] = placed_block.leaf
            payload = placed_block.data
            if payload is not None:
                data_col[row] = payload
                has_payloads = True
            elif gather_payloads:
                data_col[row] = None
        if has_payloads and not gather_payloads:
            storage.has_payloads = True
        storage._occupancy += written - live  # noqa: SLF001

        # ---- stash bookkeeping for both remainders ----
        if placed_stash:
            stash.remove_placed(placed_stash)
        if avail:
            # Leftover buffer chunks genuinely enter the stash, in the
            # exact sequence order the list engine's avail_buffer holds.
            add = stash.add
            for chunk in avail:
                if chunk is _VIRTUAL:
                    add(Block(address=address, leaf=new_leaf, data=virtual_payload))
                else:
                    a, b = chunk
                    for src in order[a:b].tolist():
                        payload = data_g[src] if gather_payloads else None
                        add(Block(address=int(addrs[src]), leaf=int(lvs[src]), data=payload))

        stats.path_writes += 1
        stats.blocks_written += written

        if slot is not None:
            return result, labels
        return result, found
