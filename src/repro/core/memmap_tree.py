"""Durable memory-mapped column storage (the ``memmap-flat`` stack).

:class:`MemmapTreeStorage` keeps the exact self-describing int64 column
layout of :class:`~repro.core.numpy_tree.NumpyFlatTreeStorage` — per-bucket
occupancy counts plus per-slot address and leaf labels, one permanently
empty sentinel row, vacated rows re-padded — but homes the numeric columns
in page-aligned regions of one on-disk file via ``np.memmap``.  The
column-native execution engine (:mod:`repro.core.numpy_engine`) runs on the
mapped columns unchanged, so beyond-RAM trees pay only the page-cache cost;
opaque payloads (position-map label lists, user data) live in a pickled
sidecar file because they are Python objects, not fixed-width words.

Durability is the point of the stack.  The file carries a **generation
header commit protocol**:

* two header slots (pages 0 and 1) are double-buffered by generation
  parity; each header is self-checksummed (sha256 over the packed fields
  plus the pickled :class:`~repro.core.config.ORAMConfig`) so a torn
  header write invalidates only that slot and ``open()`` falls back to the
  other one;
* a **page checksum table** records sha256 of every data page, letting
  ``open()`` detect torn or lost column writes that a bare memmap would
  silently serve back;
* in-place column updates are **undo-journaled**: before the first write
  to a page in an epoch its pre-image is appended to ``<file>.journal``
  (fsynced eagerly in ``sync="strict"`` mode), so a crash mid-epoch rolls
  the file back to the last committed generation;
* :meth:`commit` orders ``journal fsync → checksum table update → data
  fsync → sidecar replace → header write → header fsync``; the header
  fsync is the commit point.  Archived undo journals and header copies
  (``<file>.undo/``) let a committed generation be rolled back again,
  which is what pins :meth:`snapshot`-based restore bit-identically.

``open()`` therefore either lands on the last committed generation —
recovering from torn data pages, torn headers, a stale or torn journal and
a half-replaced sidecar — or raises a typed
:class:`~repro.errors.DurabilityError` (truncation, checksum mismatch with
no applicable journal, pruned history, external rollback).  It never
returns a silently corrupt tree; the seeded crash-injection property tests
(``tests/test_memmap.py`` with :class:`repro.faults.CrashInjector`) walk
every commit-protocol crash point to prove it.

Checkpoints shrink from O(slots) to O(1): pickling this storage commits
and captures a *durable generation reference* (path, store id, generation,
column checksum) plus the sparse payload objects, not the columns;
unpickling reopens the file and — when the store moved past the referenced
generation — rolls it back through the archived undo journals.

This module must only be imported when NumPy is available;
:mod:`repro.backends` guards the import and does not register the
``memmap-flat`` stack without it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import uuid
from typing import Any, Callable

import numpy as np

from repro.core.config import ORAMConfig
from repro.core.numpy_tree import _EMPTY, NumpyFlatTreeStorage
from repro.errors import ConfigurationError, DurabilityError

__all__ = ["MemmapTreeStorage", "CRASH_POINTS", "SYNC_MODES", "column_digest"]

#: Durability granularity: checksums, journaling and header slots all work
#: on pages of this size (the common filesystem block size).
PAGE_SIZE = 4096

#: Journal fsync policy: ``"strict"`` syncs pre-images before the columns
#: they protect are first written (crash ⇒ guaranteed rollback),
#: ``"relaxed"`` syncs only at commit (faster epochs; a crash mid-epoch may
#: surface as a typed error instead of a recovery).
SYNC_MODES = ("strict", "relaxed")

#: Commit-protocol crash points, in protocol order.  The hook installed via
#: :meth:`MemmapTreeStorage.set_crash_hook` fires with the tag *before* the
#: named action executes; :class:`repro.faults.CrashInjector` uses them to
#: kill the protocol between any two durable steps.
CRASH_POINTS = (
    "journal-append",
    "journal-sync",
    "commit-begin",
    "commit-journal-sync",
    "table-update",
    "data-sync",
    "payload-archive",
    "payload-write",
    "payload-sync",
    "payload-rename",
    "header-write",
    "header-sync",
    "journal-archive",
    "header-archive",
    "prune",
)

_MAGIC = b"RPMMCOL1"
_FORMAT_VERSION = 1
_JOURNAL_MAGIC = b"RPMMJNL1"
_RECORD_MAGIC = b"JRC1"
_SHA_BYTES = 32
_ZERO_SHA = b"\x00" * _SHA_BYTES

#: Packed header prefix (followed by the pickled config, then sha256 over
#: everything before it): magic, version, flags, store id, generation,
#: num_buckets, num_rows, occupancy, payload length, Z, levels, page size,
#: config length, payload sha, table sha.
_HEADER_FMT = "<8sII16sQQQQQIIII32s32s"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)
_FLAG_PAYLOADS = 1

_JOURNAL_HEADER_FMT = "<8s16sI4x"
_JOURNAL_HEADER_SIZE = struct.calcsize(_JOURNAL_HEADER_FMT)
_RECORD_PREFIX_FMT = "<4sQQ"
_RECORD_PREFIX_SIZE = struct.calcsize(_RECORD_PREFIX_FMT)


def _page_round(n: int, page: int) -> int:
    return -(-n // page) * page


class _Layout:
    """Page-aligned region offsets for one tree geometry.

    Every region length is rounded up to a whole page so no page spans two
    regions — a page's checksum depends on exactly one column (padding
    bytes inside a region's last page are written once and never change).
    """

    def __init__(self, num_buckets: int, num_rows: int, page: int) -> None:
        self.page = page
        self.counts_len = _page_round(num_buckets * 8, page)
        self.col_len = _page_round((num_rows + 1) * 8, page)
        self.data_len = self.counts_len + 2 * self.col_len
        self.num_data_pages = self.data_len // page
        self.table_off = 2 * page
        self.table_len = _page_round(self.num_data_pages * _SHA_BYTES, page)
        self.data_off = self.table_off + self.table_len
        self.counts_off = self.data_off
        self.addr_off = self.counts_off + self.counts_len
        self.leaf_off = self.addr_off + self.col_len
        self.total = self.data_off + self.data_len


class _Header:
    """One parsed (and checksum-verified) generation header."""

    __slots__ = (
        "flags",
        "store_id",
        "generation",
        "num_buckets",
        "num_rows",
        "occupancy",
        "payload_len",
        "z",
        "levels",
        "payload_sha",
        "table_sha",
        "config",
        "blob",
    )

    @classmethod
    def parse(cls, blob: bytes) -> "_Header | None":
        """Parse a header page; ``None`` when it is torn or not a header."""
        if len(blob) < _HEADER_SIZE + _SHA_BYTES:
            return None
        try:
            fields = struct.unpack_from(_HEADER_FMT, blob, 0)
        except struct.error:  # pragma: no cover - guarded by the length check
            return None
        (magic, version, flags, store_id, generation, num_buckets, num_rows,
         occupancy, payload_len, z, levels, page_size, config_len,
         payload_sha, table_sha) = fields
        if magic != _MAGIC or version != _FORMAT_VERSION:
            return None
        if page_size != PAGE_SIZE:
            return None
        end = _HEADER_SIZE + config_len
        if end + _SHA_BYTES > len(blob):
            return None
        if hashlib.sha256(blob[:end]).digest() != blob[end : end + _SHA_BYTES]:
            return None
        header = cls()
        header.flags = flags
        header.store_id = store_id
        header.generation = generation
        header.num_buckets = num_buckets
        header.num_rows = num_rows
        header.occupancy = occupancy
        header.payload_len = payload_len
        header.z = z
        header.levels = levels
        header.payload_sha = payload_sha
        header.table_sha = table_sha
        header.config = pickle.loads(blob[_HEADER_SIZE:end])
        header.blob = blob[: end + _SHA_BYTES]
        return header


def column_digest(storage: NumpyFlatTreeStorage) -> str:
    """Deterministic fingerprint of a column storage's logical state.

    Covers the numeric columns, the occupancy counter and the sparse
    payload contents (by ``repr``, which is deterministic for the label
    lists and simple payloads the engine stores).  Works for an in-RAM
    :class:`NumpyFlatTreeStorage` and the memmap stack alike, which is what
    lets the crash-injection tests verify recovery against an in-memory
    shadow.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(storage._counts).tobytes())  # noqa: SLF001
    h.update(np.ascontiguousarray(storage._addresses).tobytes())  # noqa: SLF001
    h.update(np.ascontiguousarray(storage._leaves).tobytes())  # noqa: SLF001
    h.update(struct.pack("<Q", storage._occupancy))  # noqa: SLF001
    if storage.has_payloads:
        data = storage._data  # noqa: SLF001
        sparse = [(row, repr(payload)) for row, payload in enumerate(data) if payload is not None]
        h.update(repr(sparse).encode())
    return h.hexdigest()


class MemmapTreeStorage(NumpyFlatTreeStorage):
    """Crash-consistent on-disk column store (see the module docstring).

    Constructing the class **creates a fresh store** at ``path``
    (truncating any previous file there); reattaching to an existing store
    goes through :meth:`open` — or transparently through pickling, which
    stores a durable generation reference instead of the columns.
    """

    #: The column engine may attach even though this is a subclass: every
    #: direct column mutation it performs is preceded by a
    #: :meth:`note_path_write` call covering the same rows.
    column_engine_native = True

    def __init__(
        self,
        config: ORAMConfig,
        path: str | os.PathLike,
        *,
        sync: str = "strict",
        history_generations: int = 4,
        _recover: dict | None = None,
    ) -> None:
        if sync not in SYNC_MODES:
            raise ConfigurationError(f"unknown sync mode {sync!r}; expected one of {SYNC_MODES}")
        if history_generations < 1:
            raise ConfigurationError("history_generations must be >= 1")
        self._file_path = os.fspath(path)
        self._journal_path = self._file_path + ".journal"
        self._payload_path = self._file_path + ".payload"
        self._undo_dir = self._file_path + ".undo"
        self._sync = sync
        self._history = history_generations
        self._recover_opts = _recover
        self._crash_hook: Callable[[str], None] | None = None
        self._closed = False
        super().__init__(config)
        del self._recover_opts
        if _recover is not None:
            # The base initialiser reset these to the empty-tree defaults;
            # the recovered header is authoritative.
            self.has_payloads = bool(self._committed.flags & _FLAG_PAYLOADS)
            self._occupancy = self._committed.occupancy

    # ------------------------------------------------------------------
    # Construction / recovery
    # ------------------------------------------------------------------
    def _allocate_columns(self, num_buckets: int, num_rows: int) -> None:
        layout = _Layout(num_buckets, num_rows, PAGE_SIZE)
        self._layout = layout
        self._page_size = PAGE_SIZE
        self._data_first_page = layout.data_off // PAGE_SIZE
        self._epoch_pages: dict[int, bytes] = {}
        self._header_pending: tuple[int, bytes] | None = None
        self._data_synced = True
        os.makedirs(self._undo_dir, exist_ok=True)
        if self._recover_opts is None:
            self._create(layout, num_buckets, num_rows)
        else:
            self._attach(layout, num_buckets, num_rows, self._recover_opts)

    def _create(self, layout: _Layout, num_buckets: int, num_rows: int) -> None:
        fd = os.open(self._file_path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        os.ftruncate(fd, layout.total)
        self._fd = fd
        self._store_id = uuid.uuid4().bytes
        self._generation = 0
        self._payload_sha = _ZERO_SHA
        self._map_columns(layout, num_buckets, num_rows)
        self._counts[:] = 0
        self._addresses[:] = _EMPTY
        self._leaves[:] = self.empty_leaf
        table = self._table
        raw = self._raw
        for page in range(layout.num_data_pages):
            off = layout.data_off + page * PAGE_SIZE
            digest = hashlib.sha256(raw[off : off + PAGE_SIZE].tobytes()).digest()
            table[page * _SHA_BYTES : (page + 1) * _SHA_BYTES] = np.frombuffer(
                digest, dtype=np.uint8
            )
        self._table_sha = hashlib.sha256(table.tobytes()).digest()
        raw.flush()
        os.fsync(fd)
        header = self._pack_header(0, 0, False, 0, _ZERO_SHA, self._table_sha)
        os.pwrite(fd, header, 0)
        os.fsync(fd)
        self._archive_header(0, header)
        self._committed = _Header.parse(os.pread(fd, PAGE_SIZE, 0))
        self._open_fresh_journal()

    def _attach(self, layout: _Layout, num_buckets: int, num_rows: int, recover: dict) -> None:
        path = self._file_path
        try:
            fd = os.open(path, os.O_RDWR)
        except OSError as exc:
            raise DurabilityError(f"no durable store at {path!r}: {exc}") from exc
        self._fd = fd
        size = os.fstat(fd).st_size
        if size < layout.total:
            raise DurabilityError(
                f"{path!r} is truncated: {size} bytes on disk, the described "
                f"layout needs {layout.total}"
            )
        slots = [
            _Header.parse(os.pread(fd, PAGE_SIZE, 0)),
            _Header.parse(os.pread(fd, PAGE_SIZE, PAGE_SIZE)),
        ]
        headers = [h for h in slots if h is not None]
        if not headers:
            raise DurabilityError(f"{path!r} has no intact generation header (both slots torn)")
        header = max(headers, key=lambda h: h.generation)
        if (
            header.num_buckets != num_buckets
            or header.num_rows != num_rows
            or header.z != self._z
            or (1 << header.levels) != self.empty_leaf
        ):
            raise DurabilityError(
                f"{path!r} describes a different tree geometry "
                f"({header.num_buckets} buckets / Z={header.z}) than the "
                f"given configuration ({num_buckets} buckets / Z={self._z})"
            )
        expect_id = recover.get("expect_store_id")
        if expect_id is not None and expect_id != header.store_id:
            raise DurabilityError(
                f"{path!r} holds a different store than the durable "
                "reference (store id mismatch — the file was replaced)"
            )
        # Live journal: roll the current epoch back, or archive a stale one.
        base, records = self._parse_journal(self._journal_path, header.store_id)
        if records and base == header.generation:
            for page, image in records:
                os.pwrite(fd, image, page * PAGE_SIZE)
            os.fsync(fd)
        elif records and base == header.generation - 1:
            # The commit completed but crashed before archiving its journal.
            dest = self._undo_file(f"gen-{header.generation}.journal")
            if not os.path.exists(dest):
                os.replace(self._journal_path, dest)
        elif records:
            raise DurabilityError(
                f"journal for {path!r} belongs to generation {base + 1}, the "
                f"file is at generation {header.generation} — divergent history"
            )
        target = recover.get("at_generation")
        if target is not None:
            if header.generation < target:
                raise DurabilityError(
                    f"{path!r} is at generation {header.generation}, behind "
                    f"the durable reference ({target}) — externally rolled back"
                )
            if header.generation > target:
                header = self._rollback_to(fd, header, target)
        if not self._verify_pages(fd, layout, header):
            raise DurabilityError(
                f"{path!r} fails page checksum verification at generation "
                f"{header.generation} (torn or lost write beyond journal reach)"
            )
        expect_sha = recover.get("expect_table_sha")
        if expect_sha is not None and expect_sha != header.table_sha:
            raise DurabilityError(
                f"{path!r} generation {header.generation} does not match the "
                "durable reference's column checksum — divergent history"
            )
        payloads = self._recover_payloads(header)
        self._store_id = header.store_id
        self._generation = header.generation
        self._table_sha = header.table_sha
        self._payload_sha = (header.payload_sha if header.flags & _FLAG_PAYLOADS else _ZERO_SHA)
        self._committed = header
        self._map_columns(layout, num_buckets, num_rows)
        data = self._data
        for row, payload in payloads.items():
            data[row] = payload
        self._open_fresh_journal()

    def _map_columns(self, layout: _Layout, num_buckets: int, num_rows: int) -> None:
        raw = np.memmap(self._file_path, dtype=np.uint8, mode="r+")
        self._raw = raw
        self._table = raw[layout.table_off : layout.table_off + layout.table_len]
        self._counts = raw[layout.counts_off : layout.counts_off + num_buckets * 8].view(np.int64)
        self._addresses = raw[layout.addr_off : layout.addr_off + (num_rows + 1) * 8].view(np.int64)
        self._leaves = raw[layout.leaf_off : layout.leaf_off + (num_rows + 1) * 8].view(np.int64)
        self._data = np.full(num_rows + 1, None, dtype=object)

    def _rollback_to(self, fd: int, header: _Header, target: int) -> _Header:
        """Re-land the file at committed generation ``target`` (< current)
        by applying the archived undo journals, newest first."""
        for gen in range(header.generation, target, -1):
            journal = self._undo_file(f"gen-{gen}.journal")
            base, records = self._parse_journal(journal, header.store_id)
            if base != gen - 1 or not records:
                raise DurabilityError(
                    f"cannot roll {self._file_path!r} back from generation "
                    f"{header.generation} to {target}: undo journal for "
                    f"generation {gen} is missing or unusable (history "
                    f"keeps {self._history} generations)"
                )
            for page, image in records:
                os.pwrite(fd, image, page * PAGE_SIZE)
        os.fsync(fd)
        archived = self._undo_file(f"gen-{target}.header")
        try:
            with open(archived, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise DurabilityError(
                f"no archived header for generation {target} of " f"{self._file_path!r}: {exc}"
            ) from exc
        landed = _Header.parse(blob)
        if landed is None or landed.generation != target:
            raise DurabilityError(
                f"archived header for generation {target} of " f"{self._file_path!r} is corrupt"
            )
        if landed.store_id != header.store_id:
            raise DurabilityError(
                f"archived header for generation {target} belongs to a "
                f"different store than {self._file_path!r}"
            )
        # Make the on-disk header slots agree with the rolled-back state:
        # the target's parity slot gets its header back, and a slot holding
        # a newer generation is invalidated so a later open cannot pick it.
        page = bytearray(PAGE_SIZE)
        page[: len(landed.blob)] = landed.blob
        os.pwrite(fd, bytes(page), (target % 2) * PAGE_SIZE)
        other_off = ((target + 1) % 2) * PAGE_SIZE
        other = _Header.parse(os.pread(fd, PAGE_SIZE, other_off))
        if other is not None and other.generation > target:
            os.pwrite(fd, b"\x00" * PAGE_SIZE, other_off)
        os.fsync(fd)
        # Generations past the target will be re-committed under the same
        # numbers; their stale archives must not shadow the new history.
        for gen, path in self._undo_entries():
            if gen > target:
                os.remove(path)
        return landed

    def _recover_payloads(self, header: _Header) -> dict[int, Any]:
        """Load (and, if needed, restore) the sidecar for ``header``."""
        if not header.flags & _FLAG_PAYLOADS:
            return {}
        live = self._read_file(self._payload_path)
        if (
            live is not None
            and len(live) == header.payload_len
            and hashlib.sha256(live).digest() == header.payload_sha
        ):
            return pickle.loads(live)
        archived = self._read_file(self._undo_file(f"payload-gen-{header.generation}"))
        if (
            archived is not None
            and len(archived) == header.payload_len
            and hashlib.sha256(archived).digest() == header.payload_sha
        ):
            # Put the live sidecar back so later commits archive correctly.
            self._write_file_atomic(self._payload_path, archived)
            return pickle.loads(archived)
        raise DurabilityError(
            f"payload sidecar for {self._file_path!r} generation "
            f"{header.generation} is missing or corrupt and no intact "
            "archive exists"
        )

    def _verify_pages(self, fd: int, layout: _Layout, header: _Header) -> bool:
        table = os.pread(fd, layout.table_len, layout.table_off)
        if hashlib.sha256(table).digest() != header.table_sha:
            return False
        for page in range(layout.num_data_pages):
            image = os.pread(fd, PAGE_SIZE, layout.data_off + page * PAGE_SIZE)
            expected = table[page * _SHA_BYTES : (page + 1) * _SHA_BYTES]
            if hashlib.sha256(image).digest() != expected:
                return False
        return True

    # ------------------------------------------------------------------
    # The commit protocol
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Make the current column state durable; returns the generation.

        No-ops (returning the current generation) when nothing changed
        since the last commit.  A crash at any point before the header
        fsync leaves the previous generation recoverable; after it, the
        new one is committed.
        """
        if self._closed:
            raise DurabilityError(f"store {self._file_path!r} is closed")
        payload_blob = self._payload_blob() if self.has_payloads else None
        if not self._epoch_pages and (
            payload_blob is None or hashlib.sha256(payload_blob).digest() == self._payload_sha
        ):
            return self._generation
        self._point("commit-begin")
        layout = self._layout
        generation = self._generation + 1
        # Checksum-table pages the dirty data pages map to are themselves
        # journaled so rollback restores the table consistently.
        dirty = sorted(page for page in self._epoch_pages if page >= self._data_first_page)
        table_pages = sorted(
            {self._table_page_of(page) for page in dirty} - self._epoch_pages.keys()
        )
        if table_pages:
            self._journal_pages(table_pages)
        self._point("commit-journal-sync")
        os.fsync(self._journal_fd)
        self._journal_synced_len = self._journal_len
        self._point("table-update")
        raw = self._raw
        table = self._table
        for page in dirty:
            off = page * PAGE_SIZE
            digest = hashlib.sha256(raw[off : off + PAGE_SIZE].tobytes()).digest()
            rel = page - self._data_first_page
            table[rel * _SHA_BYTES : (rel + 1) * _SHA_BYTES] = np.frombuffer(digest, dtype=np.uint8)
        table_sha = hashlib.sha256(table.tobytes()).digest()
        self._point("data-sync")
        raw.flush()
        os.fsync(self._fd)
        self._data_synced = True
        payload_len = 0
        payload_sha = _ZERO_SHA
        if payload_blob is not None:
            payload_len = len(payload_blob)
            payload_sha = hashlib.sha256(payload_blob).digest()
            self._point("payload-archive")
            if os.path.exists(self._payload_path):
                os.replace(
                    self._payload_path,
                    self._undo_file(f"payload-gen-{self._generation}"),
                )
            tmp = self._payload_path + ".tmp"
            self._point("payload-write")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, payload_blob)
                self._point("payload-sync")
                os.fsync(fd)
            finally:
                os.close(fd)
            self._point("payload-rename")
            os.replace(tmp, self._payload_path)
        header = self._pack_header(
            generation,
            self._occupancy,
            payload_blob is not None,
            payload_len,
            payload_sha,
            table_sha,
        )
        slot_off = (generation % 2) * PAGE_SIZE
        old_slot = os.pread(self._fd, PAGE_SIZE, slot_off)
        self._point("header-write")
        os.pwrite(self._fd, header, slot_off)
        self._header_pending = (slot_off, old_slot)
        self._point("header-sync")
        os.fsync(self._fd)
        self._header_pending = None
        # ---- commit point: `generation` is now durable ----
        self._generation = generation
        self._table_sha = table_sha
        self._payload_sha = payload_sha
        self._committed = _Header.parse(os.pread(self._fd, PAGE_SIZE, slot_off))
        self._point("journal-archive")
        os.close(self._journal_fd)
        os.replace(self._journal_path, self._undo_file(f"gen-{generation}.journal"))
        self._open_fresh_journal()
        self._point("header-archive")
        self._archive_header(generation, header)
        self._point("prune")
        self._prune_history(generation)
        self._epoch_pages.clear()
        return generation

    def _pack_header(
        self,
        generation: int,
        occupancy: int,
        has_payloads: bool,
        payload_len: int,
        payload_sha: bytes,
        table_sha: bytes,
    ) -> bytes:
        config_blob = pickle.dumps(self.config, protocol=pickle.HIGHEST_PROTOCOL)
        prefix = struct.pack(
            _HEADER_FMT,
            _MAGIC,
            _FORMAT_VERSION,
            _FLAG_PAYLOADS if has_payloads else 0,
            self._store_id,
            generation,
            self.config.num_buckets,
            self.config.num_buckets * self._z,
            occupancy,
            payload_len,
            self._z,
            self.config.levels,
            PAGE_SIZE,
            len(config_blob),
            payload_sha,
            table_sha,
        )
        blob = prefix + config_blob
        blob += hashlib.sha256(blob).digest()
        if len(blob) > PAGE_SIZE:
            raise ConfigurationError("configuration pickle too large for a header page")
        return blob

    def _payload_blob(self) -> bytes:
        sparse = {row: payload for row, payload in enumerate(self._data) if payload is not None}
        return pickle.dumps(sparse, protocol=pickle.HIGHEST_PROTOCOL)

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------
    def _open_fresh_journal(self) -> None:
        fd = os.open(
            self._journal_path,
            os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND,
            0o644,
        )
        header = struct.pack(_JOURNAL_HEADER_FMT, _JOURNAL_MAGIC, self._store_id, PAGE_SIZE)
        os.write(fd, header)
        os.fsync(fd)
        self._journal_fd = fd
        self._journal_len = len(header)
        self._journal_synced_len = len(header)

    def _journal_pages(self, pages: list[int]) -> None:
        """Append pre-images of ``pages`` (first dirty this epoch) to the
        journal; in strict mode they are fsynced before returning, i.e.
        before the caller's first mutation of those pages."""
        self._point("journal-append")
        raw = self._raw
        epoch = self._epoch_pages
        generation = self._generation
        chunks: list[bytes] = []
        for page in pages:
            image = raw[page * PAGE_SIZE : (page + 1) * PAGE_SIZE].tobytes()
            epoch[page] = image
            prefix = struct.pack(_RECORD_PREFIX_FMT, _RECORD_MAGIC, generation, page)
            chunks.append(prefix)
            chunks.append(image)
            chunks.append(hashlib.sha256(prefix + image).digest())
        blob = b"".join(chunks)
        os.write(self._journal_fd, blob)
        self._journal_len += len(blob)
        self._data_synced = False
        if self._sync == "strict":
            self._point("journal-sync")
            os.fsync(self._journal_fd)
            self._journal_synced_len = self._journal_len

    def _parse_journal(
        self, path: str, expect_store_id: bytes
    ) -> tuple[int | None, list[tuple[int, bytes]]]:
        """Valid records of a journal file; a torn tail is ignored.

        Returns ``(base_generation, [(page, pre_image), ...])`` —
        ``(None, [])`` when the file is missing, empty or not a journal of
        the expected store.
        """
        blob = self._read_file(path)
        if blob is None or len(blob) < _JOURNAL_HEADER_SIZE:
            return None, []
        magic, store_id, page_size = struct.unpack_from(_JOURNAL_HEADER_FMT, blob, 0)
        if magic != _JOURNAL_MAGIC or page_size != PAGE_SIZE:
            return None, []
        if store_id != expect_store_id:
            return None, []
        record_len = _RECORD_PREFIX_SIZE + PAGE_SIZE + _SHA_BYTES
        offset = _JOURNAL_HEADER_SIZE
        base: int | None = None
        records: list[tuple[int, bytes]] = []
        while offset + record_len <= len(blob):
            magic, generation, page = struct.unpack_from(_RECORD_PREFIX_FMT, blob, offset)
            if magic != _RECORD_MAGIC:
                break
            body_end = offset + _RECORD_PREFIX_SIZE + PAGE_SIZE
            digest = blob[body_end : body_end + _SHA_BYTES]
            if hashlib.sha256(blob[offset:body_end]).digest() != digest:
                break
            if base is None:
                base = generation
            elif generation != base:
                break
            records.append((page, blob[offset + _RECORD_PREFIX_SIZE : body_end]))
            offset += record_len
        return base, records

    # ------------------------------------------------------------------
    # Dirty tracking (called before any column mutation)
    # ------------------------------------------------------------------
    def note_path_write(self, geometry: tuple) -> None:
        """Journal the pre-images of every page a path can touch (counts,
        address rows, leaf rows), once per epoch.  ``geometry`` is the
        path's record from :meth:`_geometry`, whose last field is that page
        set.  The column engine calls this before its scatters; the generic
        write-path methods call it themselves."""
        epoch = self._epoch_pages
        fresh = [page for page in geometry[4] if page not in epoch]
        if fresh:
            self._journal_pages(fresh)

    def _build_geometry(self, leaf: int) -> tuple:
        """The column record plus the path's journal page set (sorted)."""
        record = super()._build_geometry(leaf)
        buckets = record[2]
        layout = self._layout
        row_bytes = 8 * self._z
        if row_bytes > PAGE_SIZE:  # pragma: no cover - Z beyond any config
            pages: set[int] = set()
            for bucket in buckets.tolist():
                pages.update(self._bucket_pages(bucket))
            return record + (tuple(sorted(pages)),)
        # A bucket's slot rows fit in one row_bytes stretch (<= one page
        # boundary crossing) and its count in one word, so per bucket the
        # pages are those of its count word and of the first and last byte
        # of its address and leaf rows: one broadcast expression plus a
        # unique for the whole path.
        last = row_bytes - 1
        addr0, leaf0 = layout.addr_off, layout.leaf_off
        starts = np.array([layout.counts_off, addr0, addr0 + last, leaf0, leaf0 + last])
        strides = np.array([8, row_bytes, row_bytes, row_bytes, row_bytes])
        touched = np.unique((starts[:, None] + strides[:, None] * buckets) // PAGE_SIZE)
        return record + (tuple(touched.tolist()),)

    def _bucket_pages(self, bucket: int) -> list[int]:
        layout = self._layout
        z = self._z
        pages = [(layout.counts_off + bucket * 8) // PAGE_SIZE]
        row0 = bucket * z
        for col_off in (layout.addr_off, layout.leaf_off):
            start = col_off + row0 * 8
            end = col_off + (row0 + z) * 8
            pages.extend(range(start // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1))
        return pages

    def _table_page_of(self, data_page: int) -> int:
        rel = data_page - self._data_first_page
        return (self._layout.table_off + rel * _SHA_BYTES) // PAGE_SIZE

    def write_bucket(self, bucket_index: int, blocks) -> None:
        epoch = self._epoch_pages
        fresh = [p for p in self._bucket_pages(bucket_index) if p not in epoch]
        if fresh:
            self._journal_pages(fresh)
        super().write_bucket(bucket_index, blocks)

    def write_path_levels(self, leaf: int, level_buckets) -> None:
        self.note_path_write(self._geometry(leaf))
        super().write_path_levels(leaf, level_buckets)

    # ------------------------------------------------------------------
    # Crash hook (fault injection / chaos testing)
    # ------------------------------------------------------------------
    def set_crash_hook(self, hook: Callable[[str], None] | None) -> None:
        """Install a callable fired with each :data:`CRASH_POINTS` tag
        immediately *before* the named protocol action executes."""
        self._crash_hook = hook

    def _point(self, tag: str) -> None:
        hook = self._crash_hook
        if hook is not None:
            hook(tag)

    # ------------------------------------------------------------------
    # Open / close
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        config: ORAMConfig | None = None,
        *,
        sync: str = "strict",
        history_generations: int = 4,
        at_generation: int | None = None,
        expect_store_id: bytes | None = None,
        expect_table_sha: bytes | None = None,
    ) -> "MemmapTreeStorage":
        """Reattach to an existing durable store, recovering if needed.

        Without ``config`` the configuration pickled into the committed
        header is used.  ``at_generation`` (with the optional
        ``expect_store_id`` / ``expect_table_sha`` pins from a durable
        reference) rolls the store back through its archived undo journals
        to an earlier committed generation.  Raises
        :class:`~repro.errors.DurabilityError` when the store cannot be
        produced at the requested (or latest) committed generation.
        """
        path = os.fspath(path)
        if config is None:
            config = cls._peek_config(path)
        return cls(
            config,
            path,
            sync=sync,
            history_generations=history_generations,
            _recover={
                "at_generation": at_generation,
                "expect_store_id": expect_store_id,
                "expect_table_sha": expect_table_sha,
            },
        )

    @classmethod
    def _peek_config(cls, path: str) -> ORAMConfig:
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError as exc:
            raise DurabilityError(f"no durable store at {path!r}: {exc}") from exc
        try:
            slots = [
                _Header.parse(os.pread(fd, PAGE_SIZE, 0)),
                _Header.parse(os.pread(fd, PAGE_SIZE, PAGE_SIZE)),
            ]
        finally:
            os.close(fd)
        headers = [h for h in slots if h is not None]
        if not headers:
            raise DurabilityError(f"{path!r} has no intact generation header (both slots torn)")
        return max(headers, key=lambda h: h.generation).config

    def close(self, *, commit: bool = True) -> None:
        """Commit (by default) and release the mapping and descriptors."""
        if self._closed:
            return
        if commit:
            self.commit()
        self.abandon()

    def abandon(self) -> None:
        """Drop the store without committing — the in-process equivalent of
        a crash.  The file keeps whatever the protocol made durable."""
        if self._closed:
            return
        self._closed = True
        self._raw = None
        self._table = None
        self._counts = self._addresses = self._leaves = None
        for fd_attr in ("_fd", "_journal_fd"):
            fd = getattr(self, fd_attr, None)
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed
                    pass
                setattr(self, fd_attr, None)

    # ------------------------------------------------------------------
    # Checkpoint integration: O(1) durable references
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        generation = self.commit()
        payloads = None
        if self.has_payloads:
            payloads = {
                row: payload for row, payload in enumerate(self._data) if payload is not None
            }
        return {
            "config": self.config,
            "path": self._file_path,
            "store_id": self._store_id,
            "generation": generation,
            "table_sha": self._table_sha,
            "sync": self._sync,
            "history": self._history,
            "occupancy": self._occupancy,
            "payloads": payloads,
        }

    def __setstate__(self, state: dict) -> None:
        twin = MemmapTreeStorage(
            state["config"],
            state["path"],
            sync=state["sync"],
            history_generations=state["history"],
            _recover={
                "at_generation": state["generation"],
                "expect_store_id": state["store_id"],
                "expect_table_sha": state["table_sha"],
            },
        )
        self.__dict__.update(twin.__dict__)
        twin._closed = True  # descriptors are owned by ``self`` now
        payloads = state["payloads"]
        if payloads is not None:
            # The sidecar reproduced the payloads by value; the snapshot's
            # inline objects win so pickle-memo aliasing (the PLB's cached
            # label lists, the protocol's observers) survives the restore.
            data = self._data
            data[:] = None
            for row, payload in payloads.items():
                data[row] = payload
            self.has_payloads = True
        self._occupancy = state["occupancy"]

    # ------------------------------------------------------------------
    # History management / helpers
    # ------------------------------------------------------------------
    def _undo_file(self, name: str) -> str:
        return os.path.join(self._undo_dir, name)

    def _undo_entries(self) -> list[tuple[int, str]]:
        entries: list[tuple[int, str]] = []
        try:
            names = os.listdir(self._undo_dir)
        except OSError:
            return entries
        for name in names:
            stem = name
            for prefix in ("payload-gen-", "gen-"):
                if stem.startswith(prefix):
                    stem = stem[len(prefix) :].split(".", 1)[0]
                    try:
                        entries.append((int(stem), os.path.join(self._undo_dir, name)))
                    except ValueError:
                        pass
                    break
        return entries

    def _prune_history(self, generation: int) -> None:
        floor = generation - self._history
        for gen, path in self._undo_entries():
            if gen < floor:
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    def _archive_header(self, generation: int, header: bytes) -> None:
        self._write_file_atomic(self._undo_file(f"gen-{generation}.header"), header)

    @staticmethod
    def _read_file(path: str) -> bytes | None:
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except OSError:
            return None

    @staticmethod
    def _write_file_atomic(path: str, blob: bytes) -> None:
        tmp = path + ".tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, blob)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def file_path(self) -> str:
        return self._file_path

    @property
    def generation(self) -> int:
        """Last committed generation (0 right after creation)."""
        return self._generation

    @property
    def store_id(self) -> bytes:
        return self._store_id

    def storage_bytes(self) -> int:
        """On-disk footprint: the column file plus the payload sidecar."""
        total = self._layout.total
        try:
            total += os.stat(self._payload_path).st_size
        except OSError:
            pass
        return total

    def digest(self) -> str:
        """Fingerprint of the live logical state (see :func:`column_digest`)."""
        return column_digest(self)
