"""Deterministic fault injection for the storage and runner layers.

Two kinds of fault live here:

* **Storage faults** — :class:`FaultInjector` wraps an
  :class:`~repro.core.tree.EncryptedTreeStorage` and plays the malicious /
  unreliable memory device of the paper's Section 5 threat model: it flips
  ciphertext bits, replays stale bucket contents and loses write-backs, on
  a schedule fixed entirely by a seed.  Plugged in as the ``inner`` storage
  of :class:`~repro.integrity.storage.IntegrityVerifiedStorage`, every
  injected fault must surface as an
  :class:`~repro.errors.IntegrityError` on the next verified path read —
  the fault-injection tests prove the integrity stack has no blind spots.

* **Process faults** — :func:`chaos_kill_point` hard-kills the current
  process (``os._exit``) exactly once per marker file, which lets the
  runner tests and the chaos-smoke CI job kill pool workers or whole runs
  at chosen points and assert that retry and checkpoint/resume recover
  bit-identically.

* **Commit-protocol faults** — :class:`CrashInjector` hooks the durable
  memory-mapped storage's commit protocol
  (:mod:`repro.core.memmap_tree`) and simulates a crash at one named
  protocol point: everything the protocol has *fsynced* survives,
  everything still in flight is seeded-randomly kept, lost, or torn at a
  page/byte granularity, and :class:`SimulatedCrash` is raised in place
  of ``os._exit`` so a test can reopen the file in-process and assert
  recovery-or-typed-error.

Determinism: the injector draws every victim choice from its own
``random.Random`` and schedules faults by *operation index* (counted path
reads / path write-backs), so a given ``(seed, schedule)`` corrupts the
same bucket at the same access in every run.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any

from repro.core.tree import EncryptedTreeStorage, TreeStorage

__all__ = [
    "FAULT_KINDS",
    "InjectedFault",
    "FaultInjector",
    "SimulatedCrash",
    "CrashInjector",
    "chaos_kill_point",
]

#: Storage fault kinds the injector knows how to produce.
FAULT_KINDS = ("bit_flip", "stale_replay", "drop_write")


@dataclass(frozen=True)
class InjectedFault:
    """Log record for one fault the injector actually applied.

    ``op`` is the read-operation index at which the corruption became
    visible to the verifier (for ``drop_write`` that is the read *after*
    the lost write-back, which is when a real lost write would be
    observed).
    """

    op: int
    kind: str
    bucket: int


class FaultInjector(TreeStorage):
    """A seeded, fault-injecting proxy around an encrypted tree storage.

    Faults are scheduled by operation index:

    * ``read_faults`` maps *verified path-read* indices to ``"bit_flip"``
      or ``"stale_replay"``; the corruption is applied to a bucket on the
      very path being read, immediately before the bytes are returned, so
      the wrapping integrity layer must detect it in that same read.
    * ``write_faults`` is a set of *path write-back* indices whose root
      bucket write is lost: the write completes (the authenticator hashes
      the new contents), then the pre-write ciphertext is silently put
      back at the next path read — the moment a real dropped DRAM write
      would surface.

    Reads are counted at ``raw_path`` and write-backs at ``seal_path``.  The
    ciphertexts ``seal_path`` returns are the verifier's record of what it
    wrote; a device corrupts *stored* data, so that record is never altered.
    """

    def __init__(
        self,
        storage: EncryptedTreeStorage,
        *,
        read_faults: dict[int, str] | None = None,
        write_faults: set[int] | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(storage.config)
        for kind in (read_faults or {}).values():
            if kind not in ("bit_flip", "stale_replay"):
                raise ValueError(f"unknown read fault kind: {kind!r}")
        self._storage = storage
        self._read_faults = dict(read_faults or {})
        self._write_faults = set(write_faults or ())
        self._rng = random.Random(seed)
        #: Operation counters (verified path reads / path write-backs).
        self.read_ops = 0
        self.write_ops = 0
        #: Faults actually applied, in application order.
        self.injected: list[InjectedFault] = []
        # First-ever ciphertext seen per bucket before an overwrite — the
        # stale snapshot a replay attack reinstates.
        self._stale: dict[int, bytes | None] = {}
        # (bucket, old ciphertext) reverted at the next path read to model
        # a lost write becoming visible.
        self._pending_revert: tuple[int, bytes | None] | None = None

    @classmethod
    def seeded(
        cls,
        storage: EncryptedTreeStorage,
        seed: int,
        *,
        num_faults: int,
        horizon: int,
        kinds: tuple[str, ...] = FAULT_KINDS,
    ) -> "FaultInjector":
        """Build an injector with ``num_faults`` faults drawn from ``kinds``
        at operation indices in ``[1, horizon)``, fully determined by
        ``seed``."""
        rng = random.Random(seed)
        read_faults: dict[int, str] = {}
        write_faults: set[int] = set()
        # Start at 1 so the tree has at least one written path to corrupt.
        ops = rng.sample(range(1, max(horizon, num_faults + 1)), num_faults)
        for op in ops:
            kind = rng.choice(kinds)
            if kind == "drop_write":
                write_faults.add(op)
            else:
                read_faults[op] = kind
        return cls(storage, read_faults=read_faults, write_faults=write_faults, seed=seed)

    @property
    def storage(self) -> EncryptedTreeStorage:
        """The wrapped (real) encrypted storage."""
        return self._storage

    @property
    def pending(self) -> int:
        """Scheduled faults that have not yet surfaced to the verifier."""
        reverts = 1 if self._pending_revert is not None else 0
        return len(self._read_faults) + len(self._write_faults) + reverts

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def _flip_bit(self, bucket: int) -> None:
        buckets = self._storage._buckets
        corrupted = bytearray(buckets[bucket])
        bit = self._rng.randrange(len(corrupted) * 8)
        corrupted[bit >> 3] ^= 1 << (bit & 7)
        buckets[bucket] = bytes(corrupted)

    def _inject_on_read(self, op: int, kind: str, path: tuple[int, ...]) -> bool:
        buckets = self._storage._buckets
        if kind == "bit_flip":
            victims = [index for index in path if buckets[index]]
            if not victims:
                return False
            victim = self._rng.choice(victims)
            self._flip_bit(victim)
        else:  # stale_replay
            victims = [
                index
                for index in path
                if index in self._stale and self._stale[index] != buckets[index]
            ]
            if not victims:
                return False
            victim = self._rng.choice(victims)
            buckets[victim] = self._stale[victim]
        self.injected.append(InjectedFault(op=op, kind=kind, bucket=victim))
        return True

    # ------------------------------------------------------------------
    # TreeStorage interface (device-facing)
    # ------------------------------------------------------------------
    def check_payload(self, payload: Any) -> None:
        self._storage.check_payload(payload)

    def raw_path(self, leaf: int) -> list[bytes]:
        op = self.read_ops
        self.read_ops += 1
        path = self.path(leaf)
        if self._pending_revert is not None:
            bucket, old = self._pending_revert
            self._pending_revert = None
            self._storage._buckets[bucket] = old
            self.injected.append(InjectedFault(op=op, kind="drop_write", bucket=bucket))
        kind = self._read_faults.pop(op, None)
        if kind is not None and not self._inject_on_read(op, kind, path):
            # No eligible victim yet (cold tree): retry on the next read.
            self._read_faults[op + 1] = kind
        return self._storage.raw_path(leaf)

    def seal_path(self, leaf: int, level_buckets) -> list[bytes]:
        op = self.write_ops
        self.write_ops += 1
        path = self.path(leaf)
        buckets = self._storage._buckets
        for index in path:
            if index not in self._stale and buckets[index] is not None:
                self._stale[index] = buckets[index]
        drop = op in self._write_faults and self._pending_revert is None
        old_root = buckets[path[0]] if drop else None
        sealed = self._storage.seal_path(leaf, level_buckets)
        if drop:
            self._write_faults.discard(op)
            # Lost write-back: remember the pre-write root ciphertext and
            # reinstate it when the device is next read.
            self._pending_revert = (path[0], old_root)
        return sealed

    def open_path(self, leaf: int, raw: list[bytes]):
        return self._storage.open_path(leaf, raw)

    # Plain delegation below: bucket-level ops are used by invariant checks
    # and decoding only, never as the verified device read.
    def read_bucket(self, bucket_index: int):
        return self._storage.read_bucket(bucket_index)

    def write_bucket(self, bucket_index: int, blocks) -> None:
        self._storage.write_bucket(bucket_index, blocks)

    def raw_bucket(self, bucket_index: int) -> bytes | None:
        return self._storage.raw_bucket(bucket_index)

    @property
    def _buckets(self) -> list[bytes | None]:
        # Adversarial test hooks poke the raw ciphertext list directly.
        return self._storage._buckets


class SimulatedCrash(Exception):
    """Raised by :class:`CrashInjector` in place of actually dying.

    Deliberately *not* a :class:`~repro.errors.ReproError`: a crash is not
    an error the protocol reports, it is the absence of the process.  After
    catching it the in-memory ORAM must be treated as gone (abandon the
    storage and reopen the file) — its Python-side state is mid-operation.
    """


class CrashInjector:
    """Simulate a crash at one named commit-protocol point, with scars.

    Installed on a :class:`~repro.core.memmap_tree.MemmapTreeStorage` via
    its crash hook; when ``crash_point`` fires (for the ``occurrence``-th
    time), the injector first *scars* the file the way a real crash at
    that instant could — then raises :class:`SimulatedCrash`:

    * every data page dirtied since the last commit whose content has not
      been fsynced is seeded-randomly kept (the kernel's write-back had
      already flushed it), reverted to its pre-image (the write never left
      the page cache) or **torn** at an arbitrary byte;
    * the journal's unsynced tail is truncated at a seeded byte offset —
      possibly mid-record, exactly the torn tail the recovery parser must
      stop at;
    * a header-slot write that has not reached its fsync is kept, reverted
      or torn the same way.

    Everything the protocol already fsynced is left untouched — that is
    the durability contract under test.  The same ``(crash_point, seed)``
    always produces the same scars.
    """

    def __init__(
        self,
        storage,
        crash_point: str,
        seed: int,
        *,
        occurrence: int = 1,
    ) -> None:
        from repro.core.memmap_tree import CRASH_POINTS

        if crash_point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {crash_point!r}; one of {CRASH_POINTS}")
        if occurrence < 1:
            raise ValueError("occurrence must be >= 1")
        self._storage = storage
        self._crash_point = crash_point
        self._rng = random.Random(seed)
        self._occurrence = occurrence
        self._seen = 0
        #: Whether the crash point was reached and the crash simulated.
        self.fired = False
        storage.set_crash_hook(self._hook)

    def _hook(self, tag: str) -> None:
        if self.fired or tag != self._crash_point:
            return
        self._seen += 1
        if self._seen < self._occurrence:
            return
        self.fired = True
        self._scar()
        raise SimulatedCrash(self._crash_point)

    def _scar(self) -> None:
        storage = self._storage
        rng = self._rng
        fd = storage._fd
        page_size = storage._page_size
        if not storage._data_synced:
            for page, pre_image in sorted(storage._epoch_pages.items()):
                fate = rng.randrange(3)
                if fate == 0:
                    continue  # the kernel's write-back already flushed it
                offset = page * page_size
                if fate == 1:
                    # The write never left the page cache.
                    os.pwrite(fd, pre_image, offset)
                else:
                    current = os.pread(fd, page_size, offset)
                    cut = rng.randrange(1, page_size)
                    os.pwrite(fd, current[:cut] + pre_image[cut:], offset)
        tail = storage._journal_len - storage._journal_synced_len
        if tail > 0:
            cut = storage._journal_synced_len + rng.randrange(tail + 1)
            journal_fd = os.open(storage._journal_path, os.O_RDWR)
            try:
                os.ftruncate(journal_fd, cut)
            finally:
                os.close(journal_fd)
        pending = storage._header_pending
        if pending is not None:
            slot_off, old_slot = pending
            fate = rng.randrange(3)
            if fate == 1:
                os.pwrite(fd, old_slot, slot_off)
            elif fate == 2:
                current = os.pread(fd, len(old_slot), slot_off)
                cut = rng.randrange(1, len(old_slot))
                os.pwrite(fd, current[:cut] + old_slot[cut:], slot_off)
        os.fsync(fd)


def chaos_kill_point(marker_dir: str, name: str = "kill") -> bool:
    """Hard-kill the current process exactly once per marker file.

    Atomically creates ``<marker_dir>/<name>.marker``; on the first call
    the marker is created and the process dies with ``os._exit(1)`` —
    no cleanup, no atexit, exactly like a SIGKILLed pool worker.  Every
    later call (same marker) returns ``False`` and does nothing, so a
    retried worker sails past the kill point.  Returns ``False`` if the
    marker already existed (the return annotation exists for callers and
    type checkers; the killing branch never returns).
    """
    marker = os.path.join(marker_dir, f"{name}.marker")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    os._exit(1)
