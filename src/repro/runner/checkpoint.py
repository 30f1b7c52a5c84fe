"""Durable checkpoints for experiment grids and window plans.

:class:`CheckpointManager` persists completed :class:`~repro.runner.spec.
ExperimentResult` envelopes to a single file so an interrupted sweep can be
resumed without recomputing finished points.  Because every point function
here is deterministic under its derived seed, skipping completed points and
replaying their recorded results yields output bit-identical to an
uninterrupted run — the checkpoint tests pin this down to stats
fingerprints and end-of-run RNG state.

File format (one file per checkpoint)::

    sha256(gen || payload)  (32 bytes)
    generation              (8 bytes, big-endian)
    payload                 (pickled envelope)

The envelope is ``{"format", "version", "generation", "results"}`` with
results keyed by ``repr(spec.key)`` — the same canonical key form the seed
derivation uses.  Writes are atomic (temp file + fsync + ``os.replace``)
and carry a monotonically increasing generation number, so a reader never
sees a torn or rolled-back checkpoint; a digest mismatch or a generation
that moved backwards raises :class:`~repro.errors.CheckpointError` instead
of silently resuming from bad state.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any

from repro.errors import CheckpointError, ConfigurationError
from repro.runner.spec import ExperimentResult

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1

_DIGEST_BYTES = 32
_GENERATION_BYTES = 8
_HEADER_BYTES = _DIGEST_BYTES + _GENERATION_BYTES


class CheckpointManager:
    """Records completed experiment points and replays them on resume.

    Parameters
    ----------
    path:
        Checkpoint file location.  An existing file is loaded (and
        validated) on construction; a missing file starts empty.
    every:
        Save cadence: persist after every ``every``-th recorded result.
        The runner additionally calls :meth:`save` at the end of the run,
        so a cadence larger than 1 only bounds how much work a crash can
        lose, never whether the final state lands on disk.
    keep_generations:
        When set (``N >= 1``), every save also hard-links the new file to
        ``<path>.genNNNNNNNN`` and prunes generation files older than the
        newest ``N`` — a bounded history instead of the default
        latest-only file.  If the main file is missing or corrupt on
        construction, loading falls back to the newest intact generation
        file, so one torn save costs at most ``every`` results, not the
        whole history.  Rollback detection is unchanged: the main file's
        generation still must never move backwards.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        every: int = 1,
        keep_generations: int | None = None,
    ) -> None:
        if every < 1:
            raise ConfigurationError("every must be >= 1")
        if keep_generations is not None and keep_generations < 1:
            raise ConfigurationError("keep_generations must be >= 1 (or None)")
        self._path = os.fspath(path)
        self._every = every
        self._keep = keep_generations
        self._results: dict[str, ExperimentResult] = {}
        self._generation = 0
        self._dirty = 0
        if os.path.exists(self._path):
            try:
                self._load()
            except CheckpointError:
                if self._keep is None:
                    raise
                self._load_newest_generation()
        elif self._keep is not None:
            self._load_newest_generation(missing_ok=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        return self._path

    @property
    def generation(self) -> int:
        """Number of checkpoint saves performed (monotonic, persisted)."""
        return self._generation

    @property
    def completed(self) -> int:
        """Number of point results currently held."""
        return len(self._results)

    def result_for(self, key: Any) -> ExperimentResult | None:
        """The recorded result for a spec key, or ``None`` if not done."""
        return self._results.get(repr(key))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, result: ExperimentResult) -> None:
        """Record one completed point; failed points are not checkpointed.

        (A failed point must re-execute on resume — recording it would
        make a transient fault permanent.)
        """
        if not result.ok:
            return
        self._results[repr(result.key)] = result
        self._dirty += 1
        if self._dirty >= self._every:
            self.save()

    def save(self) -> None:
        """Atomically persist the current state (no-op when unchanged)."""
        if not self._dirty and self._generation and os.path.exists(self._path):
            return
        disk_generation = self._peek_generation(self._path)
        if disk_generation is not None and disk_generation > self._generation:
            # In keep mode a corrupt main file may carry a stale-but-larger
            # header while we resumed from an older intact generation file;
            # overwriting garbage is not a rollback.
            if self._keep is None or self._is_intact(self._path):
                raise CheckpointError(
                    f"checkpoint {self._path!r} advanced externally "
                    f"(on disk: generation {disk_generation}, "
                    f"ours: {self._generation}); refusing to roll it back"
                )
        self._generation += 1
        envelope = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "generation": self._generation,
            "results": dict(self._results),
        }
        payload = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        generation = self._generation.to_bytes(_GENERATION_BYTES, "big")
        digest = hashlib.sha256(generation + payload).digest()
        tmp = f"{self._path}.tmp.{os.getpid()}"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, digest + generation + payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self._path)
        if self._keep is not None:
            self._retain_generation()
        self._dirty = 0

    def _generation_path(self, generation: int) -> str:
        return f"{self._path}.gen{generation:08d}"

    def _generation_files(self) -> list[tuple[int, str]]:
        """Existing ``.genNNNNNNNN`` siblings, newest first."""
        directory = os.path.dirname(self._path) or "."
        prefix = os.path.basename(self._path) + ".gen"
        entries: list[tuple[int, str]] = []
        try:
            names = os.listdir(directory)
        except OSError:
            return entries
        for name in names:
            if name.startswith(prefix):
                suffix = name[len(prefix) :]
                if suffix.isdigit():
                    entries.append((int(suffix), os.path.join(directory, name)))
        entries.sort(reverse=True)
        return entries

    def _retain_generation(self) -> None:
        """Link the just-saved file into the bounded generation history."""
        target = self._generation_path(self._generation)
        try:
            os.link(self._path, target)
        except OSError:
            # Filesystem without hard links (or the file already exists):
            # fall back to a byte copy of the freshly written checkpoint.
            with open(self._path, "rb") as src, open(target, "wb") as dst:
                dst.write(src.read())
        floor = self._generation - self._keep
        for generation, path in self._generation_files():
            if generation <= floor:
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    def _load_newest_generation(self, missing_ok: bool = False) -> None:
        """Fall back to the newest intact generation file (keep mode)."""
        for _generation, path in self._generation_files():
            try:
                self._load(path)
                return
            except CheckpointError:
                continue
        if not missing_ok:
            raise CheckpointError(
                f"checkpoint {self._path!r} is unreadable and no intact " "generation file remains"
            )

    def flush(self) -> None:
        """Alias for :meth:`save` (end-of-run hook)."""
        self.save()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @staticmethod
    def _is_intact(path: str) -> bool:
        """Whether the file parses as a digest-valid checkpoint."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return False
        if len(blob) < _HEADER_BYTES:
            return False
        expected = hashlib.sha256(blob[_DIGEST_BYTES:]).digest()
        return blob[:_DIGEST_BYTES] == expected

    @staticmethod
    def _peek_generation(path: str) -> int | None:
        """Generation number of the file at ``path`` (header only), or
        ``None`` when there is no readable checkpoint."""
        try:
            with open(path, "rb") as handle:
                header = handle.read(_HEADER_BYTES)
        except OSError:
            return None
        if len(header) < _HEADER_BYTES:
            return None
        return int.from_bytes(header[_DIGEST_BYTES:], "big")

    def _load(self, path: str | None = None) -> None:
        path = self._path if path is None else path
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CheckpointError(f"checkpoint {path!r} is unreadable: {exc}") from exc
        if len(blob) < _HEADER_BYTES:
            raise CheckpointError(f"checkpoint {path!r} is truncated ({len(blob)} bytes)")
        digest = blob[:_DIGEST_BYTES]
        generation_bytes = blob[_DIGEST_BYTES:_HEADER_BYTES]
        payload = blob[_HEADER_BYTES:]
        if hashlib.sha256(generation_bytes + payload).digest() != digest:
            raise CheckpointError(f"checkpoint {path!r} is corrupt (payload digest mismatch)")
        envelope = pickle.loads(payload)
        if envelope.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {path!r} has unknown format " f"{envelope.get('format')!r}"
            )
        if envelope.get("version") > CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} was written by a newer version "
                f"({envelope.get('version')} > {CHECKPOINT_VERSION})"
            )
        generation = int.from_bytes(generation_bytes, "big")
        if envelope.get("generation") != generation:
            raise CheckpointError(f"checkpoint {path!r} header/payload generation mismatch")
        self._generation = generation
        self._results = dict(envelope["results"])
        self._dirty = 0
