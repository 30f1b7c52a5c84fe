"""The backend/scenario registry: named storage stacks and protocol variants.

Every driver in the repository — the analysis sweeps, the processor model's
ORAM memory backend, the figure benchmarks and the examples — obtains its
ORAM through this module instead of wiring storages, eviction policies and
protocol classes together by hand.  A scenario is an :class:`OramSpec`:
a picklable, frozen description naming

* the **storage stack** (``"flat"`` — the array-backed fast functional
  back-end, ``"plain"`` — the list-of-lists reference, ``"encrypted"`` —
  randomized bucket encryption, ``"integrity"`` — encryption plus the
  mirrored authentication tree), and
* the **protocol variant** (``"flat"`` — a single :class:`PathORAM`,
  ``"hierarchical"`` — the recursive position-map chain of
  :class:`HierarchicalPathORAM`), and
* the **eviction policy** (``"default"``, ``"background"``, ``"none"``,
  ``"insecure"``).

Because specs are plain frozen dataclasses they travel through
:class:`repro.runner.ExperimentSpec` kwargs into process-pool workers, so a
parallel grid can build its backends inside each worker bit-identically to a
serial run.  New storage stacks can be registered with
:func:`register_storage` without touching any driver.
"""

from __future__ import annotations

import itertools
import os
import random
import tempfile
from dataclasses import dataclass, replace
from typing import Any, Callable, Union

from repro.core.background_eviction import (
    BackgroundEviction,
    EvictionPolicy,
    InsecureBlockRemapEviction,
    NoEviction,
)
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.interface import ORAMMemoryInterface
from repro.core.path_oram import PathORAM
from repro.core.super_block import DynamicSuperBlockMapper, SuperBlockMapper
from repro.core.tree import (
    EncryptedTreeStorage,
    FlatTreeStorage,
    PlainTreeStorage,
    TreeStorage,
)
from repro.crypto.bucket_encryption import CounterBucketCipher, StrawmanBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.errors import ConfigurationError
from repro.integrity.storage import IntegrityVerifiedStorage

#: A storage factory builds one tree storage for one ORAM of a scenario.
StorageFactory = Callable[[ORAMConfig], TreeStorage]

#: A storage builder turns a spec into a factory (called once per ORAM).
StorageBuilder = Callable[["OramSpec"], StorageFactory]

Backend = Union[PathORAM, HierarchicalPathORAM]

PROTOCOLS = ("flat", "hierarchical")
EVICTION_POLICIES = ("default", "background", "none", "insecure")

_STORAGE_BUILDERS: dict[str, StorageBuilder] = {}


def register_storage(name: str) -> Callable[[StorageBuilder], StorageBuilder]:
    """Register a storage stack under ``name`` (decorator).

    The builder receives the full :class:`OramSpec` and returns a factory
    mapping each ORAM's configuration to a fresh :class:`TreeStorage`.
    """

    def deco(builder: StorageBuilder) -> StorageBuilder:
        _STORAGE_BUILDERS[name] = builder
        return builder

    return deco


def storage_backends() -> tuple[str, ...]:
    """Names of every registered storage stack."""
    return tuple(sorted(_STORAGE_BUILDERS))


@dataclass(frozen=True)
class OramSpec:
    """One named ORAM scenario: protocol + storage stack + eviction policy.

    Parameters
    ----------
    protocol:
        ``"flat"`` (single Path ORAM) or ``"hierarchical"`` (recursive
        position-map chain).
    storage:
        A registered storage stack name; see :func:`storage_backends`.
    eviction:
        ``"default"`` leaves the choice to the protocol (background eviction
        for bounded stashes, none otherwise), ``"background"`` / ``"none"``
        / ``"insecure"`` force a policy.  Hierarchical ORAMs run eviction at
        the hierarchy level and accept only ``"default"``.
    key_seed:
        Non-negative seed for the processor key of the encrypted/integrity
        stacks (kept in the spec so pool workers derive identical ciphers).
    record_path_trace / livelock_limit:
        Forwarded to the protocol object.
    plb_entries_per_level:
        Hierarchical protocol only: capacity (position-map blocks per
        chain level) of the PosMap Lookaside Buffer, the Freecursive-style
        multi-entry LRU label cache (see
        :class:`~repro.core.plb.PosMapLookaside`).  Serves the looped
        ``access`` path and ``access_many`` alike; 0 disables it, and
        capacity 1 coalesces consecutive accesses through the same
        position-map block into one fused path op.  It composes with
        ``dynamic_super_blocks`` — the chain's cached labels are kept
        coherent with cohort moves through explicit invalidation hooks.
    dynamic_super_blocks:
        Enable runtime super-block merging on the (data) ORAM: a
        :class:`~repro.core.super_block.DynamicSuperBlockMapper` observes
        the access stream and merges/splits adjacent-address groups at
        runtime (the paper's Section 3.2 future work).  Requires
        ``super_block_size=1`` in the ORAM configuration — the mapper owns
        the grouping — and is incompatible with ``eviction="insecure"``.
        The remaining ``super_block_*`` knobs parameterise the policy:
        the counter window (accesses between counter halvings), the
        per-buddy co-access count that triggers a merge, the hot-half
        count that triggers a split once the other half decays to zero,
        and the maximum runtime group size (a power of two).
    storage_path:
        ``memmap-flat`` stack only: directory the durable column files are
        created in.  One ``build_oram`` call creates fresh stores there
        (hierarchical ORAMs get one file per level); building the same
        path twice truncates — reattaching to existing stores goes through
        :meth:`repro.core.memmap_tree.MemmapTreeStorage.open` or snapshot
        restore, never the builder.  Empty (default) uses a fresh
        temporary directory per factory.
    memmap_sync / memmap_history:
        ``memmap-flat`` stack only: the journal fsync policy (``"strict"``
        or ``"relaxed"``) and how many generations of undo
        journals/headers to keep for rollback — see
        :mod:`repro.core.memmap_tree`.
    """

    protocol: str = "flat"
    storage: str = "flat"
    eviction: str = "default"
    key_seed: int = 0
    record_path_trace: bool = False
    livelock_limit: int = 100_000
    plb_entries_per_level: int = 0
    dynamic_super_blocks: bool = False
    super_block_window: int = 512
    super_block_merge_threshold: int = 2
    super_block_split_threshold: int = 4
    super_block_max_size: int = 4
    storage_path: str = ""
    memmap_sync: str = "strict"
    memmap_history: int = 4

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}"
            )
        if self.storage not in _STORAGE_BUILDERS:
            raise ConfigurationError(
                f"unknown storage stack {self.storage!r}; "
                f"registered: {storage_backends()}"
            )
        if self.eviction not in EVICTION_POLICIES:
            raise ConfigurationError(
                f"unknown eviction policy {self.eviction!r}; "
                f"expected one of {EVICTION_POLICIES}"
            )
        if self.protocol == "hierarchical" and self.eviction != "default":
            raise ConfigurationError(
                "hierarchical ORAMs evict at the hierarchy level; "
                "use eviction='default'"
            )
        if self.key_seed < 0:
            # ProcessorKey seeds random.Random, which takes abs(): a
            # negative seed would silently reuse the positive seed's key.
            raise ConfigurationError("key_seed must be >= 0")
        if self.livelock_limit < 1:
            raise ConfigurationError("livelock_limit must be >= 1")
        if self.plb_entries_per_level < 0:
            raise ConfigurationError("plb_entries_per_level must be >= 0")
        if self.protocol == "flat" and self.plb_entries_per_level:
            raise ConfigurationError(
                "plb_entries_per_level caches position-map blocks; the flat "
                "protocol has no position-map chain (use "
                "protocol='hierarchical')"
            )
        if self.storage_path and self.storage != "memmap-flat":
            raise ConfigurationError(
                "storage_path homes durable column files; it is only "
                "meaningful for the 'memmap-flat' stack"
            )
        if self.memmap_sync not in ("strict", "relaxed"):
            raise ConfigurationError(
                f"unknown memmap_sync {self.memmap_sync!r}; "
                "expected 'strict' or 'relaxed'"
            )
        if self.memmap_history < 1:
            raise ConfigurationError("memmap_history must be >= 1")
        if self.storage != "memmap-flat" and (
            self.memmap_sync != "strict" or self.memmap_history != 4
        ):
            raise ConfigurationError(
                "memmap_sync/memmap_history tune the durable commit "
                "protocol; they are only meaningful for the 'memmap-flat' "
                f"stack (storage={self.storage!r})"
            )
        if self.dynamic_super_blocks:
            if self.eviction == "insecure":
                raise ConfigurationError(
                    "dynamic super-block merging does not compose with the "
                    "insecure remap eviction scheme"
                )
            # Knob validation happens eagerly so a bad spec fails at
            # construction, not inside a pool worker.
            DynamicSuperBlockMapper(
                max_group_size=self.super_block_max_size,
                window=self.super_block_window,
                merge_threshold=self.super_block_merge_threshold,
                split_threshold=self.super_block_split_threshold,
            )

    def with_updates(self, **kwargs: Any) -> "OramSpec":
        """Copy of this spec with the given fields replaced."""
        return replace(self, **kwargs)


# ----------------------------------------------------------------------
# Built-in storage stacks
# ----------------------------------------------------------------------
@register_storage("flat")
def _flat_storage(spec: OramSpec) -> StorageFactory:
    return FlatTreeStorage


@register_storage("plain")
def _plain_storage(spec: OramSpec) -> StorageFactory:
    return PlainTreeStorage


# NumPy is optional: when it is absent the ``memmap-flat`` stack is simply
# not registered (specs naming it fail with the usual unknown-storage
# error) and the pure-Python flat stack remains the default fast backend.
try:
    import numpy  # noqa: F401
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
    pass
else:

    @register_storage("memmap-flat")
    def _memmap_flat_storage(spec: OramSpec) -> StorageFactory:
        from repro.core.memmap_tree import MemmapTreeStorage

        base_dir = spec.storage_path or tempfile.mkdtemp(prefix="repro-memmap-")
        # Hierarchical builds call the factory once per chain level; each
        # level gets its own durable file, named by build order + geometry.
        counter = itertools.count()

        def factory(config: ORAMConfig) -> TreeStorage:
            index = next(counter)
            os.makedirs(base_dir, exist_ok=True)
            name = f"oram-{index:02d}-L{config.levels}-Z{config.z}.tree"
            return MemmapTreeStorage(
                config,
                os.path.join(base_dir, name),
                sync=spec.memmap_sync,
                history_generations=spec.memmap_history,
            )

        return factory


def _cipher_for(config: ORAMConfig, key: ProcessorKey):
    if config.encryption == "strawman":
        return StrawmanBucketCipher(key)
    return CounterBucketCipher(key)


@register_storage("encrypted")
def _encrypted_storage(spec: OramSpec) -> StorageFactory:
    key = ProcessorKey(seed=spec.key_seed)

    def factory(config: ORAMConfig) -> TreeStorage:
        return EncryptedTreeStorage(config, _cipher_for(config, key))

    return factory


@register_storage("integrity")
def _integrity_storage(spec: OramSpec) -> StorageFactory:
    key = ProcessorKey(seed=spec.key_seed)

    def factory(config: ORAMConfig) -> TreeStorage:
        return IntegrityVerifiedStorage(config, _cipher_for(config, key))

    return factory


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def storage_factory(spec: OramSpec) -> StorageFactory:
    """The storage factory for a spec's storage stack."""
    return _STORAGE_BUILDERS[spec.storage](spec)


def _eviction_policy(
    spec: OramSpec, config: ORAMConfig, rng: random.Random
) -> EvictionPolicy:
    if spec.eviction == "default":
        # The protocol's own default choice — background eviction for a
        # bounded stash, none otherwise — but honouring the spec's
        # livelock limit.
        if config.stash_capacity is None:
            return NoEviction()
        return BackgroundEviction(livelock_limit=spec.livelock_limit)
    if spec.eviction == "none":
        return NoEviction()
    if spec.eviction == "background":
        return BackgroundEviction(livelock_limit=spec.livelock_limit)
    return InsecureBlockRemapEviction(rng=rng, livelock_limit=spec.livelock_limit)


def _resolve_rng(seed: int | None, rng: random.Random | None) -> random.Random:
    if rng is not None:
        return rng
    return random.Random(seed)


def _super_block_mapper(
    spec: OramSpec, config: ORAMConfig
) -> SuperBlockMapper | None:
    """The (data) ORAM's super-block mapper for a spec, or ``None`` for the
    protocol's own default (the static mapper at the config's size)."""
    if not spec.dynamic_super_blocks:
        return None
    if config.super_block_size != 1:
        raise ConfigurationError(
            "dynamic super-block merging owns the grouping; the ORAM "
            "configuration must use super_block_size=1 (the spec's "
            "super_block_max_size bounds runtime groups)"
        )
    return DynamicSuperBlockMapper(
        max_group_size=spec.super_block_max_size,
        window=spec.super_block_window,
        merge_threshold=spec.super_block_merge_threshold,
        split_threshold=spec.super_block_split_threshold,
    )


def build_oram(
    spec: OramSpec,
    config: ORAMConfig | HierarchyConfig,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> Backend:
    """Build the ORAM a spec describes over ``config``.

    ``config`` must be an :class:`ORAMConfig` for the flat protocol and a
    :class:`HierarchyConfig` for the hierarchical one.  Pass either a
    ``seed`` (the common runner-driven case) or an explicit ``rng``.
    """
    rng = _resolve_rng(seed, rng)
    if spec.protocol == "flat":
        if isinstance(config, HierarchyConfig):
            raise ConfigurationError(
                "flat protocol takes an ORAMConfig; "
                "got a HierarchyConfig (use protocol='hierarchical')"
            )
        factory = storage_factory(spec)
        return PathORAM(
            config,
            storage=factory(config),
            eviction_policy=_eviction_policy(spec, config, rng),
            super_block_mapper=_super_block_mapper(spec, config),
            rng=rng,
            record_path_trace=spec.record_path_trace,
        )
    if not isinstance(config, HierarchyConfig):
        raise ConfigurationError(
            "hierarchical protocol takes a HierarchyConfig; "
            "wrap the data ORAMConfig in one (or use protocol='flat')"
        )
    return HierarchicalPathORAM(
        config,
        rng=rng,
        storage_factory=storage_factory(spec),
        record_path_trace=spec.record_path_trace,
        livelock_limit=spec.livelock_limit,
        plb_entries_per_level=spec.plb_entries_per_level,
        data_super_block_mapper=_super_block_mapper(spec, config.data_oram),
    )


def restore_oram(snapshot: dict) -> Backend:
    """Rebuild an ORAM from a versioned snapshot envelope.

    Dispatches on the envelope's ``kind`` to the matching class's
    :meth:`restore`, so callers holding an opaque snapshot (e.g. a
    checkpointed long run) do not need to know which protocol produced it.
    """
    from repro.core.snapshot import snapshot_kind

    kind = snapshot_kind(snapshot)
    if kind == PathORAM.SNAPSHOT_KIND:
        return PathORAM.restore(snapshot)
    if kind == HierarchicalPathORAM.SNAPSHOT_KIND:
        return HierarchicalPathORAM.restore(snapshot)
    from repro.errors import CheckpointError

    raise CheckpointError(f"no ORAM class registered for snapshot kind {kind!r}")


def build_interface(
    spec: OramSpec,
    config: ORAMConfig | HierarchyConfig,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> ORAMMemoryInterface:
    """Build the exclusive-ORAM front-end a secure processor talks to."""
    return ORAMMemoryInterface(build_oram(spec, config, seed=seed, rng=rng))


def build_memory_backend(
    spec: OramSpec,
    config: ORAMConfig | HierarchyConfig,
    return_data_cycles: float,
    finish_access_cycles: float,
    line_bytes: int = 128,
    seed: int | None = None,
    rng: random.Random | None = None,
):
    """Build the processor model's ORAM memory backend for a scenario.

    Imports locally to keep ``repro.backends`` importable without the
    processor subsystem.
    """
    from repro.processor.memory import ORAMBackend

    return ORAMBackend(
        build_interface(spec, config, seed=seed, rng=rng),
        return_data_cycles=return_data_cycles,
        finish_access_cycles=finish_access_cycles,
        line_bytes=line_bytes,
    )
