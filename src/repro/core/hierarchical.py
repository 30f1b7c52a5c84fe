"""Hierarchical (recursive) Path ORAM (Section 2.3).

``ORAM_1`` holds the program's data blocks; ``ORAM_2`` holds ``ORAM_1``'s
position map, packed ``k`` leaf labels per block; and so on until the
outermost position map fits on chip.  One logical access therefore walks the
chain outermost-first: each position-map lookup yields the leaf to read in
the next (larger) ORAM and simultaneously installs the fresh leaf that ORAM
is being remapped to.

The chain walk is the hierarchy's fast path: every round draws the whole
stack of fresh leaves into one reused buffer (a single ``getrandbits`` per
ORAM), resolves the per-level ``(block, slot)`` coordinates from a memoised
chain table, and drives each position-map ORAM through
:meth:`PathORAM.access_position_block` — the closure-free combined
lookup/install — so a recursive access costs H path operations and nothing
else.

Background eviction follows Section 3.1.1: whenever *any* stash in the
hierarchy exceeds its threshold, a dummy access is issued to *every* ORAM in
the same order as a normal access (smallest first, data ORAM last), so dummy
rounds are indistinguishable from real accesses.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.core.background_eviction import NoEviction
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.plb import PosMapLookaside
from repro.core.position_map import PositionMap
from repro.core.stats import AccessStats
from repro.core.super_block import DynamicSuperBlockMapper, SuperBlockMapper
from repro.core.tree import TreeStorage
from repro.core.types import AccessResult, Operation, TraceResult
from repro.errors import ConfigurationError, ReproError, StashOverflowError

StorageFactory = Callable[[ORAMConfig], TreeStorage]


def _fused_op(oram: PathORAM):
    """The ORAM's one path op, or ``None`` on the generic engine.

    The classified list engine's :meth:`PathORAM._fused_single_access` and
    the column engine's ``fused_single_access`` are each their engine's only
    path op and share one calling convention, so the hierarchical chain
    walk calls them directly and interchangeably, whichever engine each
    level's storage selects.  Generic-engine ORAMs (wrapper storages)
    return ``None`` and are driven through their public methods instead.
    """
    if oram._classified_fast:  # noqa: SLF001
        return oram._fused_single_access  # noqa: SLF001
    engine = oram._column_engine  # noqa: SLF001
    if engine is not None:
        return engine.fused_single_access
    return None


class HierarchicalPathORAM:
    """A chain of Path ORAMs implementing the recursive construction.

    Parameters
    ----------
    hierarchy:
        The :class:`HierarchyConfig` describing every ORAM in the chain.
    rng:
        Shared random source (seed for reproducibility).
    storage_factory:
        Optional callable building a tree-storage back-end per ORAM config
        (e.g. to use encrypted storage); defaults to the functional backend.
    record_path_trace:
        Forwarded to each underlying :class:`PathORAM`.
    livelock_limit:
        Safety cap on dummy rounds per eviction trigger.
    plb_entries_per_level:
        Capacity, in position-map blocks per chain level, of the PosMap
        Lookaside Buffer (:class:`~repro.core.plb.PosMapLookaside`, the
        Freecursive-style label cache).
        Every physical position-map path op installs its block's live
        label list; a later access whose chain passes through a cached
        block is served at that level — and every level above is skipped
        entirely — with no extra RNG draws (fresh leaves are drawn up
        front either way, so the stream matches the PLB-off run).  ``0``
        (the default) disables the buffer; capacity 1 is the degenerate
        single-op memo that coalesces consecutive accesses through the
        same position-map block.  The buffer engages only when every
        position-map ORAM runs a fused (in-place label mutation) path op
        — on generic list/encrypted stacks it stays inert.  Hits count
        ``stats.plb_hits`` (on the ORAM that served the hit) and
        ``stats.coalesced_ops`` (on every skipped level); physical ops
        behind a lookup count ``stats.plb_misses``.
    """

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        rng: random.Random | None = None,
        storage_factory: StorageFactory | None = None,
        record_path_trace: bool = False,
        livelock_limit: int = 100_000,
        plb_entries_per_level: int = 0,
        data_super_block_mapper: SuperBlockMapper | None = None,
    ) -> None:
        if plb_entries_per_level < 0:
            raise ConfigurationError("plb_entries_per_level must be >= 0")
        self._hierarchy = hierarchy
        self._rng = rng if rng is not None else random.Random()
        self._configs = hierarchy.oram_configs
        self._dynamic_data = isinstance(data_super_block_mapper, DynamicSuperBlockMapper)
        if self._dynamic_data and hierarchy.data_oram.super_block_size != 1:
            raise ConfigurationError(
                "dynamic super-block merging keeps the position map at "
                "per-address granularity; the data ORAM config must use "
                "super_block_size=1 (the mapper's max_group_size bounds "
                "runtime groups instead)"
            )
        self._orams: list[PathORAM] = []
        for index, config in enumerate(self._configs):
            storage = storage_factory(config) if storage_factory is not None else None
            self._orams.append(
                PathORAM(
                    config,
                    storage=storage,
                    eviction_policy=NoEviction(),
                    super_block_mapper=data_super_block_mapper if index == 0 else None,
                    rng=self._rng,
                    create_on_miss=True,
                    record_path_trace=record_path_trace,
                )
            )
        # labels_per_block[i] = how many leaf labels of ORAM i fit in one
        # block of ORAM i+1 (both zero-indexed, data ORAM = 0).
        self._labels_per_block = [
            hierarchy.labels_per_position_block(self._configs[i])
            for i in range(len(self._configs) - 1)
        ]
        self._child_num_leaves = [config.num_leaves for config in self._configs]
        outer = self._configs[-1]
        self._onchip_position_map = PositionMap(
            outer.position_map_entries, outer.num_leaves, rng=self._rng
        )
        self._stats = AccessStats()
        self._livelock_limit = livelock_limit
        # Hot-path caches for the chain walk and the eviction rounds:
        # * one reused buffer of fresh leaves, filled by a single
        #   getrandbits draw per ORAM (leaf counts are powers of two);
        # * the (block, slot) chain per data-ORAM group, memoised — the
        #   divmod ladder is pure arithmetic on the group id;
        # * the on-chip position map's entry list, so the outermost
        #   lookup/install is one list index;
        # * dummy rounds walk the ORAMs smallest-first (the reverse of
        #   construction order) and re-check only stashes with a threshold.
        self._leaf_bits = [(config.num_leaves - 1).bit_length() for config in self._configs]
        self._new_leaves = [0] * len(self._configs)
        self._getrandbits = self._rng.getrandbits
        # Chain memoisation is worth one dict entry per accessed group only
        # while the map stays small (like path_oram's _deepest_table, which
        # is disabled for big trees); past the cutoff the divmod ladder is
        # recomputed per access.
        data_groups = self._orams[0].super_block_mapper.num_groups(
            self._configs[0].working_set_blocks
        )
        self._chain_cache: dict[int, tuple[tuple[int, int], ...]] | None = (
            {} if data_groups <= 1 << 16 else None
        )
        self._data_group_of = self._orams[0].super_block_mapper.group_of
        self._onchip_leaves = self._onchip_position_map.leaves
        self._pending_data_leaf = 0
        # PosMap Lookaside Buffer.  It only engages when every
        # position-map level has a fused path op (in-place label mutation
        # keeps cached references live); on generic stacks it stays
        # allocated-but-inert.
        self._plb_entries = plb_entries_per_level
        self._plb: PosMapLookaside | None = (
            PosMapLookaside(len(self._configs), plb_entries_per_level)
            if plb_entries_per_level and len(self._configs) > 1
            else None
        )
        self._plb_active = self._plb is not None and all(
            _fused_op(oram) is not None for oram in self._orams[1:]
        )
        self._install_plb_observers()
        self._eviction_order = tuple(reversed(self._orams))
        self._thresholded_orams = tuple(
            (oram, oram.eviction_threshold)
            for oram in self._orams
            if oram.eviction_threshold is not None
        )

    def _install_plb_observers(self) -> None:
        """(Re-)install the PLB coherence closures on the chain's ORAMs.

        Shared by construction and :meth:`__setstate__`: the observers are
        closures over the PLB (unpicklable by design), so a snapshot strips
        them from every child ORAM and a restore re-installs them here.
        """
        if not self._plb_active:
            return
        plb = self._plb
        for level, oram in enumerate(self._orams[1:], start=1):

            def _observe(address, labels, _level=level, _plb=plb):
                # access_position_block coherence hook: a fused op hands
                # over the block's live label list (install/refresh); a
                # re-materialising op hands None (drop any stale ref).
                if labels is None:
                    _plb.invalidate(_level, address)
                else:
                    _plb.install(_level, address, labels)

            oram._position_block_observer = _observe  # noqa: SLF001
        if self._dynamic_data and self._labels_per_block:
            k = self._labels_per_block[0]

            def _retarget(lo, hi, _plb=plb, _k=k):
                # A dynamic cohort move re-leafed [lo, hi) behind the
                # chain's back: drop every level-1 position-map block
                # covering the span before a stale label can be served.
                _plb.invalidate_range(1, (lo - 1) // _k + 1, (hi - 2) // _k + 1)

            self._orams[0]._retarget_observer = _retarget  # noqa: SLF001

    # ------------------------------------------------------------------
    # Checkpoint/resume
    # ------------------------------------------------------------------
    #: Envelope kind tag written by :meth:`snapshot` (see repro.core.snapshot).
    SNAPSHOT_KIND = "hierarchical-path-oram"

    def __setstate__(self, state: dict) -> None:
        # The child ORAMs' __getstate__ stripped the PLB observer closures;
        # everything else (shared RNG, the PLB's live label-list references
        # into the chain's blocks, the memoised chain tables) round-trips
        # through the pickle memo with aliasing intact.
        self.__dict__.update(state)
        self._install_plb_observers()

    def snapshot(self) -> dict:
        """Capture the whole chain's state in a versioned envelope.

        Covers every ORAM in the chain (storage, stash, position map,
        stats), the on-chip position map, the PLB contents and the shared
        ``random.Random`` state, so a :meth:`restore`'d hierarchy continues
        bit-identically to this one.
        """
        from repro.core.snapshot import make_snapshot

        return make_snapshot(self, self.SNAPSHOT_KIND)

    @classmethod
    def restore(cls, snapshot: dict) -> "HierarchicalPathORAM":
        """Reconstruct a hierarchy from a :meth:`snapshot` envelope.

        Raises :class:`~repro.errors.CheckpointError` on version, format or
        kind mismatches.
        """
        from repro.core.snapshot import load_snapshot

        return load_snapshot(snapshot, cls.SNAPSHOT_KIND, cls)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hierarchy(self) -> HierarchyConfig:
        return self._hierarchy

    @property
    def orams(self) -> tuple[PathORAM, ...]:
        """The underlying ORAMs, data ORAM first."""
        return tuple(self._orams)

    @property
    def data_oram(self) -> PathORAM:
        return self._orams[0]

    @property
    def num_orams(self) -> int:
        return len(self._orams)

    @property
    def stats(self) -> AccessStats:
        """Hierarchy-level counters: real accesses and dummy *rounds*."""
        return self._stats

    @property
    def onchip_position_map(self) -> PositionMap:
        return self._onchip_position_map

    @property
    def plb(self) -> PosMapLookaside | None:
        """The PosMap Lookaside Buffer (None when disabled).

        Allocated whenever ``plb_entries_per_level`` requests capacity;
        *served* only when every position-map level runs a fused path op
        (see :attr:`plb_active`).
        """
        return self._plb

    @property
    def plb_active(self) -> bool:
        """Whether chain walks are actually served from the PLB."""
        return self._plb_active

    @property
    def plb_entries_per_level(self) -> int:
        """The requested PLB capacity (0 = off)."""
        return self._plb_entries

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def access(
        self, address: int, op: Operation = Operation.READ, data: Any = None
    ) -> AccessResult:
        """One full hierarchical access (``accessHORAM`` in Section 2.3).

        With a dynamic super-block mapper on the data ORAM, the chain walk
        is performed exactly as usual (same position-map ORAM accesses,
        same fresh-leaf install), but the data ORAM's per-address mirror is
        authoritative for where the block truly is — the chain's stored
        label can be stale for members a merge retargeted while they sat in
        the stash; see :meth:`PathORAM.access_dynamic_path`.
        """
        current_leaf = self._resolve_position_chain(address)
        if self._dynamic_data:
            result = self._orams[0].access_dynamic_path(
                address, self._pending_data_leaf, op, data
            )
            self._plb_dynamic_recheck(address)
        else:
            result = self._orams[0].access_path(
                address, current_leaf, self._pending_data_leaf, op, data
            )
        self._stats.real_accesses += 1
        result.dummy_accesses = self._run_background_eviction()
        return result

    def read(self, address: int) -> AccessResult:
        return self.access(address, Operation.READ)

    def write(self, address: int, data: Any) -> AccessResult:
        return self.access(address, Operation.WRITE, data)

    def access_many(
        self,
        addresses: Any,
        op: Operation = Operation.READ,
        data: Any = None,
    ) -> TraceResult:
        """Consume a whole trace of addresses in one fused chain loop.

        Bit-for-bit identical to ``for a in addresses: self.access(a, op,
        data)``: the position-map chain walk is inlined with every lookup
        hoisted out of the loop, the data-ORAM step takes the single-member
        :meth:`~repro.core.path_oram.PathORAM.access_fixed_leaf` fast path
        when it can (the generic ``access_path`` otherwise, e.g. with super
        blocks), and the per-access over-threshold check reads the stash
        sizes directly — the dummy-round machinery is only entered when a
        stash is actually over its threshold.

        With the PosMap Lookaside Buffer (``plb_entries_per_level``) the
        loop
        additionally skips every position-map path operation whose block
        is still in the per-level label cache: the access that physically
        read the block in shares its fused path op with every later access
        that resolves through it, which only retargets its label inside
        the cached block (see the constructor's parameter descriptions).
        Logical results are unchanged; the physical op sequence is not.
        """
        orams = self._orams
        data_oram = orams[0]
        outer_index = len(self._configs) - 1
        leaf_bits = self._leaf_bits
        new_leaves = self._new_leaves
        getrandbits = self._getrandbits
        cache = self._chain_cache
        chain_for = self._chain_for
        onchip = self._onchip_leaves
        group_of = self._data_group_of
        labels_per_block = self._labels_per_block
        child_num_leaves = self._child_num_leaves
        # When every ORAM has a direct path op — the classified list engine
        # or the column engine — each level is one direct call with
        # deferred per-ORAM real-access counters; otherwise each level goes
        # through its public method.
        fused_ops = [_fused_op(oram) for oram in orams]
        all_fused = data_oram._single_member_groups and all(  # noqa: SLF001
            fused is not None for fused in fused_ops
        )
        if all_fused:
            pm_lists = [oram._pm_leaves for oram in orams]  # noqa: SLF001
            oram_stats = [oram._stats for oram in orams]  # noqa: SLF001
            occ_samplers = [
                (stat.stash_occupancy_samples.append, oram._stash_blocks)  # noqa: SLF001
                if stat.record_occupancy
                else None
                for oram, stat in zip(orams, oram_stats)
            ]
            real_counts = [0] * len(orams)
            d_working_set = data_oram._working_set  # noqa: SLF001
            d_create = data_oram._create_on_miss  # noqa: SLF001
            is_write = op is Operation.WRITE
            # Lookaside state: per position-map ORAM, the PLB's dict of
            # recently operated block addresses mapped to live references
            # to their label vectors (payloads ride by reference through
            # the flat slot array and the memmap object column alike, so
            # retargeting a cached list retargets the read-in block
            # wherever it currently rests — tree or stash).  The dict ops
            # are inlined below; per-level hit/miss/coalesced counts are
            # deferred like the real-access counters and flushed once.
            plb = self._plb if self._plb_active else None
            lookaside = plb is not None and outer_index > 0
            if lookaside:
                plb_levels = plb.levels
                plb_capacity = plb.entries_per_level
                coalesced_counts = [0] * (outer_index + 1)
                plb_hit_counts = [0] * (outer_index + 1)
                plb_miss_counts = [0] * (outer_index + 1)
        else:
            lookaside = False
            walk_chain = self._walk_position_chain
            dynamic_recheck = (
                self._plb_dynamic_recheck
                if self._dynamic_data and self._plb_active
                else None
            )
            if self._dynamic_data:
                dynamic_access = data_oram.access_dynamic_path

                def data_access(address, current_leaf, new_leaf, op, data):
                    # The chain-read leaf is advisory under dynamic merging
                    # (the data ORAM's per-address mirror is authoritative).
                    return dynamic_access(address, new_leaf, op, data)

            else:
                data_access = (
                    data_oram.access_fixed_leaf
                    if data_oram._single_member_groups  # noqa: SLF001
                    else data_oram.access_path
                )
        # (threshold, stash dict) pairs: the per-access check is a len()
        # per thresholded ORAM, with no property or method hops.
        thresholded = tuple(
            (threshold, oram._stash_blocks)  # noqa: SLF001
            for oram, threshold in self._thresholded_orams
        )
        run_eviction = self._run_background_eviction
        stats = self._stats
        real = found_count = rounds_total = 0
        try:
            for address in addresses:
                group = group_of(address)
                for index, bits in enumerate(leaf_bits):
                    new_leaves[index] = getrandbits(bits) if bits else 0
                if cache is None:
                    chain = chain_for(group)
                else:
                    chain = cache.get(group)
                    if chain is None:
                        chain = cache[group] = chain_for(group)
                if not chain:
                    # Single-ORAM hierarchy: on-chip map holds data leaves.
                    current_leaf = onchip[group]
                    onchip[group] = new_leaves[0]
                elif all_fused:
                    # Deepest chain entry whose position-map block is still
                    # in the lookaside buffer at its level.  A hit is safe
                    # wherever it lands: serving it leaves the cached block
                    # unmoved (no read, no remap), so the label for it one
                    # level up stays accurate and every level above can be
                    # skipped outright.  Scan inner-to-outer; the first hit
                    # wins because it skips the most ops.
                    divergence = 0
                    if lookaside:
                        while divergence < outer_index:
                            level_cache = plb_levels[divergence + 1]
                            hit_labels = level_cache.get(chain[divergence][0])
                            if hit_labels is not None:
                                break
                            divergence += 1
                    else:
                        divergence = outer_index
                    if divergence < outer_index:
                        # Ops above the boundary touch nothing: their
                        # blocks do not move and their labels still point
                        # at the (unmoved) cached block's sub-chain.
                        for oram_index in range(divergence + 2, outer_index + 1):
                            coalesced_counts[oram_index] += 1
                        # Boundary hit: retarget this access's label inside
                        # the cached block instead of a fresh path op, and
                        # MRU-promote the served entry.
                        boundary = divergence + 1
                        block_address, slot = chain[divergence]
                        current_leaf = hit_labels[slot]
                        hit_labels[slot] = new_leaves[divergence]
                        del level_cache[block_address]
                        level_cache[block_address] = hit_labels
                        coalesced_counts[boundary] += 1
                        plb_hit_counts[boundary] += 1
                    else:
                        outer_group = chain[-1][0] - 1
                        current_leaf = onchip[outer_group]
                        onchip[outer_group] = new_leaves[outer_index]
                    for oram_index in range(divergence, 0, -1):
                        child_index = oram_index - 1
                        block_address, slot = chain[child_index]
                        pm_lists[oram_index][block_address - 1] = new_leaves[oram_index]
                        current_leaf, labels = fused_ops[oram_index](
                            block_address,
                            current_leaf,
                            new_leaves[oram_index],
                            True,
                            None,
                            False,
                            slot,
                            new_leaves[child_index],
                            labels_per_block[child_index],
                            child_num_leaves[child_index],
                        )
                        if lookaside:
                            # This level's lookup missed; install the op's
                            # live label list (MRU), evicting the oldest
                            # entry past capacity.
                            level_cache = plb_levels[oram_index]
                            if block_address in level_cache:
                                del level_cache[block_address]
                            elif len(level_cache) >= plb_capacity:
                                del level_cache[next(iter(level_cache))]
                            level_cache[block_address] = labels
                            plb_miss_counts[oram_index] += 1
                        real_counts[oram_index] += 1
                        sampler = occ_samplers[oram_index]
                        if sampler is not None:
                            sampler[0](len(sampler[1]))
                else:
                    current_leaf = walk_chain(chain, new_leaves)
                if all_fused:
                    # Inlined data-ORAM step (access_fixed_leaf minus the
                    # wrapper: same validation, deferred stat counters).
                    if not 1 <= address <= d_working_set:
                        raise ConfigurationError(
                            f"address {address} outside [1, {d_working_set}]"
                        )
                    pm_lists[0][address - 1] = new_leaves[0]
                    _, found = fused_ops[0](
                        address, current_leaf, new_leaves[0],
                        is_write, data, d_create, None, 0, 0, 0,
                    )
                    if found:
                        found_count += 1
                    real_counts[0] += 1
                    sampler = occ_samplers[0]
                    if sampler is not None:
                        sampler[0](len(sampler[1]))
                else:
                    result = data_access(address, current_leaf, new_leaves[0], op, data)
                    found_count += result.found
                    if dynamic_recheck is not None:
                        dynamic_recheck(address)
                real += 1
                for threshold, stash_blocks in thresholded:
                    if len(stash_blocks) > threshold:
                        rounds_total += run_eviction()
                        break
        finally:
            stats.real_accesses += real
            if all_fused:
                for oram_stat, count in zip(oram_stats, real_counts):
                    oram_stat.real_accesses += count
                if lookaside:
                    hits_total = misses_total = 0
                    for oram_index in range(1, outer_index + 1):
                        oram_stat = oram_stats[oram_index]
                        count = coalesced_counts[oram_index]
                        if count:
                            oram_stat.coalesced_ops += count
                        hits = plb_hit_counts[oram_index]
                        if hits:
                            oram_stat.plb_hits += hits
                            hits_total += hits
                        misses = plb_miss_counts[oram_index]
                        if misses:
                            oram_stat.plb_misses += misses
                            misses_total += misses
                    plb.hits += hits_total
                    plb.misses += misses_total
        return TraceResult(accesses=real, found=found_count, dummy_accesses=rounds_total)

    def extract(self, address: int) -> dict[int, Any]:
        """Exclusive-ORAM fetch: remove the block's super-block group from
        the data ORAM (position-map ORAMs are traversed normally).

        Under dynamic super-block merging the position-map chain is walked
        for its access pattern exactly as usual, but the data ORAM's own
        per-address mirror decides which path holds each member (chain
        labels go stale when the merge policy regroups addresses), so the
        extraction routes through
        :meth:`PathORAM.extract_dynamic_path`, with the chain's fresh data
        leaf used only when the merge plan wants a fresh draw.
        """
        current_leaf = self._resolve_position_chain(address)
        if self._dynamic_data:
            extracted = self._orams[0].extract_dynamic_path(
                address, self._pending_data_leaf
            )
            self._plb_dynamic_recheck(address)
        else:
            extracted = self._orams[0].extract_path(
                address, current_leaf, self._pending_data_leaf
            )
        self._stats.real_accesses += 1
        self._run_background_eviction()
        return extracted

    def insert(self, address: int, data: Any = None) -> int:
        """Exclusive-ORAM write-back of an evicted cache line.

        No path is accessed (Section 3.3.1); the block drops into the data
        ORAM's stash at its group's current leaf, then background eviction
        runs across the hierarchy.
        """
        self._orams[0].insert(address, data)
        return self._run_background_eviction()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _chain_for(self, group: int) -> tuple[tuple[int, int], ...]:
        """For each position-map ORAM (innermost data side first), the
        ``(block_address, slot)`` holding the child's leaf label."""
        chain: list[tuple[int, int]] = []
        identifier = group
        for labels_per_block in self._labels_per_block:
            block_address = identifier // labels_per_block + 1
            chain.append((block_address, identifier % labels_per_block))
            identifier = block_address - 1
        return tuple(chain)

    def _identifier_chain(self, address: int) -> list[tuple[int, int]]:
        """Back-compat view of the chain for ``address`` (tests/tools)."""
        return list(self._chain_for(self._data_group_of(address)))

    def _resolve_position_chain(self, address: int) -> int:
        """Walk the position-map ORAMs outermost-first.

        Returns the data ORAM leaf currently assigned to ``address``'s group
        and leaves the freshly drawn new data-ORAM leaf in
        ``self._pending_data_leaf``.  Every position-map ORAM along the way
        is accessed (and its relevant entry updated to the child's new
        leaf) through :meth:`PathORAM.access_position_block`, exactly as
        ``accessHORAM`` prescribes.
        """
        group = self._data_group_of(address)
        new_leaves = self._new_leaves
        getrandbits = self._getrandbits
        for index, bits in enumerate(self._leaf_bits):
            new_leaves[index] = getrandbits(bits) if bits else 0
        self._pending_data_leaf = new_leaves[0]

        cache = self._chain_cache
        if cache is None:
            chain = self._chain_for(group)
        else:
            chain = cache.get(group)
            if chain is None:
                chain = cache[group] = self._chain_for(group)

        if not chain:
            # Single-ORAM hierarchy: the on-chip map holds data leaves directly.
            onchip = self._onchip_leaves
            current = onchip[group]
            onchip[group] = new_leaves[0]
            return current

        return self._walk_position_chain(chain, new_leaves)

    def _walk_position_chain(
        self, chain: tuple[tuple[int, int], ...], new_leaves: list[int]
    ) -> int:
        """One position-map chain walk, outermost-first, PLB-served.

        The shared walk behind the looped :meth:`access` path and the
        non-fused :meth:`access_many` branch (the fully-fused branch
        inlines the same logic with deferred counters).  When the PosMap
        Lookaside Buffer is active, the deepest chain entry whose block is
        cached is served in place of its path op — and every level above
        it is skipped — exactly as in the fused loop; physical ops install
        their blocks through :meth:`PathORAM.access_position_block`'s
        observer hook.  ``new_leaves`` must already hold this access's
        fresh leaf for every level (they are drawn up front either way, so
        a hit consumes no extra randomness).
        """
        orams = self._orams
        outer_index = len(self._configs) - 1
        plb = self._plb if self._plb_active else None
        divergence = outer_index
        if plb is not None:
            plb_levels = plb.levels
            divergence = 0
            while divergence < outer_index:
                level_cache = plb_levels[divergence + 1]
                hit_labels = level_cache.get(chain[divergence][0])
                if hit_labels is not None:
                    break
                divergence += 1
        if divergence < outer_index:
            # Boundary hit: serve this access's label from the cached
            # block (MRU-promoting it); the levels above are skipped.
            boundary = divergence + 1
            block_address, slot = chain[divergence]
            current_leaf = hit_labels[slot]
            hit_labels[slot] = new_leaves[divergence]
            del level_cache[block_address]
            level_cache[block_address] = hit_labels
            plb.hits += 1
            boundary_stats = orams[boundary].stats
            boundary_stats.plb_hits += 1
            boundary_stats.coalesced_ops += 1
            for oram_index in range(divergence + 2, outer_index + 1):
                orams[oram_index].stats.coalesced_ops += 1
        else:
            # The outermost position-map ORAM's own leaf comes from the
            # on-chip map (position-map ORAMs always use single-member
            # groups, so the group id is just the block address less one).
            onchip = self._onchip_leaves
            outer_group = chain[-1][0] - 1
            current_leaf = onchip[outer_group]
            onchip[outer_group] = new_leaves[outer_index]

        # Walk from the boundary (or the outermost ORAM) inwards to ORAM_2;
        # each physical op's observer installs its block into the PLB.
        labels_per_block = self._labels_per_block
        child_num_leaves = self._child_num_leaves
        for oram_index in range(divergence, 0, -1):
            child_index = oram_index - 1
            block_address, slot = chain[child_index]
            current_leaf = orams[oram_index].access_position_block(
                block_address,
                current_leaf,
                new_leaves[oram_index],
                slot,
                new_leaves[child_index],
                labels_per_block[child_index],
                child_num_leaves[child_index],
            )
            if plb is not None:
                plb.misses += 1
                orams[oram_index].stats.plb_misses += 1
        return current_leaf

    def _plb_dynamic_recheck(self, address: int) -> None:
        """Post-data-access coherence check under dynamic super blocks.

        The chain walk installed ``new_leaves[0]`` as ``address``'s label,
        but the dynamic plan may have kept the block on its cohort's
        anchor leaf instead (no cohort *move*, so the retarget observer
        never fired).  If the data ORAM's authoritative mirror disagrees
        with what the chain installed, the level-1 position-map block
        covering ``address`` now holds a stale label — drop it from the
        PLB before it can be served.
        """
        if not self._plb_active or not self._labels_per_block:
            return
        if self._orams[0]._pm_leaves[address - 1] != self._new_leaves[0]:  # noqa: SLF001
            k = self._labels_per_block[0]
            self._plb.invalidate(1, self._data_group_of(address) // k + 1)

    def _run_background_eviction(self) -> int:
        """Issue dummy rounds until every stash is below its threshold."""
        rounds = 0
        while self._any_stash_over_threshold():
            for oram in self._eviction_order:  # smallest ORAM first, data last
                oram.dummy_access()
            rounds += 1
            self._stats.dummy_accesses += 1
            if rounds > self._livelock_limit:
                raise ReproError("hierarchical background eviction livelock")
        if rounds:
            self._check_stash_bounds()
        return rounds

    def _any_stash_over_threshold(self) -> bool:
        for oram, threshold in self._thresholded_orams:
            if oram.stash_occupancy > threshold:
                return True
        return False

    def _check_stash_bounds(self) -> None:
        for oram in self._orams:
            capacity = oram.config.stash_capacity
            if capacity is not None and oram.stash_occupancy > capacity:
                raise StashOverflowError(
                    f"{oram.config.name or 'ORAM'}: stash {oram.stash_occupancy} > {capacity}"
                )

    def total_dummy_rounds(self) -> int:
        """Dummy rounds issued since construction."""
        return self._stats.dummy_accesses

    def total_real_accesses(self) -> int:
        """Real hierarchical accesses since construction."""
        return self._stats.real_accesses
