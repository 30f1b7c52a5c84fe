"""Hierarchical (recursive) Path ORAM (Section 2.3).

``ORAM_1`` holds the program's data blocks; ``ORAM_2`` holds ``ORAM_1``'s
position map, packed ``k`` leaf labels per block; and so on until the
outermost position map fits on chip.  One logical access therefore walks the
chain outermost-first: each position-map lookup yields the leaf to read in
the next (larger) ORAM and simultaneously installs the fresh leaf that ORAM
is being remapped to.

One chain walk serves :meth:`HierarchicalPathORAM.access`,
:meth:`~HierarchicalPathORAM.extract` and
:meth:`~HierarchicalPathORAM.access_many`: it draws the whole stack of
fresh leaves into one reused buffer (a single ``getrandbits`` per ORAM),
resolves the per-level ``(block, slot)`` coordinates (one divmod per
position-map level), serves the deepest level it can from the PosMap
Lookaside Buffer, drives each remaining position-map ORAM inwards through
:meth:`PathORAM.access_position_block` and ends with the data ORAM's
:meth:`PathORAM.access_path` — so a recursive access costs at most H path
operations and nothing else.  Every ORAM runs its own engine's path op.

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
        position-map ORAM runs the classified or column path op, which
        mutate label lists in place — on the generic ``plain`` and
        ``encrypted`` stacks it stays inert.  Hits count
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
        if livelock_limit < 1:
            raise ConfigurationError("livelock_limit must be >= 1")
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
                    record_path_trace=record_path_trace,
                )
            )
        # labels_per_block[i] = how many leaf labels of ORAM i fit in one
        # block of ORAM i+1 (both zero-indexed, data ORAM = 0).
        self._labels_per_block = [
            hierarchy.labels_per_position_block(self._configs[i])
            for i in range(len(self._configs) - 1)
        ]
        # The inward walk's per-level constants, outermost position-map
        # ORAM first: (level, child level, ORAM, labels per block, child
        # leaf count).
        self._inward_steps = tuple(
            (
                level,
                level - 1,
                self._orams[level],
                self._labels_per_block[level - 1],
                self._configs[level - 1].num_leaves,
            )
            for level in range(len(self._configs) - 1, 0, -1)
        )
        outer = self._configs[-1]
        self._onchip_position_map = PositionMap(
            outer.position_map_entries, outer.num_leaves, rng=self._rng
        )
        self._stats = AccessStats()
        self._livelock_limit = livelock_limit
        # Hot-path caches for the chain walk and the eviction rounds:
        # * one reused buffer of fresh leaves, filled by a single
        #   getrandbits draw per ORAM (leaf counts are powers of two, and
        #   getrandbits(0) is 0 without consuming the stream);
        # * the on-chip position map's entry list, so the outermost
        #   lookup/install is one list index;
        # * dummy rounds walk the ORAMs smallest-first (the reverse of
        #   construction order) and re-check only stashes with a threshold,
        #   reading each stash's size straight off its dict.
        self._leaf_bits = [(config.num_leaves - 1).bit_length() for config in self._configs]
        self._new_leaves = [0] * len(self._configs)
        self._getrandbits = self._rng.getrandbits
        self._data_group_of = self._orams[0].super_block_mapper.group_of
        self._onchip_leaves = self._onchip_position_map.leaves
        # PosMap Lookaside Buffer.  It only engages when every
        # position-map level mutates its label lists in place (the
        # classified and column ops), which keeps cached references live;
        # on generic stacks it stays allocated-but-inert.
        self._plb_entries = plb_entries_per_level
        self._plb: PosMapLookaside | None = (
            PosMapLookaside(len(self._configs), plb_entries_per_level)
            if plb_entries_per_level and len(self._configs) > 1
            else None
        )
        self._plb_active = self._plb is not None and all(
            oram._classified_fast or oram._column_engine is not None  # noqa: SLF001
            for oram in self._orams[1:]
        )
        self._install_retarget_observer()
        self._eviction_order = tuple(reversed(self._orams))
        self._thresholded = tuple(
            (oram.eviction_threshold, oram._stash_blocks)  # noqa: SLF001
            for oram in self._orams
            if oram.eviction_threshold is not None
        )

    def _install_retarget_observer(self) -> None:
        """(Re-)install the PLB coherence closure on the data ORAM.

        Shared by construction and :meth:`__setstate__`: the observer is a
        closure over the PLB (unpicklable by design), so a snapshot strips
        it from the data ORAM and a restore re-installs it here.  The chain
        walk itself keeps the PLB coherent with its own position-map ops.
        """
        if self._plb_active and self._dynamic_data and self._labels_per_block:
            plb = self._plb
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
        # The data ORAM's __getstate__ stripped the PLB observer closure;
        # everything else (shared RNG, the PLB's live label-list references
        # into the chain's blocks) round-trips through the pickle memo with
        # aliasing intact.  Snapshots written before the chain memo was
        # removed carry it.
        state.pop("_chain_cache", None)
        self.__dict__.update(state)
        self._install_retarget_observer()

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
        *served* only when every position-map level runs the classified or
        column path op (see :attr:`plb_active`).
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
        the stash, so :meth:`PathORAM.access_path` treats it as advisory.
        """
        self._check_address(address)
        self._orams[0]._check_write(op, data)  # noqa: SLF001 - before the chain moves
        result = self._chain_access(address, op, data, False)
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
        """Consume a whole trace of addresses in one loop.

        Bit-for-bit identical to ``for a in addresses: self.access(a, op,
        data)``: each element runs the same chain walk as :meth:`access`,
        and the per-access over-threshold check reads the stash sizes
        directly — the dummy-round machinery is only entered when a stash
        is actually over its threshold.  One deliberate divergence: the
        whole trace is validated up front, so an out-of-range address
        raises *before* any access runs.
        """
        if type(addresses) is not list:
            addresses = list(addresses)
        if addresses:
            self._check_address(min(addresses))
            self._check_address(max(addresses))
        self._orams[0]._check_write(op, data)  # noqa: SLF001 - before the chain moves
        chain_access = self._chain_access
        thresholded = self._thresholded
        run_eviction = self._run_background_eviction
        real = found_count = rounds_total = 0
        try:
            for address in addresses:
                if chain_access(address, op, data, False).found:
                    found_count += 1
                real += 1
                for threshold, stash_blocks in thresholded:
                    if len(stash_blocks) > threshold:
                        rounds_total += run_eviction()
                        break
        finally:
            self._stats.real_accesses += real
        return TraceResult(accesses=real, found=found_count, dummy_accesses=rounds_total)

    def extract(self, address: int) -> dict[int, Any]:
        """Exclusive-ORAM fetch: remove the block's super-block group from
        the data ORAM (position-map ORAMs are traversed normally).

        Under dynamic super-block merging the position-map chain is walked
        for its access pattern exactly as usual, but the data ORAM's own
        per-address mirror decides which path holds each member (chain
        labels go stale when the merge policy regroups addresses):
        :meth:`PathORAM.extract_path` treats the chain's label as advisory
        and uses the chain's fresh data leaf only when the merge plan wants
        a fresh draw.
        """
        self._check_address(address)
        extracted = self._chain_access(address, Operation.READ, None, True)
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
    def _check_address(self, address: int) -> None:
        working_set = self._configs[0].working_set_blocks
        if not 1 <= address <= working_set:
            raise ConfigurationError(f"address {address} outside [1, {working_set}]")

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

    def _chain_access(self, address: int, op: Operation, data: Any, extract: bool):
        """One hierarchical access up to background eviction: the chain walk.

        Draws a fresh leaf for every ORAM up front (so a PLB hit consumes
        no extra randomness and the stream matches the PLB-off run), works
        out the ``(block, slot)`` chain, and — with the PosMap
        Lookaside Buffer active — serves the deepest chain entry whose
        block is cached: it retargets this access's label inside the
        cached block, and every level above is skipped, since the cached
        block does not move and the label for it one level up stays
        accurate.  The remaining position-map ORAMs run inwards through
        :meth:`PathORAM.access_position_block`, each physical op
        installing its block's live label list in the PLB.  The data step
        is :meth:`PathORAM.access_path` (``extract``:
        :meth:`PathORAM.extract_path`) for every data mapper; under dynamic
        super blocks the chain-read leaf is advisory there, and
        :meth:`_plb_dynamic_recheck` then drops a PLB entry the data step
        made stale.  Returns the data step's result; the caller has
        validated ``address`` and counts the access.
        """
        # An indexed loop: on this per-access path it is cheaper than
        # enumerate() or a slice assignment from map().
        new_leaves = self._new_leaves
        getrandbits = self._getrandbits
        index = 0
        for bits in self._leaf_bits:
            new_leaves[index] = getrandbits(bits)
            index += 1
        chain = self._chain_for(self._data_group_of(address))

        onchip = self._onchip_leaves
        orams = self._orams
        if not chain:
            # Single-ORAM hierarchy: the on-chip map holds data leaves.
            group = self._data_group_of(address)
            current_leaf = onchip[group]
            onchip[group] = new_leaves[0]
        else:
            outer_index = len(chain)
            plb = self._plb if self._plb_active else None
            divergence = outer_index
            if plb is not None:
                # Scan inner-to-outer; the first hit skips the most ops.
                lookup = plb.lookup
                for level, (block_address, slot) in enumerate(chain, start=1):
                    labels = lookup(level, block_address)
                    if labels is not None:
                        divergence = level - 1
                        current_leaf = labels[slot]
                        labels[slot] = new_leaves[divergence]
                        orams[level]._stats.plb_hits += 1  # noqa: SLF001
                        for skipped in orams[level:]:
                            skipped._stats.coalesced_ops += 1  # noqa: SLF001
                        break
            if divergence == outer_index:
                # The outermost position-map ORAM's own leaf comes from the
                # on-chip map (position-map ORAMs always use single-member
                # groups, so the group id is the block address less one).
                outer_group = chain[-1][0] - 1
                current_leaf = onchip[outer_group]
                onchip[outer_group] = new_leaves[outer_index]
            steps = self._inward_steps[outer_index - divergence :]
            for level, child, oram, labels_per_block, child_num_leaves in steps:
                block_address, slot = chain[child]
                current_leaf, labels = oram.access_position_block(
                    block_address,
                    current_leaf,
                    new_leaves[level],
                    slot,
                    new_leaves[child],
                    labels_per_block,
                    child_num_leaves,
                )
                if plb is not None:
                    plb.install(level, block_address, labels)
                    oram._stats.plb_misses += 1  # noqa: SLF001

        data_oram = orams[0]
        if extract:
            result = data_oram.extract_path(address, current_leaf, new_leaves[0])
        else:
            result = data_oram.access_path(address, current_leaf, new_leaves[0], op, data)
        if self._dynamic_data:
            self._plb_dynamic_recheck(address)
        return result

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
        for threshold, stash_blocks in self._thresholded:
            if len(stash_blocks) > threshold:
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
