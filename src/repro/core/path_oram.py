"""The Path ORAM protocol (Section 2.1) with the paper's optimizations.

:class:`PathORAM` implements ``accessORAM`` / ``accessPath`` on top of a
pluggable tree storage back-end, with:

* a pluggable background-eviction policy (Section 3.1),
* optional super blocks via a :class:`SuperBlockMapper` (Section 3.2),
* an exclusive-ORAM API (:meth:`extract` / :meth:`insert`) used by the
  processor integration (Section 3.3.1),
* an ``access_path`` entry point used by the hierarchical construction
  (Section 2.3) plus an :meth:`access_position_block` combined
  lookup/install for the recursive position-map chain, and
* an optional adversary-visible trace of accessed leaves, used by the
  common-path-length attack (Section 3.1.3).

Each engine has exactly one path operation (read the path, remap the
block, greedy write-back): a plain function of the ORAM and one
9-argument contract.  A :class:`PathORAM` chooses it once, as
``_path_op``, when it is built or restored, and every entry point —
:meth:`PathORAM.access`, :meth:`PathORAM.access_many`,
:meth:`PathORAM.access_path`, :meth:`PathORAM.access_position_block` and
:meth:`PathORAM.dummy_access` — calls ``self._path_op(self, ...)``.  (A
stored bound method would tie the ORAM into a reference cycle and delay
freeing its tree until the cyclic collector runs.)  The ops:

* the classified list engine (the exact :class:`FlatTreeStorage` with at
  most 16 levels): :meth:`PathORAM._fused_single_access` reads the slot
  array in one pass, bucketing each block by the deepest level it may
  occupy as it is read, and slices the chosen blocks straight back into
  the slot array;
* the column engine (``memmap-flat``):
  :meth:`repro.core.numpy_engine.ColumnEngine._path_op`;
* the generic engine (wrapper storages, super blocks, deeper trees):
  :meth:`PathORAM._access_path` over a pending path buffer, which it reads
  with the storage's ``read_path_blocks`` and writes back with its
  ``write_path_levels`` on every stack, ``flat`` included.

Both super-block mappers run that one op and one span move
(:meth:`PathORAM._retarget_group`); they differ only in the leaf choice
each real access makes first (:meth:`PathORAM._choose_leaves`), where
dynamic merging's per-address map is authoritative and a caller's
``current_leaf`` only advisory.

The write-back buckets candidates once by the deepest level they may
occupy (one lookup per path block, and one capped scan of the stash's leaf
index that every op shares, :meth:`PathORAM._pool_stash`) and places them
deepest-first in a single walk over the path; in an eviction storm the
classified op places the path's own blocks first and then offers the stash
only the slots left free.  A block the classified op creates on a miss
while the stash is otherwise empty never enters it: after the path's own
blocks it takes the deepest free slot at or above its class (the merged
walk's choice for a one-block stash), or else joins the stash ahead of
any spilled path blocks.  Every op adds, retargets and removes stash
blocks through :class:`~repro.core.stash.Stash`'s methods; the ORAM's
friend views of the stash's dicts are only read.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Any

from repro.core.background_eviction import BackgroundEviction, EvictionPolicy, NoEviction
from repro.core.config import ORAMConfig
from repro.core.position_map import PositionMap
from repro.core.stash import Stash
from repro.core.stats import AccessStats
from repro.core.super_block import (
    DynamicSuperBlockMapper,
    StaticSuperBlockMapper,
    SuperBlockMapper,
)
from repro.core.tree import FlatTreeStorage, TreeStorage
from repro.core.types import AccessResult, Block, Operation, TraceResult, as_operation
from repro.errors import ConfigurationError, StashOverflowError

#: ``Operation.WRITE`` as a module constant: an enum attribute lookup costs
#: several times a global load, and single accesses compare against it once
#: per call.
_WRITE = Operation.WRITE


def leaf_common_path_length(leaf_a: int, leaf_b: int, levels: int) -> int:
    """Common path length of two leaves, computed from their labels.

    Equivalent to :func:`repro.core.tree.common_path_length` but O(1): two
    paths share ``t + 1`` buckets where ``t`` is the number of common
    leading bits of the two ``L``-bit leaf labels.
    """
    if levels == 0:
        return 1
    diff = leaf_a ^ leaf_b
    if diff == 0:
        return levels + 1
    return levels - diff.bit_length() + 1


class PathORAM:
    """A single Path ORAM.

    Parameters
    ----------
    config:
        The ORAM's parameters.
    storage:
        Tree storage back-end; defaults to the fast array-backed
        :class:`FlatTreeStorage`.
    eviction_policy:
        Background-eviction policy; defaults to the paper's
        :class:`BackgroundEviction` when the stash is bounded and
        :class:`NoEviction` when it is unbounded.
    super_block_mapper:
        Super-block grouping policy; defaults to the static mapper with the
        config's ``super_block_size``.
    rng:
        Random source for leaf assignment (seed it for reproducibility).
    record_path_trace:
        When True, every accessed leaf (real and dummy) is appended to
        :attr:`path_trace` — the adversary's view used by the CPL attack.
    """

    def __init__(
        self,
        config: ORAMConfig,
        storage: TreeStorage | None = None,
        eviction_policy: EvictionPolicy | None = None,
        super_block_mapper: SuperBlockMapper | None = None,
        rng: random.Random | None = None,
        record_path_trace: bool = False,
    ) -> None:
        self._config = config
        self._rng = rng if rng is not None else random.Random()
        self._storage = storage if storage is not None else FlatTreeStorage(config)
        if self._storage.config is not config and self._storage.config != config:
            raise ConfigurationError("storage was built for a different configuration")
        # Hot-path caches: the protocol reads these once per path operation,
        # so they must not go through the derived-property machinery.
        self._levels = config.levels
        self._z = config.z
        self._working_set = config.working_set_blocks
        self._eviction_threshold = config.eviction_threshold
        # The classified path op talks straight to FlatTreeStorage's slot
        # array (friend access to _slots, _occupancy and the per-leaf table
        # of bucket bases, which the storage owns and fills; see
        # _attach_path_op).  Subclasses of the flat storage may intercept
        # path operations, so only the exact type takes it.
        flat = type(self._storage) is FlatTreeStorage
        self._slots = self._storage._slots if flat else None  # noqa: SLF001
        # Scratch lists reused by every write-back: candidate blocks from
        # the stash and from the pending path buffer, bucketed by the
        # deepest level they may occupy on the path being written.
        self._by_deepest_stash: list[list[Block]] = [[] for _ in range(self._levels + 1)]
        self._by_deepest_buffer: list[list[Block]] = [[] for _ in range(self._levels + 1)]
        # The same class lists in deepest-first order, so the placement walk
        # can zip over (path bucket, buffer class, stash class) triples
        # without indexing three lists per level.
        self._by_buffer_rev = list(reversed(self._by_deepest_buffer))
        self._by_stash_rev = list(reversed(self._by_deepest_stash))
        # Levels 0..d can hold at most Z(d+1) blocks in total, so at most
        # Z(d+1) candidates of deepest-class d can ever be placed; stash
        # bucketing stops collecting a class once it holds that many, which
        # skips most of the (shallow-classed) stash when the stash is full.
        self._class_cap = [config.z * (d + 1) for d in range(self._levels + 1)]
        # deepest legal level = levels - bit_length(leaf_a XOR leaf_b); for
        # moderate trees a lookup table turns that into one list index on
        # the classified and column ops' hot paths (64K leaves = 512 KB, a
        # wash for bigger trees, which take the generic op's bit_length).
        if self._levels <= 16:
            self._deepest_table: list[int] | None = [self._levels] + [
                self._levels - diff.bit_length()
                for diff in range(1, 1 << self._levels)
            ]
        else:
            self._deepest_table = None
        # The classified path op (_fused_single_access) needs the exact flat
        # storage and the moderate-tree lookup tables.  The two cutoffs
        # coincide: levels <= 16 implies both the deepest-level table and
        # the storage's per-leaf bases table (tree.LEAF_CACHE_LEAVES) exist.
        self._classified_fast = flat and self._deepest_table is not None
        # Blocks read from the current path live here between the path read
        # and the path write-back.  Most of them go straight back into the
        # tree, so keeping them out of the stash's indexes until the
        # write-back decides they must stay avoids two index updates per
        # pass-through block.  Consumed by every write-back (a shared tuple
        # sentinel marks the no-pending-path state without an allocation).
        self._path_buffer: list[Block] | tuple[Block, ...] = ()
        self._transient_peak = 0
        self._mapper = (
            super_block_mapper
            if super_block_mapper is not None
            else StaticSuperBlockMapper(config.super_block_size)
        )
        self._single_member_groups = self._mapper.group_size == 1
        # Dynamic super-block merging: the mapper keeps the position map at
        # per-address granularity and plans every real access's merge/split
        # decisions in _choose_leaves.
        self._dynamic = isinstance(self._mapper, DynamicSuperBlockMapper)
        self._group_of = self._mapper.group_of
        num_groups = self._mapper.num_groups(config.working_set_blocks)
        self._position_map = PositionMap(num_groups, config.num_leaves, rng=self._rng)
        # Friend access for the per-access hot path: lookup/assign become a
        # plain list index, and leaf draws a cached bound method (same RNG
        # stream as PositionMap.random_leaf).
        self._pm_leaves = self._position_map.leaves
        self._random_leaf = self._position_map.random_leaf
        # Leaf counts are powers of two (full binary trees), so a fresh leaf
        # is one getrandbits call — the same stream PositionMap.random_leaf
        # draws from, without the method-call hop.
        self._draw_bits = (config.num_leaves - 1).bit_length()
        self._getrandbits = self._rng.getrandbits
        self._stash = Stash()
        # Read-only friend views of the stash's two dicts for the per-access
        # hot path (`len`, membership and leaf-group iteration without
        # method hops); every write goes through the Stash's methods.
        # Stash.clear() empties but never replaces them.  Subclasses that
        # swap in a different stash implementation must override the methods
        # that use these views.
        self._stash_blocks = self._stash._blocks  # noqa: SLF001
        self._stash_by_leaf = self._stash._by_leaf  # noqa: SLF001
        if eviction_policy is not None:
            self._eviction = eviction_policy
        elif config.stash_capacity is None:
            self._eviction = NoEviction()
        else:
            self._eviction = BackgroundEviction()
        self._stats = AccessStats()
        self._record_path_trace = record_path_trace
        self._path_trace: list[int] = []
        # When the policy is threshold-gated, the access fast path can skip
        # the policy call entirely while the stash sits below the threshold
        # (the policy would immediately return 0 anyway).
        self._eviction_gate = (
            self._eviction_threshold
            if isinstance(self._eviction, BackgroundEviction)
            and self._eviction_threshold is not None
            else None
        )
        # PLB coherence hook, set by HierarchicalPathORAM when a PosMap
        # Lookaside Buffer caches the position-map labels of this (data)
        # ORAM's blocks (see repro.core.plb): _retarget_observer(lo, hi)
        # fires whenever a dynamic super-block cohort move re-assigns the
        # leaves of the address range [lo, hi) behind the chain's back.
        self._retarget_observer = None
        self._attach_path_op()

    def _attach_path_op(self) -> None:
        """Choose this ORAM's one path op (by :meth:`__init__` and
        :meth:`__setstate__`).

        The classified list op needs the exact flat storage and
        single-member groups.  The column engine runs whole path operations
        on ``memmap-flat``'s int64 columns without materialising Block
        shells; the ``columnar`` marker only exists on
        NumpyFlatTreeStorage (and its subclasses), so the guarded import
        can never run without NumPy installed, and
        ColumnEngine.for_oram returns None for configurations it cannot
        serve bit-identically (wrapper subclasses, grouped super blocks,
        single-leaf trees).  Everything else runs the generic op.
        """
        cls = type(self)
        # The flat storage's per-leaf bases table, aliased like _slots (the
        # storage rebuilds it on restore, so the alias is re-made here).
        self._leaf_bases = (
            self._storage._geometry_table if self._slots is not None else None  # noqa: SLF001
        )
        self._column_engine = None
        if getattr(type(self._storage), "columnar", False):
            from repro.core.numpy_engine import ColumnEngine

            self._column_engine = ColumnEngine.for_oram(self)
        if self._classified_fast and self._single_member_groups:
            self._path_op = cls._fused_single_access
        elif self._column_engine is not None:
            self._path_op = self._column_engine._path_op  # noqa: SLF001
        else:
            self._path_op = cls._access_path

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ORAMConfig:
        return self._config

    @property
    def stats(self) -> AccessStats:
        return self._stats

    @property
    def position_map(self) -> PositionMap:
        return self._position_map

    @property
    def storage(self) -> TreeStorage:
        return self._storage

    @property
    def super_block_mapper(self) -> SuperBlockMapper:
        return self._mapper

    @property
    def eviction_policy(self) -> EvictionPolicy:
        return self._eviction

    @property
    def eviction_threshold(self) -> int | None:
        """Cached ``C - Z(L+1)`` (``None`` = unbounded stash)."""
        return self._eviction_threshold

    @property
    def stash_occupancy(self) -> int:
        """Number of real blocks currently in the stash."""
        return self._stash.occupancy

    @property
    def max_stash_occupancy(self) -> int:
        """High-water mark of the stash occupancy.

        Includes the transient peak while a path's blocks are held between
        read and write-back, matching the on-chip buffering the paper's
        stash models.
        """
        return max(self._stash.max_occupancy, self._transient_peak)

    @property
    def path_trace(self) -> list[int]:
        """Sequence of accessed leaves as visible to an adversary."""
        return self._path_trace

    def stash_addresses(self) -> list[int]:
        """Addresses of blocks currently in the stash."""
        return self._stash.addresses()

    def contains(self, address: int) -> bool:
        """True when ``address`` currently has a block in the stash or tree."""
        self._check_address(address)
        if address in self._stash:
            return True
        group = self._mapper.group_of(address)
        leaf = self._position_map.lookup(group)
        return any(block.address == address for block in self._storage.read_path(leaf))

    def total_blocks_stored(self) -> int:
        """Real blocks across the stash and the tree (invariant checking)."""
        return self._stash.occupancy + self._storage.occupancy()

    # ------------------------------------------------------------------
    # Checkpoint/resume
    # ------------------------------------------------------------------
    #: Envelope kind tag written by :meth:`snapshot` (see repro.core.snapshot).
    SNAPSHOT_KIND = "path-oram"

    def __getstate__(self) -> dict:
        # Everything in the instance dict pickles — including the bound RNG
        # methods and the friend views into the storage, stash and position
        # map, whose aliasing the pickle memo preserves exactly — except:
        # the PLB observer closure (installed by HierarchicalPathORAM,
        # which re-installs it on restore), the column engine (ndarray
        # aliases into the storage; rebuilt from the restored columns,
        # together with the path op) and the alias of
        # the storage's per-leaf geometry, which the storage leaves out of
        # its own state.
        state = self.__dict__.copy()
        state["_retarget_observer"] = None
        state["_column_engine"] = None
        state["_path_op"] = None
        del state["_leaf_bases"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Snapshots written before the Block free-list was removed carry it,
        # and those written before the storage owned its geometry carry the
        # ORAM's own per-leaf cache; older ones its copy of the storage's
        # payload check, which now runs from the storage itself.
        state.pop("_payload_check", None)
        state.pop("_block_pool", None)
        state.pop("_path_pairs", None)
        self.__dict__.update(state)
        self._attach_path_op()

    def snapshot(self) -> dict:
        """Capture the full simulation state in a versioned envelope.

        The snapshot covers the tree storage (list or NumPy columns), the
        stash, the position map, the super-block mapper's runtime counters,
        the ``random.Random`` state and the statistics — everything needed
        for :meth:`restore` to produce an ORAM whose subsequent accesses
        are bit-identical to this one's.
        """
        from repro.core.snapshot import make_snapshot

        return make_snapshot(self, self.SNAPSHOT_KIND)

    @classmethod
    def restore(cls, snapshot: dict) -> "PathORAM":
        """Reconstruct an ORAM from a :meth:`snapshot` envelope.

        Raises :class:`~repro.errors.CheckpointError` on version, format or
        kind mismatches.
        """
        from repro.core.snapshot import load_snapshot

        return load_snapshot(snapshot, cls.SNAPSHOT_KIND, cls)

    # ------------------------------------------------------------------
    # The ORAM protocol
    # ------------------------------------------------------------------
    def access(
        self,
        address: int,
        op: Operation = Operation.READ,
        data: Any = None,
    ) -> AccessResult:
        """Perform one ORAM access (``accessORAM`` in the paper).

        Looks up the position map, reads the mapped path, remaps the block's
        super-block group to a fresh random leaf, writes the path back, and
        finally lets the background-eviction policy issue dummy accesses.
        """
        if not 1 <= address <= self._working_set:
            raise ConfigurationError(
                f"address {address} outside [1, {self._working_set}]"
            )
        is_write = op is _WRITE
        if type(op) is not Operation or is_write and (
            type(data) is not bytes or len(data) > self._config.block_bytes
        ):
            is_write = self._check_write(op, data)
        if self._single_member_groups:
            leaves = self._pm_leaves
            old_leaf = leaves[address - 1]
            bits = self._draw_bits
            new_leaf = self._getrandbits(bits) if bits else self._random_leaf()
            leaves[address - 1] = new_leaf
        else:
            old_leaf, new_leaf = self._choose_leaves(address, None, None)
        result_data, found = self._path_op(
            self, address, old_leaf, new_leaf,
            is_write, data, None, 0, 0, 0,
        )
        result = AccessResult(address, result_data, found)
        stats = self._stats
        stats.real_accesses += 1
        if stats.record_occupancy:
            stats.stash_occupancy_samples.append(len(self._stash_blocks))
        gate = self._eviction_gate
        if gate is not None and len(self._stash_blocks) <= gate:
            dummy_count = 0
        else:
            dummy_count = self._eviction.after_access(self)
            self._check_stash_bound()
        result.dummy_accesses = dummy_count
        return result

    def read(self, address: int) -> AccessResult:
        """Convenience wrapper for a read access."""
        return self.access(address, Operation.READ)

    def write(self, address: int, data: Any) -> AccessResult:
        """Convenience wrapper for a write access."""
        return self.access(address, Operation.WRITE, data)

    def access_many(
        self,
        addresses: Any,
        op: Operation = Operation.READ,
        data: Any = None,
    ) -> TraceResult:
        """Consume a whole trace of addresses in one loop.

        Bit-for-bit identical to ``for a in addresses: self.access(a, op,
        data)`` — same RNG stream, same stash/tree/position-map state, same
        statistics.  Every mapper and engine runs the one loop, which calls
        this ORAM's path op directly, with the address validation, leaf
        draws and eviction checks hoisted out of :meth:`access` and the
        real-access counter flushed to :attr:`stats` once at the end.
        Super-block groups (static or dynamic) and single-leaf trees take
        their leaves from :meth:`_choose_leaves`, like :meth:`access`.

        One deliberate divergence: the loop validates the whole trace up
        front, so an out-of-range address raises *before* any access runs,
        where the equivalent loop would fail mid-trace.  For valid traces
        (the contract the differential tests pin) behaviour is exactly
        identical.
        """
        # -- hoisted loop state (one lookup each for the whole trace) --
        working_set = self._working_set
        leaves = self._pm_leaves
        bits = self._draw_bits
        getrandbits = self._getrandbits
        choose = None if self._single_member_groups and bits else self._choose_leaves
        path_op = self._path_op
        stash_blocks = self._stash_blocks
        gate = self._eviction_gate
        after_access = self._eviction.after_access
        no_eviction = type(self._eviction) is NoEviction
        bounded = self._config.stash_capacity is not None
        check_bound = self._check_stash_bound
        stats = self._stats
        record_occupancy = stats.record_occupancy
        samples_append = stats.stash_occupancy_samples.append

        # The whole trace is validated up front (two C-speed passes) so the
        # per-access bounds check drops out of the loop; a trace with an
        # out-of-range address therefore fails before any access runs,
        # where the equivalent access loop would fail at that element.
        if type(addresses) is not list:
            addresses = list(addresses)
        if addresses and (min(addresses) < 1 or max(addresses) > working_set):
            bad = next(a for a in addresses if not 1 <= a <= working_set)
            raise ConfigurationError(f"address {bad} outside [1, {working_set}]")
        is_write = self._check_write(op, data)

        real = found_count = dummy_total = 0
        try:
            for address in addresses:
                if choose is None:
                    index = address - 1
                    leaf = leaves[index]
                    new_leaf = getrandbits(bits)
                    leaves[index] = new_leaf
                else:
                    leaf, new_leaf = choose(address, None, None)
                if path_op(
                    self, address, leaf, new_leaf, is_write, data, None, 0, 0, 0
                )[1]:
                    found_count += 1

                # ---- bookkeeping + background eviction ----
                real += 1
                if record_occupancy:
                    samples_append(len(stash_blocks))
                if gate is not None and len(stash_blocks) <= gate:
                    continue
                if no_eviction:
                    if bounded:
                        check_bound()
                    continue
                dummy_total += after_access(self)
                check_bound()
        finally:
            stats.real_accesses += real
        return TraceResult(accesses=real, found=found_count, dummy_accesses=dummy_total)

    def _choose_leaves(
        self, address: int, current_leaf: int | None, new_leaf: int | None
    ) -> tuple[int, int]:
        """Return ``(leaf to read, leaf to remap to)`` for one grouped (or
        single-leaf) real access and point the position map at the second;
        ``None`` asks for this ORAM's own entry or a fresh draw.

        Under dynamic merging ``current_leaf`` is ignored: the mapper plans
        the access (any due merge or split), which moves to the plan's
        target — the anchor a straggler converges onto — or else to the
        fresh leaf, which becomes the group's anchor.
        """
        if not self._dynamic:
            group = self._group_of(address)
            if current_leaf is None:
                current_leaf = self._pm_leaves[group]
            if new_leaf is None:
                new_leaf = self._random_leaf()
            self._position_map.assign(group, new_leaf)
            return current_leaf, new_leaf
        leaves = self._pm_leaves
        current_leaf = leaves[address - 1]
        mapper = self._mapper
        plan = mapper.plan_access(address, current_leaf, leaves)
        if plan.target_leaf is not None:
            new_leaf = plan.target_leaf
        else:
            if new_leaf is None:
                new_leaf = self._random_leaf()
            mapper.set_anchor(plan.lo, new_leaf)
        self._position_map.assign(address - 1, new_leaf)
        stats = self._stats
        stats.super_block_merges += plan.merged
        stats.super_block_splits += plan.split
        stats.super_block_hits += plan.hit
        return current_leaf, new_leaf

    def access_path(
        self,
        address: int,
        current_leaf: int,
        new_leaf: int,
        op: Operation = Operation.READ,
        data: Any = None,
    ) -> AccessResult:
        """``accessPath`` (steps 2-5 of Section 2.1) with externally supplied
        leaves, as required by the hierarchical construction where the leaf
        comes from the parent position-map ORAM.  Runs this ORAM's path op,
        like :meth:`access`.

        Under dynamic super-block merging ``current_leaf`` is advisory (a
        member moved while in the stash has a stale chain label): the read
        follows this ORAM's per-address map, and ``new_leaf`` is used only
        when the plan wants a fresh leaf (see :meth:`_choose_leaves`).
        """
        self._check_path_args(address, current_leaf, new_leaf)
        is_write = op is _WRITE
        if type(op) is not Operation or is_write and (
            type(data) is not bytes or len(data) > self._config.block_bytes
        ):
            is_write = self._check_write(op, data)
        if self._single_member_groups:
            self._position_map.assign(address - 1, new_leaf)
        else:
            current_leaf, new_leaf = self._choose_leaves(address, current_leaf, new_leaf)
        result_data, found = self._path_op(
            self, address, current_leaf, new_leaf,
            is_write, data, None, 0, 0, 0,
        )
        stats = self._stats
        stats.real_accesses += 1
        if stats.record_occupancy:
            stats.stash_occupancy_samples.append(len(self._stash_blocks))
        return AccessResult(address, result_data, found)

    def access_position_block(
        self,
        address: int,
        current_leaf: int,
        new_leaf: int,
        slot: int,
        child_new_leaf: int,
        labels_per_block: int,
        child_num_leaves: int,
    ) -> tuple[int, list[int] | None]:
        """One position-map ORAM access of the recursive construction.

        Reads the position-map block at ``address`` along ``current_leaf``,
        returns the child leaf stored in ``slot`` and installs
        ``child_new_leaf`` in its place — the combined lookup/update of
        ``accessHORAM`` — then remaps the block to ``new_leaf`` and writes
        the path back.  A block that was never written materialises with
        uniformly random child leaves, mirroring the initial random position
        map.

        Returns ``(child_current_leaf, labels)``: ``labels`` is the block's
        live label list on the classified and column engines, which mutate
        it in place, so the hierarchy's lookaside buffer can cache the
        reference.  The generic engine may re-materialise payloads on the
        next read (encrypted storage) and hands back ``None`` instead.

        The address and both leaves are validated before any state
        changes; the caller (the hierarchical ORAM) guarantees that this
        ORAM uses single-member groups.
        """
        self._check_path_args(address, current_leaf, new_leaf)
        self._pm_leaves[address - 1] = new_leaf
        result = self._path_op(
            self, address, current_leaf, new_leaf, True, None,
            slot, child_new_leaf, labels_per_block, child_num_leaves,
        )
        stats = self._stats
        stats.real_accesses += 1
        if stats.record_occupancy:
            stats.stash_occupancy_samples.append(len(self._stash_blocks))
        return result

    def extract_path(self, address: int, current_leaf: int, new_leaf: int) -> dict[int, Any]:
        """Exclusive-ORAM extraction with externally supplied leaves.

        Like :meth:`extract`, but the current and new leaves come from the
        caller (the hierarchical ORAM's position-map chain) instead of this
        ORAM's own position map, and no background eviction runs (that is
        the hierarchy's job).  Under dynamic super-block merging
        ``current_leaf`` is advisory, as in :meth:`access_path`.
        """
        self._check_path_args(address, current_leaf, new_leaf)
        return self._extract(address, current_leaf, new_leaf)

    def _collect_group(self, address: int, current_leaf: int, new_leaf: int) -> dict[int, Any]:
        """Remove the requested block's group from the stash and the path.

        By the super-block invariant every stash-resident member sits in the
        ``current_leaf`` bucket of the stash's leaf index, so the group
        comes out as one bucket split (:meth:`Stash.pop_range`) plus a single
        pass over the pending path buffer — not one lookup per member.  The
        removed members' position-map entries follow the group to
        ``new_leaf``, so a later :meth:`insert` lands them co-resident.

        Static groups return every member: the whole address space
        logically lives in the ORAM (the secure-processor setting), so
        members that have never been written come back with an empty
        payload, and super-block prefetching moves the entire
        group into the cache as Section 3.2 prescribes.  A dynamic group
        returns only the members found here, plus ``address``: members
        still converging elsewhere live on other paths and stay in the ORAM
        under their own entries.
        """
        lo, hi = self._mapper.group_span(self._group_of(address))
        found: dict[int, Any] = {}
        for block in self._stash.pop_range(current_leaf, lo, hi):
            found[block.address] = block.data
        buffer = self._path_buffer
        kept: list[Block] = []
        keep = kept.append
        for candidate in buffer:
            if lo <= candidate.address < hi:
                found[candidate.address] = candidate.data
            else:
                keep(candidate)
        if len(kept) != len(buffer):
            self._path_buffer = kept
        leaves = self._pm_leaves
        group_of = self._group_of
        for member in found:
            leaves[group_of(member)] = new_leaf
        observer = self._retarget_observer
        if observer is not None and new_leaf != current_leaf:
            # The removed members were re-leafed behind the recursive
            # chain's back (see _retarget_group).
            observer(lo, hi)
        if self._dynamic:
            if address not in found:
                found[address] = None
            return found
        return {member: found.get(member) for member in range(lo, min(hi, self._working_set + 1))}

    def dummy_access(self) -> None:
        """A background-eviction dummy access (Section 3.1.1).

        Reads a uniformly random path and writes back as many blocks as
        possible; no block is remapped, so the stash cannot grow.
        """
        bits = self._draw_bits
        leaf = self._getrandbits(bits) if bits else self._random_leaf()
        self._path_op(self, None, leaf, leaf, False, None, None, 0, 0, 0)
        stats = self._stats
        stats.dummy_accesses += 1
        if stats.record_occupancy:
            stats.stash_occupancy_samples.append(len(self._stash_blocks))

    def remap_access(self, address: int) -> None:
        """Access-and-remap used by the *insecure* eviction scheme.

        The accessed path is the victim block's current leaf — which is what
        correlates consecutive accesses and leaks (Section 3.1.3).  Counted
        as a dummy access in the statistics.
        """
        self._check_address(address)
        if self._dynamic:
            raise ConfigurationError(
                "insecure remap eviction does not compose with dynamic "
                "super-block merging (per-address entries would go stale)"
            )
        group = self._mapper.group_of(address)
        old_leaf = self._position_map.lookup(group)
        new_leaf = self._random_leaf()
        self._position_map.assign(group, new_leaf)
        self._read_path_into_stash(old_leaf)
        self._retarget_group(group, old_leaf, new_leaf)
        self._write_back_path(old_leaf)
        self._stats.record_dummy_access()
        self._stats.sample_stash_occupancy(self._stash.occupancy)

    # ------------------------------------------------------------------
    # Exclusive-ORAM API used by the processor integration
    # ------------------------------------------------------------------
    def extract(self, address: int) -> dict[int, Any]:
        """Remove the requested block's super-block group (under dynamic
        merging, its reachable members) from the ORAM and return
        ``{address: payload}`` for every member found.

        The group is remapped so that members re-inserted later (on cache
        eviction) share a fresh path.  Background eviction runs afterwards.
        """
        extracted = self._extract(address, None, None)
        self._eviction.after_access(self)
        self._check_stash_bound()
        return extracted

    def _extract(
        self, address: int, current_leaf: int | None, new_leaf: int | None
    ) -> dict[int, Any]:
        """One extraction's path op: the leaf choice, one path read, the
        group's removal and one write-back."""
        self._check_address(address)
        current_leaf, new_leaf = self._choose_leaves(address, current_leaf, new_leaf)
        self._read_path_into_stash(current_leaf)
        extracted = self._collect_group(address, current_leaf, new_leaf)
        self._write_back_path(current_leaf)
        self._stats.record_real_access()
        self._stats.sample_stash_occupancy(self._stash.occupancy)
        return extracted

    def insert(self, address: int, data: Any = None) -> int:
        """Put a block back into the ORAM stash without a path access
        (exclusive ORAM, Section 3.3.1), then run background eviction.

        Returns the number of dummy accesses issued.
        """
        self._check_address(address)
        self._storage.check_payload(data)
        group = self._mapper.group_of(address)
        leaf = self._position_map.lookup(group)
        self._stash.add(Block(address=address, leaf=leaf, data=data))
        dummy_count = self._eviction.after_access(self)
        self._check_stash_bound()
        return dummy_count

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_address(self, address: int) -> None:
        if not 1 <= address <= self._working_set:
            raise ConfigurationError(
                f"address {address} outside [1, {self._working_set}]"
            )

    def _check_write(self, op: Any, data: Any) -> bool:
        """Validate an entry point's ``op`` (through :func:`~repro.core.types.as_operation`
        unless an :class:`Operation`) and payload before any state changes;
        returns whether ``op`` writes.  The storage's ``check_payload`` raises
        :class:`~repro.errors.ConfigurationError` for ``bytes`` over
        ``block_bytes`` (the stacks that encode payloads raise
        :class:`~repro.errors.EncryptionError`, also for one they cannot
        encode).  ``bytes`` within ``block_bytes`` pass every stack's check, so
        they skip it, and :meth:`access` / :meth:`access_path` skip this call."""
        if type(op) is not Operation:
            op = as_operation(op)
        if op is not _WRITE:
            return False
        if type(data) is not bytes or len(data) > self._config.block_bytes:
            self._storage.check_payload(data)
        return True

    def _check_path_args(self, address: int, current_leaf: int, new_leaf: int) -> None:
        """Validate a caller's address and leaves before any state changes."""
        self._check_address(address)
        top = 1 << self._levels
        if not (0 <= current_leaf < top and 0 <= new_leaf < top):
            raise ConfigurationError(f"leaves {current_leaf}, {new_leaf} outside [0, {top - 1}]")

    def _check_stash_bound(self) -> None:
        capacity = self._config.stash_capacity
        if capacity is not None and self._stash.occupancy > capacity:
            raise StashOverflowError(
                f"Path ORAM failure: stash holds {self._stash.occupancy} blocks, "
                f"capacity is {capacity}"
            )

    def _access_path(
        self,
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
        """The generic engine's path operation (read to write-back).

        Same contract, modes and returns as :meth:`_fused_single_access`,
        over the pending path buffer and :meth:`_write_back_path`, so it
        serves every storage and every super-block mapper, static or
        dynamic (:meth:`_retarget_group` moves the group with the accessed
        block to ``new_leaf``).  In
        position-map mode it returns ``(displaced_child_leaf, None)``: the
        storage may re-materialise payloads on the next read, so no live
        label list is handed out.
        """
        self._read_path_into_stash(leaf)
        if address is None:
            self._write_back_path(leaf)
            return None, False
        block = self._stash.get(address)
        in_stash = block is not None
        if block is None:
            buffer = self._path_buffer
            for position, candidate in enumerate(buffer):
                if candidate.address == address:
                    # Accessed block classifies last in its class pool: the
                    # same tie-break as the classified path op.
                    block = candidate
                    del buffer[position]
                    buffer.append(candidate)
                    break
        found = block is not None
        if block is None:
            block = Block(address=address, leaf=new_leaf, data=None)
            self._stash.add(block)
            in_stash = True
        if slot is not None:
            labels = block.data
            if labels is None:
                randrange = self._rng.randrange
                labels = [randrange(child_num_leaves) for _ in range(labels_per_block)]
                block.data = labels
            result = labels[slot]
            labels[slot] = child_new_leaf
        else:
            if is_write:
                block.data = data
            result = block.data
        if self._single_member_groups:
            # The accessed block is its whole super-block group.
            if in_stash:
                self._stash.retarget(address, new_leaf)
            else:
                block.leaf = new_leaf  # buffer blocks are unindexed
        else:
            self._retarget_group(self._group_of(address), leaf, new_leaf)
        self._write_back_path(leaf)
        if slot is not None:
            return result, None
        return result, found

    def _retarget_group(self, group: int, current_leaf: int, new_leaf: int) -> None:
        """Move every reachable member of ``group`` to ``new_leaf``.

        By the super-block invariant all stash-resident members share
        ``current_leaf``, so that part of the group moves as one leaf-bucket
        split (:meth:`Stash.retarget_range_collect`); members still in the
        pending path buffer (just read, not yet written back) are caught by
        a single scan.  Every moved member's position-map entry follows —
        a no-op for static groups, whose one entry the caller already set;
        under dynamic merging it is what lets members *not* moved here join
        the group lazily on their own next access.
        """
        if new_leaf == current_leaf:
            return
        lo, hi = self._mapper.group_span(group)
        leaves = self._pm_leaves
        group_of = self._group_of
        for moved in self._stash.retarget_range_collect(current_leaf, lo, hi, new_leaf):
            leaves[group_of(moved.address)] = new_leaf
        for candidate in self._path_buffer:
            candidate_address = candidate.address
            if lo <= candidate_address < hi:
                candidate.leaf = new_leaf
                leaves[group_of(candidate_address)] = new_leaf
        observer = self._retarget_observer
        if observer is not None:
            # The move re-assigned leaves behind the recursive chain's back:
            # the PLB must drop any cached position-map labels covering
            # [lo, hi) before they can be served stale.
            observer(lo, hi)

    def _read_path_into_stash(self, leaf: int) -> None:
        """Read the path into the transient buffer (logically, the stash).

        The blocks become part of the protocol's working set immediately,
        but their stash indexing is deferred to the write-back, which
        returns most of them straight to the tree.
        """
        if self._record_path_trace:
            self._path_trace.append(leaf)
        blocks = self._storage.read_path_blocks(leaf)
        self._path_buffer = blocks
        count = len(blocks)
        transient = len(self._stash_blocks) + count
        if transient > self._transient_peak:
            self._transient_peak = transient
        stats = self._stats
        stats.path_reads += 1
        stats.blocks_read += count

    def _fused_single_access(
        self,
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
        """The list engine's path operation (read to write-back).

        The only code that reads and classifies a path and runs the
        buffer-only placement on the classified engine; every entry point
        reaches it through ``_path_op``.  The path read is a single
        pass that buckets every block read from the slot array by the
        deepest level it may occupy on this same path, straight into the
        by-buffer class pools.  The accessed block, when it is found on
        the path, is held back and classified after its retarget, so it
        sits last in its class pool — the tie-break the generic engine
        reproduces by moving the accessed block to the end of the pending
        path buffer.  The write-back buckets the stash by distinct leaf
        (capped per class); with an empty stash — the dominant steady state
        — or over the eviction threshold (a dummy storm, where
        :meth:`_offer_free_slots` then fills the free slots) the placement
        walk drops the stash side entirely.  A block created on a miss
        while the stash is otherwise empty (every fill access, in data or
        position-map mode) is held out of the stash: once the path's own
        blocks are placed it goes to the deepest bucket at or above its
        class with a free slot, after that bucket's blocks, and only with
        no free slot does it enter the stash, ahead of any spilled path
        blocks — exactly what the merged walk does with a one-block stash,
        high-water mark included (:meth:`Stash.count_passage`).

        Three modes share the body.  With ``address=None`` (a dummy
        access) nothing is located or remapped and ``(None, False)`` is
        returned.  Otherwise a block the access names but the ORAM does not
        hold is created with an empty payload (the whole address space
        logically exists).  With ``slot`` set (position-map mode,
        ``is_write`` is ignored) the block's label vector is updated in
        place and ``(displaced_child_leaf, labels)`` is returned — the
        label list rides along so the hierarchical chain's lookaside buffer
        can serve later accesses through the same position-map block.  With
        ``slot=None`` (data mode) the payload is read or written per
        ``is_write`` and ``(result_data, found)`` is returned.

        Only valid on the exact flat storage with at most 16 levels and
        single-member groups; the caller has validated ``address`` and
        updated this ORAM's position map.
        """
        stash_blocks = self._stash_blocks
        by_leaf = self._stash_by_leaf
        slots = self._slots
        table = self._deepest_table
        pools = self._by_deepest_buffer

        # ``match`` is the address to hold back from classification: 0
        # (never a valid address) when the accessed block already sits in
        # the stash or on a dummy access.
        block = stash_blocks.get(address)
        match = address if block is None and address is not None else 0

        # ---- single-pass path read + classification ----
        if self._record_path_trace:
            self._path_trace.append(leaf)
        bases = self._leaf_bases[leaf]
        if bases is None:
            bases = self._storage._geometry(leaf)  # noqa: SLF001 - friend fast path
        pending = 0
        target = None
        for base in bases:
            count = slots[base]
            if count:
                pending += count
                if count == 1:
                    blk = slots[base + 1]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                elif count == 2:
                    blk = slots[base + 1]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                    blk = slots[base + 2]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                elif count == 3:
                    blk = slots[base + 1]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                    blk = slots[base + 2]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                    blk = slots[base + 3]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                elif count == 4:
                    blk = slots[base + 1]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                    blk = slots[base + 2]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                    blk = slots[base + 3]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                    blk = slots[base + 4]
                    if blk.address == match:
                        target = blk
                    else:
                        pools[table[blk.leaf ^ leaf]].append(blk)
                else:
                    for blk in slots[base + 1 : base + 1 + count]:
                        if blk.address == match:
                            target = blk
                        else:
                            pools[table[blk.leaf ^ leaf]].append(blk)
        transient = len(stash_blocks) + pending
        if transient > self._transient_peak:
            self._transient_peak = transient
        stats = self._stats
        stats.path_reads += 1
        stats.blocks_read += pending

        # ---- locate (or create) the block, retarget to new_leaf ----
        found = True
        created = None
        if block is not None:
            self._stash.retarget(address, new_leaf)
        elif target is not None:
            block = target
            # Retargeted, then classified last in its class pool (the
            # shared tie-break order).
            block.leaf = new_leaf
            pools[table[new_leaf ^ leaf]].append(block)
        elif address is not None:
            found = False
            block = Block(address=address, leaf=new_leaf, data=None)
            if by_leaf:
                self._stash.add(block)
            else:
                # Held aside: alone in the stash it can only take a slot
                # the path's own blocks leave free (placed below).
                created = block
        else:
            found = False

        if slot is not None:
            labels = block.data
            if labels is None:
                randrange = self._rng.randrange
                labels = [randrange(child_num_leaves) for _ in range(labels_per_block)]
                block.data = labels
            result = labels[slot]
            labels[slot] = child_new_leaf
        elif block is not None:
            if is_write:
                block.data = data
            result = block.data
        else:
            result = None

        # ---- flattened write-back (split in a storm, see the docstring) ----
        storm = self._eviction_threshold
        storm = storm is not None and len(stash_blocks) > storm
        if by_leaf and not storm:
            # Cold path: stash candidates compete for slots too.
            pending += self._pool_stash(leaf)
            written, placed_stash, spilled = self._place_into_slots(pending, bases)
            if placed_stash:
                self._stash.remove_placed(placed_stash)
        else:
            # ---- buffer-only placement (dominant case) ----
            # Chooses exactly the blocks _place_into_slots would with empty
            # stash classes.
            z = self._z
            spilled = None
            occupancy_delta = 0
            written = 0
            nb = 0
            placement = zip(reversed(bases), self._by_buffer_rev)
            for base, b_ready in placement:
                old = slots[base]
                if b_ready and not nb:
                    rb = len(b_ready)
                    if rb <= z:
                        slots[base + 1 : base + 1 + rb] = b_ready
                        b_ready.clear()
                        take = rb
                    else:
                        nb = rb - z
                        slots[base + 1 : base + 1 + z] = b_ready[nb:]
                        del b_ready[nb:]
                        if spilled is None:
                            spilled = []
                        spilled.extend(b_ready)
                        b_ready.clear()
                        take = z
                elif nb:
                    if b_ready:
                        spilled.extend(b_ready)
                        b_ready.clear()
                        nb = len(spilled)
                    take = nb if nb < z else z
                    nb -= take
                    slots[base + 1 : base + 1 + take] = spilled[nb:]
                    del spilled[nb:]
                else:
                    if old:
                        slots[base] = 0
                        occupancy_delta -= old
                    continue
                if old != take:
                    slots[base] = take
                    occupancy_delta += take - old
                written += take
                if written == pending:
                    # Everything is placed: the remaining (shallower)
                    # buckets only need their counts zeroed.
                    for base, b_ready in placement:
                        old = slots[base]
                        if old:
                            slots[base] = 0
                            occupancy_delta -= old
                    break
            if storm:
                written += self._offer_free_slots(leaf, bases)
            if created is not None:
                # The merged walk's choice for a one-block stash: the
                # deepest bucket at or above its class with a free slot,
                # after that bucket's buffer blocks; else the stash, ahead
                # of any spilled buffer blocks.
                for base in reversed(bases[: table[new_leaf ^ leaf] + 1]):
                    count = slots[base]
                    if count < z:
                        slots[base + 1 + count] = created
                        slots[base] = count + 1
                        occupancy_delta += 1
                        written += 1
                        self._stash.count_passage()
                        break
                else:
                    self._stash.add(created)
            if occupancy_delta:
                self._storage._occupancy += occupancy_delta  # noqa: SLF001

        if spilled:
            # Unplaced buffer blocks now genuinely enter the stash.
            add = self._stash.add
            for kept_block in spilled:
                add(kept_block)
        stats.path_writes += 1
        stats.blocks_written += written

        if slot is not None:
            return result, labels
        return result, found

    def _offer_free_slots(self, leaf: int, bases: tuple[int, ...]) -> int:
        """Storm write-back, phase two: give the stash the slots the path's own blocks
        left free (they win every level of the merged walk anyway); returns the count
        placed.  A class-``c`` block lands at a level ``<= c`` and every bucket above the
        shallowest free one is full, so the scan runs only if a stash leaf is under it."""
        slots = self._slots
        z = self._z
        top = 0
        for base in bases:
            if slots[base] < z:
                break
            top += 1
        else:
            return 0
        ordered = self._stash.sorted_leaves()
        shift = self._levels - top
        lo = leaf >> shift << shift
        index = bisect_left(ordered, lo)
        if index == len(ordered) or ordered[index] >= lo + (1 << shift):
            return 0
        self._pool_stash(leaf)
        # Deepest-first fill from the pool's end, as in _place_into_slots.
        avail, placed_stash = [], []
        for base, s_ready in zip(reversed(bases), self._by_stash_rev):
            avail += s_ready
            s_ready.clear()
            count = slots[base]
            if avail and count < z:
                extra = min(z - count, len(avail))
                slots[base + 1 + count : base + 1 + count + extra] = placed = avail[-extra:]
                del avail[-extra:]
                slots[base] = count + extra
                placed_stash += placed
        self._storage._occupancy += len(placed_stash)  # noqa: SLF001
        self._stash.remove_placed(placed_stash)
        return len(placed_stash)

    def _write_back_path(self, leaf: int) -> None:
        """Greedy eviction: place stash blocks as deep as possible on ``leaf``'s path.

        The candidate pool is every stash block plus every block of the
        pending path buffer, bucketed by the deepest level it may occupy on
        this path (one lookup per distinct stash leaf, :meth:`_pool_stash`,
        and one ``bit_length`` per buffer block).  The two sources are kept
        in separate pools: when a level has room, buffer blocks are placed
        first (the same tie-break as the seed algorithm, where freshly read
        blocks sat at the pop end of the candidate list).  A placed buffer
        block therefore never touches the stash's indexes at all, an
        unplaced stash block stays where it is, and only the two small
        remainders — placed stash blocks and unplaced buffer blocks — pay
        an index update.
        """
        levels = self._levels
        buffer = self._path_buffer
        self._path_buffer = ()
        self._pool_stash(leaf)
        pools = self._by_deepest_buffer
        for block in buffer:
            pools[levels - (block.leaf ^ leaf).bit_length()].append(block)

        written, placed_stash, avail_buffer = self._place_into_levels(leaf)
        if placed_stash:
            self._stash.remove_placed(placed_stash)
        if avail_buffer:
            # Unplaced buffer blocks now genuinely enter the stash.
            add = self._stash.add
            for block in avail_buffer:
                add(block)
        stats = self._stats
        stats.path_writes += 1
        stats.blocks_written += written

    def _pool_stash(self, leaf: int) -> int:
        """Bucket the stash into the stash class pools by the deepest level
        its blocks may occupy on ``leaf``'s path; returns how many it pooled.

        One lookup per distinct stash leaf (the deepest-level table on trees
        of at most 16 levels, ``bit_length`` on deeper ones), in leaf-index
        order, each counted in ``stats.stash_leaves_examined``; a class stops
        taking leaf groups once it holds its cap (``_class_cap``).  Every
        write-back drains the pools it fills.
        """
        pools = self._by_deepest_stash
        caps = self._class_cap
        table = self._deepest_table
        levels = self._levels
        by_leaf = self._stash_by_leaf
        self._stats.stash_leaves_examined += len(by_leaf)
        pooled = 0
        for other_leaf, group in by_leaf.items():
            diff = other_leaf ^ leaf
            deepest = table[diff] if table else levels - diff.bit_length()
            ready = pools[deepest]
            if len(ready) < caps[deepest]:
                ready.extend(group)
                pooled += len(group)
        return pooled

    def _place_into_slots(
        self, pending: int, bases: tuple[int, ...]
    ) -> tuple[int, list[Block], list[Block]]:
        """Fused placement: write levels directly into the flat slot array.

        Walks the path (bucket bases ``bases``, root first) exactly once,
        deepest first.  Blocks whose deepest legal level is the current one join the
        available pools; each level takes up to ``Z`` (buffer blocks first),
        and the chosen blocks are sliced straight into the storage's slots.
        The selection is identical to :meth:`_place_into_levels` — the two
        differ only in where the chosen blocks land — with two shortcuts:
        once all ``pending`` candidates are placed the remaining (shallower)
        buckets are cleared without consulting the pools, and a level whose
        ready buffer blocks fit entirely skips the pool bookkeeping.
        Returns the number of blocks written, the placed stash blocks (for
        the index batch-remove) and the leftover buffer blocks (which enter
        the stash).
        """
        z = self._z
        storage = self._storage
        slots = self._slots
        avail_buffer: list[Block] = []
        avail_stash: list[Block] = []
        placed_stash: list[Block] = []
        occupancy_delta = 0
        written = 0
        nb = ns = 0
        # Deepest-first walk: path bucket bases zipped with the matching
        # buffer/stash class lists.
        for base, b_ready, s_ready in zip(
            reversed(bases), self._by_buffer_rev, self._by_stash_rev
        ):
            old = slots[base]
            if written == pending:
                # Every candidate is placed; shallower buckets only need
                # their counts zeroed (slots beyond a bucket's count are
                # never read, so stale references need no clearing).
                if old:
                    slots[base] = 0
                    occupancy_delta -= old
                continue
            take = 0
            if b_ready and not nb:
                rb = len(b_ready)
                if rb <= z:
                    # Common case: this level's own buffer blocks all fit.
                    slots[base + 1 : base + 1 + rb] = b_ready
                    b_ready.clear()
                    take = rb
                else:
                    nb = rb - z
                    slots[base + 1 : base + 1 + z] = b_ready[nb:]
                    del b_ready[nb:]
                    avail_buffer.extend(b_ready)
                    b_ready.clear()
                    take = z
            elif nb:
                if b_ready:
                    avail_buffer.extend(b_ready)
                    b_ready.clear()
                    nb = len(avail_buffer)
                take = nb if nb < z else z
                nb -= take
                slots[base + 1 : base + 1 + take] = avail_buffer[nb:]
                del avail_buffer[nb:]
            if s_ready:
                avail_stash.extend(s_ready)
                s_ready.clear()
                ns = len(avail_stash)
            if ns and take < z:
                extra = z - take if z - take < ns else ns
                ns -= extra
                placed = avail_stash[ns:]
                del avail_stash[ns:]
                slots[base + 1 + take : base + 1 + take + extra] = placed
                placed_stash += placed
                take += extra
            if old != take:
                slots[base] = take
                occupancy_delta += take - old
            written += take
        storage._occupancy += occupancy_delta  # noqa: SLF001
        return written, placed_stash, avail_buffer

    def _place_into_levels(self, leaf: int) -> tuple[int, list[Block], list[Block]]:
        """Generic placement: build per-level buckets and hand them to the
        storage's batched ``write_path_levels`` in one call — the encrypted
        and integrity-verifying stores seal the whole path there, the
        latter hashing exactly the ciphertexts it wrote.  Chooses exactly
        the same blocks per level as :meth:`_place_into_slots`."""
        levels = self._levels
        z = self._z
        by_stash = self._by_deepest_stash
        by_buffer = self._by_deepest_buffer
        level_buckets: list[list[Block] | None] = [None] * (levels + 1)
        avail_buffer: list[Block] = []
        avail_stash: list[Block] = []
        placed_stash: list[Block] = []
        written = 0
        nb = ns = 0
        for level in range(levels, -1, -1):
            ready = by_buffer[level]
            if ready:
                avail_buffer.extend(ready)
                ready.clear()
                nb = len(avail_buffer)
            ready = by_stash[level]
            if ready:
                avail_stash.extend(ready)
                ready.clear()
                ns = len(avail_stash)
            if nb:
                take = nb if nb < z else z
                nb -= take
                bucket = avail_buffer[nb:]
                del avail_buffer[nb:]
                if take < z and ns:
                    extra = z - take if z - take < ns else ns
                    ns -= extra
                    placed = avail_stash[ns:]
                    del avail_stash[ns:]
                    bucket += placed
                    placed_stash += placed
                    take += extra
            elif ns:
                take = ns if ns < z else z
                ns -= take
                bucket = avail_stash[ns:]
                del avail_stash[ns:]
                placed_stash += bucket
            else:
                continue
            level_buckets[level] = bucket
            written += take
        self._storage.write_path_levels(leaf, level_buckets)
        return written, placed_stash, avail_buffer
