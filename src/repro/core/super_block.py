"""Super blocks: merging adjacent blocks onto one path (Section 3.2).

A super block is a group of blocks intentionally mapped to the same leaf so
that one path access returns all of them.  The paper's static merging scheme
groups adjacent program addresses into fixed-size groups; the group a block
belongs to never changes, only the group's leaf does.

:class:`SuperBlockMapper` is the policy interface: groups are contiguous
address runs, each named by its :meth:`~SuperBlockMapper.group_span`;
:class:`StaticSuperBlockMapper` implements the static scheme evaluated in
the paper, and :class:`DynamicSuperBlockMapper` implements the *dynamic*
merging the paper leaves as future work (Section 3.2): groups grow and
shrink at runtime, driven by windowed per-group access counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigurationError


class SuperBlockMapper(ABC):
    """Maps program addresses to super-block group identifiers."""

    @property
    @abstractmethod
    def group_size(self) -> int:
        """Number of blocks per super block (1 = super blocks disabled)."""

    @abstractmethod
    def group_of(self, address: int) -> int:
        """Group identifier for a (1-based) program address."""

    @abstractmethod
    def group_span(self, group: int) -> tuple[int, int]:
        """Half-open address range ``[lo, hi)`` covering ``group``, which
        lets the stash retarget or extract a whole super block as one range
        split.  Raises :class:`~repro.errors.ConfigurationError` for a
        negative group."""

    def addresses_in_group(self, group: int) -> list[int]:
        """All program addresses belonging to ``group`` (may exceed the
        working set; callers filter against their own address space)."""
        return list(range(*self.group_span(group)))

    def num_groups(self, num_addresses: int) -> int:
        """Number of groups needed to cover ``num_addresses`` blocks."""
        if num_addresses < 1:
            raise ConfigurationError("num_addresses must be >= 1")
        return (num_addresses + self.group_size - 1) // self.group_size


class StaticSuperBlockMapper(SuperBlockMapper):
    """The paper's static merging scheme: adjacent addresses, fixed size.

    Addresses are 1-based (0 is the dummy address), so addresses
    ``1..size`` form group 0, ``size+1..2*size`` form group 1, and so on.
    """

    def __init__(self, size: int = 1) -> None:
        if size < 1:
            raise ConfigurationError("super block size must be >= 1")
        self._size = size

    @property
    def group_size(self) -> int:
        return self._size

    def group_of(self, address: int) -> int:
        if address < 1:
            raise ConfigurationError(f"address must be >= 1, got {address}")
        return (address - 1) // self._size

    def group_span(self, group: int) -> tuple[int, int]:
        if group < 0:
            raise ConfigurationError(f"group must be >= 0, got {group}")
        first = group * self._size + 1
        return first, first + self._size


@dataclass(frozen=True, slots=True)
class AccessPlan:
    """One access's super-block decision from a dynamic mapper.

    ``lo``/``hi`` is the half-open span of the (possibly just merged or
    split) group the accessed address belongs to *after* this access's
    partition events.  ``target_leaf`` is the leaf the access must retarget
    the reachable span members to — the group's anchor, when the accessed
    member is a straggler still converging onto its group — or ``None``
    when the accessed member sits with the group's settled cohort, in which
    case the protocol draws a fresh uniformly random leaf as usual (and
    reports it back through :meth:`DynamicSuperBlockMapper.set_anchor`).
    ``merged``/``split``/``hit`` feed the ``super_block_*`` statistics.
    """

    lo: int
    hi: int
    target_leaf: int | None
    merged: bool
    split: bool
    hit: bool


class DynamicSuperBlockMapper(SuperBlockMapper):
    """Runtime merging and splitting of adjacent-address groups.

    The paper evaluates only static merging and explicitly leaves dynamic
    merging as future work; this mapper implements it.  The address space
    starts as all-singleton groups; per-group access counters over a
    sliding window (halved every ``window`` accesses, applied lazily) drive
    two buddy-system events:

    * **merge** — when, within the decayed window, a group *and* its
      aligned buddy of the same size each accumulate at least
      ``merge_threshold`` accesses, the two spans fuse (up to
      ``max_group_size``), and
    * **split** — when one half of a group goes cold (a decayed count of
      zero) while the other half stays hot (``split_threshold`` accesses
      counting the current one), the group halves again.

    The position map stays at per-address granularity (``group_of`` is the
    identity), so merging never re-indexes any position-map structure —
    including the recursive construction's position-map ORAM blocks.  A
    group instead has an *anchor* leaf where its settled cohort lives:
    an access to a settled member draws a fresh leaf and drags the whole
    co-located cohort along (one ``retarget_range_collect`` bucket split, exactly
    like the static scheme), while an access to a member not yet at the
    anchor — a fresh merge, or a straggler left behind by an earlier
    partial retarget — converges it *onto* the anchor.  Every member's
    position-map entry always records its true leaf, so no access ever
    misses; members not in the stash or on the accessed path simply keep
    their entry and join the group on their own next access ("retargeted
    lazily").

    Obliviousness: every logical access still performs exactly one path
    read and one path write.  Unlike the static scheme, convergence
    accesses reuse the group's anchor leaf instead of a fresh draw, which
    leaks co-access correlations to an adversary watching the leaf
    sequence — the known price of dynamic merging, and a reason the paper
    deferred it; analyses of the physical access pattern should use the
    static mapper.

    A mapper instance holds per-ORAM state: build one per ORAM, never
    share one across ORAMs.
    """

    def __init__(
        self,
        max_group_size: int = 4,
        window: int = 512,
        merge_threshold: int = 2,
        split_threshold: int = 4,
    ) -> None:
        if max_group_size < 2 or max_group_size & (max_group_size - 1):
            raise ConfigurationError(
                f"max_group_size must be a power of two >= 2, got {max_group_size}"
            )
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if merge_threshold < 1:
            raise ConfigurationError("merge_threshold must be >= 1")
        if split_threshold < 1:
            raise ConfigurationError("split_threshold must be >= 1")
        self._max_group_size = max_group_size
        self._window = window
        self._merge_threshold = merge_threshold
        self._split_threshold = split_threshold
        self._num_addresses: int | None = None
        #: leader[a] = first address of a's group (identity while singleton).
        self._leader: list[int] = []
        #: Group size per leader; absent = 1 (singleton).
        self._sizes: dict[int, int] = {}
        #: Anchor leaf per leader, kept only for multi-member groups (a
        #: singleton's anchor is simply its position-map entry).
        self._anchors: dict[int, int] = {}
        #: Windowed counters per leader: [low-half count, high-half count,
        #: window stamp]; decayed lazily by right-shifting per elapsed
        #: window.  Absent = all zero.
        self._counts: dict[int, list[int]] = {}
        self._accesses = 0

    # ------------------------------------------------------------------
    # SuperBlockMapper interface
    # ------------------------------------------------------------------
    @property
    def group_size(self) -> int:
        """The *maximum* group size (the per-class cap on merging)."""
        return self._max_group_size

    def group_of(self, address: int) -> int:
        # Per-address position-map granularity: merging never renumbers
        # groups, so a block's position-map slot is stable for life.
        if address < 1:
            raise ConfigurationError(f"address must be >= 1, got {address}")
        return address - 1

    def num_groups(self, num_addresses: int) -> int:
        if num_addresses < 1:
            raise ConfigurationError("num_addresses must be >= 1")
        self.bind(num_addresses)
        return num_addresses

    def group_span(self, group: int) -> tuple[int, int]:
        if group < 0:
            raise ConfigurationError(f"group must be >= 0, got {group}")
        leader = self._leader_of(group + 1)
        return leader, leader + self._sizes.get(leader, 1)

    # ------------------------------------------------------------------
    # Dynamic policy
    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        return self._window

    @property
    def merge_threshold(self) -> int:
        return self._merge_threshold

    @property
    def split_threshold(self) -> int:
        return self._split_threshold

    def bind(self, num_addresses: int) -> None:
        """Size the partition for an ORAM's working set (idempotent)."""
        if self._num_addresses is not None:
            if self._num_addresses != num_addresses:
                raise ConfigurationError(
                    "mapper already bound to "
                    f"{self._num_addresses} addresses; a DynamicSuperBlockMapper "
                    "instance serves exactly one ORAM"
                )
            return
        self._num_addresses = num_addresses
        self._leader = list(range(num_addresses + 1))

    def fingerprint(self) -> tuple:
        """Deterministic view of the mapper's full runtime state.

        Covers the group partition, the anchor leaves, the windowed access
        counters and the access clock — everything the merge/split policy
        decides from — so the checkpoint/resume tests can assert a restored
        mapper continues bit-identically.
        """
        return (
            self._accesses,
            tuple(self._leader),
            tuple(sorted(self._sizes.items())),
            tuple(sorted(self._anchors.items())),
            tuple(sorted((leader, tuple(counts)) for leader, counts in self._counts.items())),
        )

    def iter_groups(self):
        """Yield every current ``(leader, size)`` pair, singletons included."""
        self._require_bound()
        address = 1
        num_addresses = self._num_addresses
        while address <= num_addresses:
            size = self._sizes.get(address, 1)
            yield address, size
            address += size

    def set_anchor(self, leader: int, leaf: int) -> None:
        """Record the fresh leaf an access drew as its group's new anchor."""
        if leader in self._sizes:
            self._anchors[leader] = leaf

    def plan_access(self, address: int, current_leaf: int, leaves: list[int]) -> AccessPlan:
        """Observe one access and apply any due merge/split to the partition.

        ``current_leaf`` is the accessed address's position-map entry (the
        path the protocol is about to read); ``leaves`` is the per-address
        position-map list, consulted only to seed a merged group's anchor
        from a singleton buddy's entry.  Returns the :class:`AccessPlan`
        the protocol executes.  Deterministic: the partition after any
        access stream is a pure function of that stream.
        """
        self._require_bound()
        if not 1 <= address <= self._num_addresses:
            raise ConfigurationError(f"address {address} outside [1, {self._num_addresses}]")
        self._accesses += 1
        now = self._accesses // self._window
        leader = self._leader_of(address)
        size = self._sizes.get(leader, 1)
        counts = self._decayed(leader, now)

        # -- split: the other half went cold while this one stayed hot --
        split = False
        if size > 1:
            in_high = address >= leader + (size >> 1)
            own = counts[1] if in_high else counts[0]
            other = counts[0] if in_high else counts[1]
            if other == 0 and own + 1 >= self._split_threshold:
                leader, size = self._split(leader, size, address, now)
                counts = self._counts[leader]
                split = True

        # -- count this access against its half of the group --
        if size > 1 and address >= leader + (size >> 1):
            counts[1] += 1
        else:
            counts[0] += 1

        # -- merge: this group and its aligned buddy are both hot --
        merged = False
        hit = size > 1 and current_leaf == self._anchors[leader]
        target: int | None = None
        if size > 1 and not hit:
            target = self._anchors[leader]
        doubled = size << 1
        if doubled <= self._max_group_size and not split:
            buddy = ((leader - 1) ^ size) + 1
            if (
                buddy + size - 1 <= self._num_addresses
                and self._leader[buddy] == buddy
                and self._sizes.get(buddy, 1) == size
                and counts[0] + counts[1] >= self._merge_threshold
            ):
                buddy_counts = self._decayed(buddy, now)
                if buddy_counts[0] + buddy_counts[1] >= self._merge_threshold:
                    target = self._merge(leader, buddy, size, counts, buddy_counts, leaves)
                    merged = True
                    leader = min(leader, buddy)
                    size = doubled

        return AccessPlan(
            lo=leader,
            hi=leader + size,
            target_leaf=target,
            merged=merged,
            split=split,
            hit=hit,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_bound(self) -> None:
        if self._num_addresses is None:
            raise ConfigurationError(
                "DynamicSuperBlockMapper is unbound; the owning ORAM binds it "
                "via num_groups(working_set_blocks)"
            )

    def _leader_of(self, address: int) -> int:
        self._require_bound()
        if not 1 <= address <= self._num_addresses:
            raise ConfigurationError(f"address {address} outside [1, {self._num_addresses}]")
        return self._leader[address]

    def _decayed(self, leader: int, now: int) -> list[int]:
        """The leader's counter cell, window decay applied."""
        counts = self._counts.get(leader)
        if counts is None:
            counts = self._counts[leader] = [0, 0, now]
            return counts
        elapsed = now - counts[2]
        if elapsed:
            counts[0] >>= elapsed
            counts[1] >>= elapsed
            counts[2] = now
        return counts

    def _split(self, leader: int, size: int, address: int, now: int) -> tuple[int, int]:
        """Halve ``leader``'s group; return the accessed half's (leader, size)."""
        half = size >> 1
        high = leader + half
        leaders = self._leader
        for member in range(high, leader + size):
            leaders[member] = high
        sizes = self._sizes
        anchor = self._anchors.pop(leader)
        if half > 1:
            sizes[leader] = half
            sizes[high] = half
            # Both halves stay where the parent group lived; they drift
            # apart through their own future fresh draws.
            self._anchors[leader] = anchor
            self._anchors[high] = anchor
        else:
            del sizes[leader]
        # The parent's half counters say nothing about the halves' own
        # halves; both restart cold (the accessed one is bumped by the
        # caller), which just delays the next merge/split by a window.
        del self._counts[leader]
        new_leader = high if address >= high else leader
        self._counts[new_leader] = [0, 0, now]
        return new_leader, half

    def _merge(
        self,
        leader: int,
        buddy: int,
        size: int,
        counts: list[int],
        buddy_counts: list[int],
        leaves: list[int],
    ) -> int:
        """Fuse ``leader``'s and ``buddy``'s groups; return the merged anchor.

        The accessed side's reachable members are about to be retargeted by
        the protocol, so the merged group settles on the *buddy's* anchor
        (the side this access cannot reach); the accessed side converges
        onto it, starting with this very access.
        """
        merged_leader = leader if leader < buddy else buddy
        high_leader = buddy if leader < buddy else leader
        anchor = self._anchors.pop(buddy, None)
        if anchor is None:
            # Singleton buddy: its anchor is its position-map entry.
            anchor = leaves[buddy - 1]
        leaders = self._leader
        for member in range(high_leader, high_leader + size):
            leaders[member] = merged_leader
        sizes = self._sizes
        sizes[merged_leader] = size << 1
        sizes.pop(high_leader, None)
        self._anchors.pop(leader, None)
        self._anchors[merged_leader] = anchor
        stamp = counts[2]
        low_counts = counts if leader < buddy else buddy_counts
        high_counts = buddy_counts if leader < buddy else counts
        self._counts[merged_leader] = [
            low_counts[0] + low_counts[1],
            high_counts[0] + high_counts[1],
            stamp,
        ]
        self._counts.pop(high_leader, None)
        return anchor
