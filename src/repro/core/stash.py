"""The Path ORAM stash (the 'local cache' of the original paper)."""

from __future__ import annotations

from typing import ItemsView, Iterable, Iterator

from repro.core.types import DUMMY_ADDRESS, Block


class Stash:
    """Holds the real blocks inside the ORAM interface.

    The stash is keyed by program address: Path ORAM never stores two copies
    of the same block, so an address uniquely identifies a stash entry.  It
    is unbounded; the protocol checks the configured capacity ``C`` itself
    (:meth:`~repro.core.path_oram.PathORAM._check_stash_bound`).

    Blocks are additionally indexed by the leaf they are mapped to
    (:meth:`leaf_groups`).  The write-back step of the protocol buckets
    stash blocks by the deepest level they may legally occupy on the path
    being written, which depends only on a block's leaf; the leaf index lets
    it do that per *distinct leaf* instead of rescanning every block.  The
    same index makes the super-block operations batched: all members of a
    super block share one leaf, so an entire group can be retargeted or
    extracted by splitting one leaf bucket (:meth:`retarget_range_collect`,
    :meth:`pop_range`) instead of touching the index once per member.
    :meth:`sorted_leaves` keeps the distinct leaves in ascending order,
    rebuilt only after the set of leaves changed, so a write-back can
    ``bisect`` for the stash leaves under one subtree of its path.

    This class is the only writer of the index: every path op adds,
    retargets and removes stash blocks through its methods, so a stash
    block's ``leaf`` always matches the bucket that holds it.  Within a
    leaf bucket blocks are unordered (removal swaps with the last entry).
    """

    def __init__(self) -> None:
        self._blocks: dict[int, Block] = {}
        self._by_leaf: dict[int, list[Block]] = {}
        self._max_occupancy = 0
        # Ascending distinct leaves, or None once the set of leaves changed.
        self._sorted_leaves: list[int] | None = None

    def __getstate__(self) -> dict:
        # The sorted-leaf view is derived state: rebuilt on first use.
        state = self.__dict__.copy()
        del state["_sorted_leaves"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Snapshots written before the capacity knob was removed carry it.
        state.pop("_capacity", None)
        self.__dict__.update(state)
        self._sorted_leaves = None

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, address: int) -> bool:
        return address in self._blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    @property
    def occupancy(self) -> int:
        """Current number of blocks held."""
        return len(self._blocks)

    @property
    def max_occupancy(self) -> int:
        """High-water mark of :attr:`occupancy` since construction."""
        return self._max_occupancy

    def add(self, block: Block) -> None:
        """Insert (or overwrite) a block; dummy blocks are ignored."""
        address = block.address
        if address == DUMMY_ADDRESS:
            return
        blocks = self._blocks
        previous = blocks.get(address)
        if previous is not None:
            self._drop_from_leaf_index(previous, previous.leaf)
        blocks[address] = block
        bucket = self._by_leaf.get(block.leaf)
        if bucket is None:
            self._by_leaf[block.leaf] = [block]
            self._sorted_leaves = None
        else:
            bucket.append(block)
        if len(blocks) > self._max_occupancy:
            self._max_occupancy = len(blocks)

    def count_passage(self) -> None:
        """Count one block that passed through the stash without being
        indexed (a write-back placed it at once) in the high-water mark,
        as an :meth:`add` then :meth:`remove_placed` would have."""
        if len(self._blocks) >= self._max_occupancy:
            self._max_occupancy = len(self._blocks) + 1

    def remove_placed(self, blocks: Iterable[Block]) -> None:
        """Batch-remove blocks the write-back placed into the tree.

        Equivalent to :meth:`pop` per block, minus the per-call overhead —
        the protocol calls this once per path write-back.
        """
        stash = self._blocks
        for block in blocks:
            if stash.pop(block.address, None) is not None:
                self._drop_from_leaf_index(block, block.leaf)

    def get(self, address: int) -> Block | None:
        """Return the block at ``address`` (or ``None``) without removing it."""
        return self._blocks.get(address)

    def pop(self, address: int) -> Block | None:
        """Remove and return the block at ``address`` (or ``None``)."""
        block = self._blocks.pop(address, None)
        if block is not None:
            self._drop_from_leaf_index(block, block.leaf)
        return block

    def retarget(self, address: int, new_leaf: int) -> Block | None:
        """Point the block at ``address`` at ``new_leaf``, keeping the leaf
        index consistent.  Returns the block, or ``None`` if absent."""
        block = self._blocks.get(address)
        if block is None:
            return None
        if block.leaf != new_leaf:
            self._drop_from_leaf_index(block, block.leaf)
            block.leaf = new_leaf
            bucket = self._by_leaf.get(new_leaf)
            if bucket is None:
                self._by_leaf[new_leaf] = [block]
                self._sorted_leaves = None
            else:
                bucket.append(block)
        return block

    # ------------------------------------------------------------------
    # Batched super-block operations
    # ------------------------------------------------------------------
    def retarget_range_collect(
        self, leaf: int, lo: int, hi: int, new_leaf: int
    ) -> list[Block]:
        """Retarget every stash block with address in ``[lo, hi)`` currently
        mapped to ``leaf`` onto ``new_leaf``, in one split of the leaf bucket,
        and return the moved blocks.

        This is the super-block remap: all stash-resident members of a group
        share the group's leaf, so one pass over that leaf's bucket moves the
        whole group.  The moved blocks come back because their position-map
        entries must follow (per address, under dynamic merging).
        """
        if leaf == new_leaf:
            return []
        bucket = self._by_leaf.get(leaf)
        if bucket is None:
            return []
        moved = [block for block in bucket if lo <= block.address < hi]
        if not moved:
            return []
        staying = [block for block in bucket if not lo <= block.address < hi]
        target = self._by_leaf.get(new_leaf)
        if target is None:
            target = self._by_leaf[new_leaf] = []
            self._sorted_leaves = None
        for block in moved:
            block.leaf = new_leaf
            target.append(block)
        if staying:
            self._by_leaf[leaf] = staying
        else:
            del self._by_leaf[leaf]
            self._sorted_leaves = None
        return moved

    def pop_range(self, leaf: int, lo: int, hi: int) -> list[Block]:
        """Remove and return every stash block with address in ``[lo, hi)``
        currently mapped to ``leaf`` — one split of the leaf bucket instead of
        a :meth:`pop` per super-block member."""
        bucket = self._by_leaf.get(leaf)
        if bucket is None:
            return []
        extracted = [block for block in bucket if lo <= block.address < hi]
        if not extracted:
            return []
        staying = [block for block in bucket if not lo <= block.address < hi]
        if staying:
            self._by_leaf[leaf] = staying
        else:
            del self._by_leaf[leaf]
            self._sorted_leaves = None
        blocks = self._blocks
        for block in extracted:
            del blocks[block.address]
        return extracted

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def leaf_groups(self) -> ItemsView[int, list[Block]]:
        """``(leaf, [blocks])`` pairs for every distinct leaf that currently
        has stash-resident blocks.  Do not mutate the stash while
        iterating."""
        return self._by_leaf.items()

    def sorted_leaves(self) -> list[int]:
        """The distinct leaves of :meth:`leaf_groups` in ascending order.

        Cached: every method that adds or drops a leaf bucket discards the
        list, so a call costs a sort only after the set of leaves changed.
        Do not mutate the returned list.
        """
        ordered = self._sorted_leaves
        if ordered is None:
            ordered = self._sorted_leaves = sorted(self._by_leaf)
        return ordered

    def blocks(self) -> list[Block]:
        """Snapshot list of all blocks currently in the stash."""
        return list(self._blocks.values())

    def addresses(self) -> list[int]:
        """Snapshot list of all addresses currently in the stash."""
        return list(self._blocks.keys())

    def fingerprint(self) -> tuple:
        """Deterministic ``(address, leaf)`` view of the stash contents.

        Sorted by address so two stashes holding the same blocks compare
        equal regardless of insertion order; used by the checkpoint/resume
        tests to pin bit-identical restored state.
        """
        return tuple(sorted((block.address, block.leaf) for block in self._blocks.values()))

    def clear(self) -> None:
        """Remove every block (used when resetting experiments)."""
        self._blocks.clear()
        self._by_leaf.clear()
        self._sorted_leaves = None

    def _drop_from_leaf_index(self, block: Block, leaf: int) -> None:
        bucket = self._by_leaf.get(leaf)
        if bucket is None:
            return
        for index, candidate in enumerate(bucket):
            if candidate is block:
                last = bucket.pop()
                if last is not block:
                    bucket[index] = last
                break
        if not bucket:
            del self._by_leaf[leaf]
            self._sorted_leaves = None
