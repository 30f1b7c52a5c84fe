"""The Path ORAM stash (the 'local cache' of the original paper)."""

from __future__ import annotations

from typing import ItemsView, Iterable, Iterator

from repro.core.types import Block
from repro.errors import StashOverflowError


class Stash:
    """Holds up to ``capacity`` real blocks inside the ORAM interface.

    The stash is keyed by program address: Path ORAM never stores two copies
    of the same block, so an address uniquely identifies a stash entry.

    Blocks are additionally indexed by the leaf they are mapped to
    (:meth:`leaf_groups`).  The write-back step of the protocol buckets
    stash blocks by the deepest level they may legally occupy on the path
    being written, which depends only on a block's leaf; the leaf index lets
    it do that per *distinct leaf* instead of rescanning every block.  The
    same index makes the super-block operations batched: all members of a
    super block share one leaf, so an entire group can be retargeted or
    extracted by splitting one leaf bucket (:meth:`retarget_range_collect`,
    :meth:`pop_range`) instead of touching the index once per member.

    The index is maintained incrementally by :meth:`add`, :meth:`pop` and
    :meth:`retarget` — code outside this class must never assign
    ``block.leaf`` directly for a block that sits in the stash.  Within a
    leaf bucket blocks are unordered (removal swaps with the last entry).

    Parameters
    ----------
    capacity:
        Maximum number of blocks, or ``None`` for an unbounded stash (used
        when studying failure probability with no background eviction).
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._blocks: dict[int, Block] = {}
        self._by_leaf: dict[int, list[Block]] = {}
        self._capacity = capacity
        self._max_occupancy = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, address: int) -> bool:
        return address in self._blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    @property
    def capacity(self) -> int | None:
        """Configured capacity (``None`` = unbounded)."""
        return self._capacity

    @property
    def occupancy(self) -> int:
        """Current number of blocks held."""
        return len(self._blocks)

    @property
    def max_occupancy(self) -> int:
        """High-water mark of :attr:`occupancy` since construction."""
        return self._max_occupancy

    def add(self, block: Block) -> None:
        """Insert (or overwrite) a block.

        Raises
        ------
        StashOverflowError
            If the stash has a finite capacity and this insertion would
            exceed it.  With background eviction enabled the ORAM never
            lets this happen.
        """
        if block.is_dummy():
            return
        address = block.address
        previous = self._blocks.get(address)
        if (
            self._capacity is not None
            and previous is None
            and len(self._blocks) >= self._capacity
        ):
            raise StashOverflowError(
                f"stash overflow: capacity {self._capacity} exceeded"
            )
        if previous is not None:
            self._drop_from_leaf_index(previous, previous.leaf)
        self._blocks[address] = block
        bucket = self._by_leaf.get(block.leaf)
        if bucket is None:
            self._by_leaf[block.leaf] = [block]
        else:
            bucket.append(block)
        if len(self._blocks) > self._max_occupancy:
            self._max_occupancy = len(self._blocks)

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
        for block in moved:
            block.leaf = new_leaf
            target.append(block)
        if staying:
            self._by_leaf[leaf] = staying
        else:
            del self._by_leaf[leaf]
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
