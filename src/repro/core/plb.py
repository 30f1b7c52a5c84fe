"""PosMap Lookaside Buffer: a bounded per-level label cache for the chain.

Memoising only the *single last* physical op per chain level pays off on
sequential streams (the next access usually lands in the same position-map
block) but saves ~0 on pointer-chasing workloads whose hot set spans a
handful of PM blocks.  Freecursive ORAM (Fletcher et al., ASPLOS 2015) —
the source paper group's successor design — generalises the idea into a
small PosMap Lookaside Buffer: a cache of recent position-map *blocks* per
recursion level, hit ⇒ the whole suffix of the recursive walk above that
level is skipped.

:class:`PosMapLookaside` is that cache.  One insertion-ordered dict per chain
level maps a PM block address to the block's **live label list** — the same
list object the classified and column path ops mutate in place, so a cached
entry always reflects the block's current labels without copying.  Hit
safety does not need the memo's "last op" suffix property: serving a hit
leaves the cached block *unmoved* (it is not read from or written to the
tree), so the label for it stored one level up stays accurate and every
level above is untouched.

Determinism: plain dicts, MRU via delete-and-reinsert, eviction of the
oldest entry (``next(iter(d))``) — no clocks, no hashing randomness beyond
int keys (which hash to themselves).  A capacity of 1 is that single-op
memo: it coalesces consecutive accesses through the same position-map block.

The cache trusts its caller to keep it coherent: the chain walk of
:class:`~repro.core.hierarchical.HierarchicalPathORAM` probes it through
:meth:`lookup`, installs the label list every physical
``access_position_block`` hands back through :meth:`install`, and routes
every dynamic super-block retarget (the ``_retarget_observer`` hook on
:class:`~repro.core.path_oram.PathORAM`) through :meth:`invalidate_range`,
so a stale label can never be served after a cohort move rewrites the data
ORAM's leaves.  These methods are the only code that touches the dicts.
"""

from __future__ import annotations

__all__ = ["PosMapLookaside"]


class PosMapLookaside:
    """Bounded LRU over position-map block label lists, one dict per level.

    ``levels[i]`` caches blocks of chain ORAM ``i`` (index 0 — the data
    ORAM — is present but never used, keeping level indices aligned with
    ``HierarchicalPathORAM.orams``).  A lookup that misses counts a miss:
    in the chain walk each missed level is followed by one physical
    position-map op.
    """

    __slots__ = ("levels", "entries_per_level", "hits", "misses")

    def __init__(self, num_orams: int, entries_per_level: int) -> None:
        if entries_per_level < 1:
            raise ValueError("entries_per_level must be >= 1")
        #: One insertion-ordered {block_address: labels} dict per chain level.
        self.levels: list[dict[int, list[int]]] = [{} for _ in range(num_orams)]
        self.entries_per_level = entries_per_level
        #: Lifetime lookup outcomes (engine-level; per-ORAM counts live in
        #: ``AccessStats.plb_hits`` / ``plb_misses``).
        self.hits = 0
        self.misses = 0

    def lookup(self, level: int, block_address: int):
        """The cached label list for ``block_address``, MRU-promoted, or None."""
        cache = self.levels[level]
        labels = cache.get(block_address)
        if labels is None:
            self.misses += 1
            return None
        self.hits += 1
        # MRU promotion: reinsert so eviction order tracks recency.
        del cache[block_address]
        cache[block_address] = labels
        return labels

    def install(self, level: int, block_address: int, labels: list[int]) -> None:
        """Cache (or refresh) a block's live label list after a physical op."""
        cache = self.levels[level]
        if block_address in cache:
            del cache[block_address]
        elif len(cache) >= self.entries_per_level:
            del cache[next(iter(cache))]
        cache[block_address] = labels

    def invalidate(self, level: int, block_address: int) -> None:
        """Drop one block's entry (no-op when absent)."""
        self.levels[level].pop(block_address, None)

    def invalidate_range(self, level: int, lo_block: int, hi_block: int) -> None:
        """Drop every cached block in ``[lo_block, hi_block]`` (inclusive)."""
        cache = self.levels[level]
        if not cache:
            return
        for block_address in range(lo_block, hi_block + 1):
            cache.pop(block_address, None)

    def clear(self) -> None:
        """Empty every level (capacity and counters are kept)."""
        for cache in self.levels:
            cache.clear()

    def fingerprint(self) -> tuple:
        """Deterministic copy of the cache contents plus hit/miss counters.

        The cached label lists are *live* references into the chain's
        blocks, so the fingerprint copies them into tuples; insertion order
        (= recency order) is part of the fingerprint because it decides
        future evictions.  Used by the checkpoint/resume tests.
        """
        return (
            self.entries_per_level,
            self.hits,
            self.misses,
            tuple(
                tuple((address, tuple(labels)) for address, labels in cache.items())
                for cache in self.levels
            ),
        )
