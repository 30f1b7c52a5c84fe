"""The position map: program address (or super-block group) → leaf label."""

from __future__ import annotations

import random

from repro.errors import ConfigurationError


class PositionMap:
    """Maps each of ``num_entries`` identifiers to a leaf in ``[0, num_leaves)``.

    The map is initialised with uniformly random leaves, mirroring the
    paper's initial state where every program address is associated with a
    random leaf before any access is made.

    Parameters
    ----------
    num_entries:
        Number of identifiers to track (blocks, or super-block groups).
    num_leaves:
        Number of leaves in the ORAM tree.
    rng:
        Random source used for the initial assignment and for
        :meth:`random_leaf`.
    """

    def __init__(self, num_entries: int, num_leaves: int, rng: random.Random | None = None) -> None:
        if num_entries < 1:
            raise ConfigurationError("position map needs at least one entry")
        if num_leaves < 1:
            raise ConfigurationError("position map needs at least one leaf")
        self._rng = rng if rng is not None else random.Random()
        self._num_leaves = num_leaves
        # Leaf counts are powers of two for full binary trees, so a uniform
        # draw is a single getrandbits call — much cheaper than randrange
        # on the dummy-access hot path.
        self._leaf_bits = (num_leaves - 1).bit_length() if num_leaves & (num_leaves - 1) == 0 else 0
        self._leaves = [self._rng.randrange(num_leaves) for _ in range(num_entries)]

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def num_leaves(self) -> int:
        """Number of leaves entries may map to."""
        return self._num_leaves

    @property
    def leaves(self) -> list[int]:
        """The live entry list (index = identifier, value = leaf).

        Exposed for the protocol hot path, which turns :meth:`lookup` /
        :meth:`assign` into a plain list index.  Callers writing through
        this list are responsible for keeping leaves in range.
        """
        return self._leaves

    def lookup(self, identifier: int) -> int:
        """Return the leaf currently assigned to ``identifier``."""
        return self._leaves[identifier]

    def assign(self, identifier: int, leaf: int) -> None:
        """Set the leaf for ``identifier`` explicitly."""
        if not 0 <= leaf < self._num_leaves:
            raise ConfigurationError(f"leaf {leaf} out of range [0, {self._num_leaves})")
        self._leaves[identifier] = leaf

    def random_leaf(self) -> int:
        """Draw a uniformly random leaf (used for dummy accesses)."""
        if self._leaf_bits:
            return self._rng.getrandbits(self._leaf_bits)
        return self._rng.randrange(self._num_leaves)
