"""Memory placement of the ORAM tree onto DRAM (Section 3.3.4).

Two strategies are provided:

* :class:`NaivePlacement` — the ORAM tree stored as a flat heap-order
  array.  Consecutive buckets along a path land in unrelated rows, so a
  path access sees almost no row-buffer locality.
* :class:`SubtreePlacement` — the paper's optimisation: every ``k``-level
  subtree is packed into one contiguous "node" sized to the row buffer
  times the number of channels, turning the ORAM tree into a ``2^k``-ary
  tree of row-sized nodes.  A path then touches one node per ``k`` levels,
  and all buckets within a node enjoy row-buffer hits spread evenly across
  channels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.config import ORAMConfig
from repro.core.tree import path_indices
from repro.dram.config import DRAMConfig
from repro.errors import ConfigurationError


class TreePlacement(ABC):
    """Maps ORAM bucket indices (heap order) to DRAM byte addresses."""

    def __init__(self, oram_config: ORAMConfig, base_address: int = 0) -> None:
        self._oram = oram_config
        self._base = base_address

    @property
    def oram_config(self) -> ORAMConfig:
        return self._oram

    @property
    def base_address(self) -> int:
        """Byte offset of this tree within the DRAM address space."""
        return self._base

    @abstractmethod
    def bucket_address(self, bucket_index: int) -> int:
        """Byte address of the first byte of ``bucket_index``."""

    @abstractmethod
    def total_bytes(self) -> int:
        """Total DRAM footprint of the placed tree (including padding)."""

    def path_addresses(self, leaf: int) -> list[tuple[int, int]]:
        """``(byte_address, length)`` of every bucket on the path to ``leaf``."""
        size = self._oram.bucket_bytes
        return [
            (self.bucket_address(index), size)
            for index in path_indices(leaf, self._oram.levels)
        ]

    def _check_index(self, bucket_index: int) -> None:
        if not 0 <= bucket_index < self._oram.num_buckets:
            raise ConfigurationError(
                f"bucket index {bucket_index} out of range [0, {self._oram.num_buckets})"
            )


class NaivePlacement(TreePlacement):
    """Heap-order array layout: bucket ``i`` at offset ``i * bucket_bytes``."""

    def bucket_address(self, bucket_index: int) -> int:
        self._check_index(bucket_index)
        return self._base + bucket_index * self._oram.bucket_bytes

    def total_bytes(self) -> int:
        return self._oram.num_buckets * self._oram.bucket_bytes


class SubtreePlacement(TreePlacement):
    """Pack each ``k``-level subtree into a row-buffer-sized node.

    Parameters
    ----------
    oram_config:
        The ORAM whose tree is being placed.
    dram_config:
        Determines the node size (row buffer bytes × channels) unless
        ``node_bytes`` overrides it.
    node_bytes:
        Explicit node size; must hold at least one bucket.
    base_address:
        Byte offset of the tree within the DRAM address space.
    """

    def __init__(
        self,
        oram_config: ORAMConfig,
        dram_config: DRAMConfig | None = None,
        node_bytes: int | None = None,
        base_address: int = 0,
    ) -> None:
        super().__init__(oram_config, base_address)
        if node_bytes is None:
            if dram_config is None:
                raise ConfigurationError("provide either dram_config or node_bytes")
            node_bytes = dram_config.subtree_node_bytes
        if node_bytes < oram_config.bucket_bytes:
            raise ConfigurationError("subtree node smaller than one bucket")
        self._node_bytes = node_bytes
        # Largest k with (2^k - 1) buckets fitting in one node.
        k = 1
        while ((1 << (k + 1)) - 1) * oram_config.bucket_bytes <= node_bytes:
            k += 1
        self._k = k
        self._buckets_per_node = (1 << k) - 1
        self._node_slot_bytes = node_bytes
        self._num_subtree_levels = -(-oram_config.num_levels // k)  # ceil division

    @property
    def levels_per_subtree(self) -> int:
        """The packing factor ``k``."""
        return self._k

    @property
    def node_bytes(self) -> int:
        """Size of one subtree node slot (row buffer × channels)."""
        return self._node_slot_bytes

    def _num_nodes_above(self, subtree_level: int) -> int:
        """Number of subtree nodes in all levels shallower than ``subtree_level``."""
        k = self._k
        total = 0
        for level in range(subtree_level):
            total += 1 << (k * level)
        return total

    def bucket_address(self, bucket_index: int) -> int:
        self._check_index(bucket_index)
        level = (bucket_index + 1).bit_length() - 1
        position = bucket_index - ((1 << level) - 1)

        subtree_level = level // self._k
        depth_in_subtree = level % self._k
        # The subtree's root is this bucket's ancestor at level subtree_level*k;
        # its position within that level identifies the subtree.
        ancestor_position = position >> depth_in_subtree
        node_id = self._num_nodes_above(subtree_level) + ancestor_position

        position_in_subtree_level = position & ((1 << depth_in_subtree) - 1)
        index_in_subtree = ((1 << depth_in_subtree) - 1) + position_in_subtree_level
        return (
            self._base
            + node_id * self._node_slot_bytes
            + index_in_subtree * self._oram.bucket_bytes
        )

    def total_bytes(self) -> int:
        total_nodes = self._num_nodes_above(self._num_subtree_levels)
        return total_nodes * self._node_slot_bytes
