"""The exclusive-ORAM memory interface a secure processor talks to.

Section 3.3.1: the ORAM is *exclusive* — a block held in the on-chip cache
is not also in the ORAM.  A last-level-cache miss therefore *extracts* the
block (and its whole super block, if enabled) from the ORAM, and a cache
eviction *inserts* the line back into the ORAM stash without any path
access.

:class:`ORAMMemoryInterface` wraps either a single :class:`PathORAM` or a
:class:`HierarchicalPathORAM` behind this fetch / writeback API and keeps
the counters the processor-level evaluation needs (real accesses, dummy
accesses, lines prefetched by super blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.path_oram import PathORAM

Backend = Union[PathORAM, HierarchicalPathORAM]


@dataclass
class InterfaceStats:
    """Counters accumulated by :class:`ORAMMemoryInterface`."""

    fetches: int = 0
    writebacks: int = 0
    dummy_accesses: int = 0
    prefetched_lines: int = 0


class ORAMMemoryInterface:
    """Exclusive-ORAM front-end (the paper's "ORAM interface").

    Parameters
    ----------
    oram:
        The backing ORAM — a single :class:`PathORAM` or a
        :class:`HierarchicalPathORAM`.
    """

    def __init__(self, oram: Backend) -> None:
        self._oram = oram
        self._stats = InterfaceStats()

    @property
    def oram(self) -> Backend:
        return self._oram

    @property
    def stats(self) -> InterfaceStats:
        return self._stats

    @property
    def super_block_size(self) -> int:
        """Blocks returned per fetch when super blocks are enabled.

        Reads the (data) ORAM's mapper, so a dynamic mapper reports its
        maximum runtime group size rather than the config's static 1.
        """
        if isinstance(self._oram, HierarchicalPathORAM):
            return self._oram.data_oram.super_block_mapper.group_size
        return self._oram.super_block_mapper.group_size

    def fetch(self, address: int) -> dict[int, Any]:
        """Fetch the line at ``address`` (plus super-block siblings).

        The returned mapping contains the requested address and any sibling
        lines that were resident in the ORAM; all of them have been removed
        from the ORAM and now belong to the on-chip cache.
        """
        extracted = self._oram.extract(address)
        self._stats.fetches += 1
        self._stats.prefetched_lines += max(0, len(extracted) - 1)
        self._stats.dummy_accesses = self.dummy_accesses()
        return extracted

    def writeback(self, address: int, data: Any = None) -> int:
        """Return an evicted cache line to the ORAM (no path access).

        Returns the number of dummy accesses background eviction issued.
        """
        dummies = self._oram.insert(address, data)
        self._stats.writebacks += 1
        self._stats.dummy_accesses = self.dummy_accesses()
        return dummies

    def real_accesses(self) -> int:
        """ORAM path accesses serving real requests."""
        return self._oram.stats.real_accesses

    def dummy_accesses(self) -> int:
        """ORAM dummy accesses (background eviction)."""
        return self._oram.stats.dummy_accesses
