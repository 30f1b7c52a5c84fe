"""Memory back-ends for the processor model: insecure DRAM and Path ORAM.

The DRAM back-end models the conventional baseline of Figure 12: a
last-level-cache miss performs one fast-page / burst access to the line of
interest, paying a row-buffer hit or miss latency.  The ORAM back-end wraps
an :class:`~repro.core.interface.ORAMMemoryInterface`: every miss is a full
ORAM access (hundreds of times more data moved), background-eviction dummy
accesses keep the ORAM busy, and super blocks return sibling lines that the
cache hierarchy installs as prefetches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.core.interface import ORAMMemoryInterface
from repro.dram.address_mapping import AddressMapping
from repro.dram.config import DRAMConfig


@dataclass(slots=True)
class FetchResult:
    """Outcome of fetching one line from memory."""

    latency_cycles: float
    prefetched_lines: list[int] = field(default_factory=list)


@dataclass(slots=True)
class BackendStats:
    """Counters shared by every memory back-end."""

    fetches: int = 0
    writebacks: int = 0
    dirty_writebacks: int = 0
    row_hits: int = 0
    row_misses: int = 0
    oram_dummy_accesses: int = 0
    total_fetch_latency: float = 0.0

    @property
    def average_fetch_latency(self) -> float:
        return self.total_fetch_latency / self.fetches if self.fetches else 0.0


class MemoryBackend(ABC):
    """What the last-level cache talks to on a miss."""

    def __init__(self) -> None:
        self.stats = BackendStats()

    @property
    @abstractmethod
    def name(self) -> str:
        """Short label used in reports."""

    @abstractmethod
    def fetch_line(self, line_address: int, now_cycles: float) -> FetchResult:
        """Fetch one cache line; returns its latency and any prefetched lines."""

    @abstractmethod
    def writeback_line(self, line_address: int, dirty: bool, now_cycles: float) -> None:
        """Return an evicted line to memory (does not stall the core)."""


class DRAMBackend(MemoryBackend):
    """Insecure conventional DRAM: one burst access per line.

    A per-bank open-row table decides between a row-buffer hit
    (``tCAS + transfer``) and a miss (``tRP + tRCD + tCAS + transfer``);
    cycles are converted from DRAM to CPU clocks.
    """

    def __init__(
        self,
        dram_config: DRAMConfig | None = None,
        line_bytes: int = 128,
        cpu_cycles_per_dram_cycle: int = 4,
    ) -> None:
        super().__init__()
        self._config = dram_config if dram_config is not None else DRAMConfig()
        self._mapping = AddressMapping(self._config)
        self._line_bytes = line_bytes
        self._cpu_per_dram = cpu_cycles_per_dram_cycle
        self._open_rows: dict[tuple[int, int], int] = {}

    @property
    def name(self) -> str:
        return "DRAM"

    def _access_cycles(self, line_address: int, is_write: bool) -> float:
        timing = self._config.timing
        byte_address = line_address * self._line_bytes
        bursts = max(1, self._line_bytes // self._config.access_granularity_bytes)
        location = self._mapping.locate(byte_address)
        key = (location.channel, location.bank)
        if self._open_rows.get(key) == location.row:
            self.stats.row_hits += 1
            dram_cycles = timing.t_cas + bursts * timing.t_burst
        else:
            self.stats.row_misses += 1
            dram_cycles = timing.row_miss_penalty + timing.t_cas + bursts * timing.t_burst
            self._open_rows[key] = location.row
        return dram_cycles * self._cpu_per_dram

    def fetch_line(self, line_address: int, now_cycles: float) -> FetchResult:
        latency = self._access_cycles(line_address, is_write=False)
        self.stats.fetches += 1
        self.stats.total_fetch_latency += latency
        return FetchResult(latency_cycles=latency)

    def writeback_line(self, line_address: int, dirty: bool, now_cycles: float) -> None:
        self.stats.writebacks += 1
        if dirty:
            self.stats.dirty_writebacks += 1
            # Writes are posted (buffered); they update the open-row state
            # but do not stall the core.
            self._access_cycles(line_address, is_write=True)


class ORAMBackend(MemoryBackend):
    """Path ORAM main memory behind the exclusive ORAM interface.

    Parameters
    ----------
    interface:
        The exclusive ORAM front-end (single or hierarchical ORAM).
    return_data_cycles:
        CPU cycles from the start of an ORAM access until the requested
        block is returned (Table 2, "return data").
    finish_access_cycles:
        CPU cycles until the access's path write-backs complete (Table 2,
        "finish access"); the ORAM cannot start another access before then.
    line_bytes:
        Cache-line size; must equal the data ORAM block size.
    """

    def __init__(
        self,
        interface: ORAMMemoryInterface,
        return_data_cycles: float,
        finish_access_cycles: float,
        line_bytes: int = 128,
    ) -> None:
        super().__init__()
        self._interface = interface
        self._return_data = return_data_cycles
        self._finish_access = finish_access_cycles
        self._line_bytes = line_bytes
        self._busy_until = 0.0
        oram = interface.oram
        data_config = oram.data_oram.config if hasattr(oram, "data_oram") else oram.config
        self._working_set_blocks = data_config.working_set_blocks

    @property
    def name(self) -> str:
        return "PathORAM"

    @property
    def interface(self) -> ORAMMemoryInterface:
        return self._interface

    def _block_address(self, line_address: int) -> int:
        """Fold a line address into the ORAM's block address space (1-based)."""
        return line_address % self._working_set_blocks + 1

    def fetch_line(self, line_address: int, now_cycles: float) -> FetchResult:
        block_address = self._block_address(line_address)
        dummies_before = self._interface.dummy_accesses()
        extracted = self._interface.fetch(block_address)
        dummies_issued = self._interface.dummy_accesses() - dummies_before

        start = max(now_cycles, self._busy_until)
        data_ready = start + self._return_data
        self._busy_until = start + self._finish_access + dummies_issued * self._finish_access

        latency = data_ready - now_cycles
        prefetched = [
            line_address + (sibling - block_address)
            for sibling in extracted
            if sibling != block_address
        ]
        self.stats.fetches += 1
        self.stats.total_fetch_latency += latency
        self.stats.oram_dummy_accesses += dummies_issued
        return FetchResult(latency_cycles=latency, prefetched_lines=prefetched)

    def writeback_line(self, line_address: int, dirty: bool, now_cycles: float) -> None:
        """Return an evicted line to the ORAM stash (exclusive ORAM).

        The insertion itself needs no path access (Section 3.3.1), but any
        background-eviction dummy accesses it triggers occupy the ORAM.
        """
        block_address = self._block_address(line_address)
        dummies_before = self._interface.dummy_accesses()
        self._interface.writeback(block_address, data=None)
        dummies_issued = self._interface.dummy_accesses() - dummies_before
        if dummies_issued:
            start = max(now_cycles, self._busy_until)
            self._busy_until = start + dummies_issued * self._finish_access
        self.stats.writebacks += 1
        if dirty:
            self.stats.dirty_writebacks += 1
        self.stats.oram_dummy_accesses += dummies_issued
