"""Physical address → (channel, bank, row, column) mapping.

The paper adopts the interleaving in which adjacent addresses "first differ
in channels, then columns, then banks, and lastly rows" (Section 3.3.4).
Addresses are decomposed at burst granularity (64 bytes): the lowest bits
select the channel, the next bits the column (burst within a row), then the
bank, then the row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.config import DRAMConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DRAMLocation:
    """Where one burst-sized transaction lands in the DRAM system."""

    channel: int
    bank: int
    row: int
    column: int


class AddressMapping:
    """Implements the channel → column → bank → row interleaving."""

    def __init__(self, config: DRAMConfig) -> None:
        self._config = config
        self._granularity = config.access_granularity_bytes
        self._bursts_per_row = config.row_buffer_bytes // self._granularity
        if self._bursts_per_row < 1:
            raise ConfigurationError("row buffer smaller than one burst")

    @property
    def config(self) -> DRAMConfig:
        return self._config

    def locate(self, byte_address: int) -> DRAMLocation:
        """Map a byte address to its channel/bank/row/column."""
        if byte_address < 0:
            raise ConfigurationError("byte_address must be non-negative")
        burst = byte_address // self._granularity
        cfg = self._config
        channel = burst % cfg.channels
        burst //= cfg.channels
        column = burst % self._bursts_per_row
        burst //= self._bursts_per_row
        bank = burst % cfg.banks_per_channel
        burst //= cfg.banks_per_channel
        row = burst % cfg.rows_per_bank
        return DRAMLocation(channel=channel, bank=bank, row=row, column=column)

    def split_range(self, byte_address: int, length: int) -> list[DRAMLocation]:
        """Split a contiguous byte range into burst-sized transactions."""
        if length <= 0:
            return []
        first = byte_address // self._granularity
        last = (byte_address + length - 1) // self._granularity
        return [self.locate(burst * self._granularity) for burst in range(first, last + 1)]
