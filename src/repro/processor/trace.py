"""Memory-trace record format for the trace-driven processor model.

The paper generates instruction/memory traces with SESC's fast-forward mode
and replays them through a timing model.  We use the same structure: a
trace is a sequence of memory operations, each annotated with the number of
non-memory instructions executed since the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import TraceFormatError


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One memory operation in a program trace.

    Attributes
    ----------
    gap_instructions:
        Non-memory instructions executed since the previous memory
        operation (charged at the core's average CPI).
    address:
        Byte address accessed.
    is_write:
        True for a store, False for a load.
    """

    gap_instructions: int
    address: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.gap_instructions < 0:
            raise TraceFormatError("gap_instructions must be non-negative")
        if self.address < 0:
            raise TraceFormatError("address must be non-negative")


MemoryTrace = Iterable[TraceRecord]
