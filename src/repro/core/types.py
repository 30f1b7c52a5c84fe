"""Fundamental value types shared across the Path ORAM implementation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.errors import ConfigurationError

#: Program address reserved for dummy blocks (Section 2.1 of the paper).
DUMMY_ADDRESS = 0


class Operation(Enum):
    """The two operations a program can request from the ORAM interface."""

    READ = "read"
    WRITE = "write"


def as_operation(op: Any) -> Operation:
    """``op`` as an :class:`Operation`: the strings ``"read"`` and
    ``"write"`` are normalized, anything else raises
    :class:`~repro.errors.ConfigurationError` (a typo'd op must not run as
    a read).  Entry points call it only when ``type(op) is not Operation``,
    so an :class:`Operation` costs them one identity check."""
    try:
        return Operation(op)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"unknown operation {op!r}; expected Operation.READ, "
            "Operation.WRITE, 'read' or 'write'"
        ) from None


@dataclass(slots=True)
class Block:
    """One data block (cache line) stored in the ORAM tree or stash.

    Attributes
    ----------
    address:
        Program address ``u`` (1-based; 0 is reserved for dummies).
    leaf:
        The leaf label this block is currently mapped to.
    data:
        Payload.  Experiments that only measure stash behaviour leave this as
        ``None``; the encrypted back-end and the processor integration carry
        real bytes (or, for position-map ORAMs, a list of leaf labels).
    """

    address: int
    leaf: int
    data: Any = None

    def is_dummy(self) -> bool:
        """True when this block is a dummy placeholder."""
        return self.address == DUMMY_ADDRESS


@dataclass(slots=True)
class TraceResult:
    """Aggregate outcome of a trace-at-once :meth:`access_many` run.

    The fused loop is bit-identical to calling ``access`` once per trace
    element but does not materialise one :class:`AccessResult` per access;
    this envelope carries the aggregate counters instead.

    Attributes
    ----------
    accesses:
        Number of trace elements executed.
    found:
        How many of them hit a block that existed before the access.
    dummy_accesses:
        Total background-eviction dummy accesses issued during the run.
    """

    accesses: int = 0
    found: int = 0
    dummy_accesses: int = 0


@dataclass(slots=True)
class AccessResult:
    """What a single ORAM access returned to the caller.

    Attributes
    ----------
    address:
        The requested program address.
    data:
        The block payload (``None`` for a miss on a never-written address).
    found:
        Whether the block existed in the ORAM before the access.
    dummy_accesses:
        Number of background-eviction dummy accesses triggered after this
        real access.
    """

    address: int
    data: Any = None
    found: bool = True
    dummy_accesses: int = 0
