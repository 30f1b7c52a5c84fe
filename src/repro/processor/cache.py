"""Set-associative caches and the exclusive L1/L2 hierarchy of Table 1."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.processor.config import CacheConfig


@dataclass(slots=True)
class EvictedLine:
    """A line pushed out of a cache level."""

    line_address: int
    dirty: bool


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """An LRU set-associative cache indexed by line address."""

    def __init__(self, config: CacheConfig) -> None:
        self._config = config
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self.stats = CacheStats()

    @property
    def config(self) -> CacheConfig:
        return self._config

    def _set_index(self, line_address: int) -> int:
        return line_address % self._config.num_sets

    def lookup(self, line_address: int, mark_dirty: bool = False) -> bool:
        """Probe the cache; on a hit, refresh LRU order and optionally mark dirty."""
        cache_set = self._sets[self._set_index(line_address)]
        if line_address in cache_set:
            cache_set.move_to_end(line_address)
            if mark_dirty:
                cache_set[line_address] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def contains(self, line_address: int) -> bool:
        """Probe without touching LRU state or statistics."""
        return line_address in self._sets[self._set_index(line_address)]

    def insert(self, line_address: int, dirty: bool = False) -> EvictedLine | None:
        """Insert a line, returning the victim evicted to make room (if any)."""
        cache_set = self._sets[self._set_index(line_address)]
        if line_address in cache_set:
            cache_set.move_to_end(line_address)
            cache_set[line_address] = cache_set[line_address] or dirty
            return None
        victim: EvictedLine | None = None
        if len(cache_set) >= self._config.ways:
            victim_address, victim_dirty = cache_set.popitem(last=False)
            victim = EvictedLine(line_address=victim_address, dirty=victim_dirty)
        cache_set[line_address] = dirty
        return victim

    def invalidate(self, line_address: int) -> tuple[bool, bool]:
        """Remove a line; returns ``(was_present, was_dirty)``."""
        cache_set = self._sets[self._set_index(line_address)]
        if line_address in cache_set:
            dirty = cache_set.pop(line_address)
            return True, dirty
        return False, False

    def occupancy(self) -> int:
        """Total lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)


class CacheHierarchy:
    """Exclusive two-level hierarchy: a line lives in L1 or L2, never both.

    ``access`` returns the latency contribution of the cache levels and a
    list of lines that must be fetched from / written back to memory;
    the processor model charges memory latency separately.
    """

    def __init__(self, l1_config: CacheConfig, l2_config: CacheConfig) -> None:
        self.l1 = SetAssociativeCache(l1_config)
        self.l2 = SetAssociativeCache(l2_config)
        self._line_bytes = l1_config.line_bytes

    @property
    def line_bytes(self) -> int:
        return self._line_bytes

    def line_address(self, byte_address: int) -> int:
        return byte_address // self._line_bytes

    def access(self, byte_address: int, is_write: bool) -> tuple[int, bool, list[EvictedLine]]:
        """Look up one memory reference.

        Returns ``(cache_cycles, llc_miss, writebacks)`` where ``llc_miss``
        indicates the line must be fetched from memory and ``writebacks``
        lists dirty lines pushed out of the hierarchy by the resulting
        fills.
        """
        line = self.line_address(byte_address)
        l1_cfg = self.l1.config
        l2_cfg = self.l2.config

        if self.l1.lookup(line, mark_dirty=is_write):
            return l1_cfg.hit_cycles, False, []

        cycles = l1_cfg.hit_cycles + l1_cfg.miss_cycles
        writebacks: list[EvictedLine] = []

        if self.l2.lookup(line):
            cycles += l2_cfg.hit_cycles
            # Exclusive: promote the line to L1 and remove it from L2.
            _, was_dirty = self.l2.invalidate(line)
            writebacks.extend(self._fill_l1(line, dirty=was_dirty or is_write))
            return cycles, False, writebacks

        cycles += l2_cfg.hit_cycles + l2_cfg.miss_cycles
        writebacks.extend(self._fill_l1(line, dirty=is_write))
        return cycles, True, writebacks

    def fill_prefetched(self, byte_address: int) -> list[EvictedLine]:
        """Install a super-block sibling line into L2 (not L1).

        Returns lines evicted from L2 as a result.  Clean victims are
        reported too because, with an exclusive ORAM, every line leaving the
        cache hierarchy must be returned to the ORAM.
        """
        line = self.line_address(byte_address)
        if self.l1.contains(line) or self.l2.contains(line):
            return []
        victim = self.l2.insert(line, dirty=False)
        return [victim] if victim is not None else []

    def _fill_l1(self, line: int, dirty: bool) -> list[EvictedLine]:
        """Install a line into L1, cascading the victim into L2 (exclusive)."""
        writebacks: list[EvictedLine] = []
        l1_victim = self.l1.insert(line, dirty=dirty)
        if l1_victim is not None:
            l2_victim = self.l2.insert(l1_victim.line_address, dirty=l1_victim.dirty)
            if l2_victim is not None and l2_victim.dirty:
                writebacks.append(l2_victim)
            elif l2_victim is not None:
                # Clean L2 victims silently drop in a conventional system; the
                # exclusive ORAM still needs them back (they are not in the
                # ORAM), so report them as clean writebacks.
                writebacks.append(l2_victim)
        return writebacks
