"""Cache and exclusive-hierarchy tests (Table 1)."""

import pytest

from repro.errors import ConfigurationError
from repro.processor.cache import CacheHierarchy, SetAssociativeCache
from repro.processor.config import CacheConfig, ProcessorConfig, table1_processor


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig(size_bytes=32 * 1024, ways=4, line_bytes=128)
        assert config.num_sets == 64

    def test_table1_values(self):
        processor = table1_processor()
        assert processor.l1.size_bytes == 32 * 1024 and processor.l1.ways == 4
        assert processor.l2.size_bytes == 1024 * 1024 and processor.l2.ways == 16
        assert processor.line_bytes == 128
        assert processor.l1.hit_cycles == 2 and processor.l1.miss_cycles == 1
        assert processor.l2.hit_cycles == 10 and processor.l2.miss_cycles == 4
        assert processor.cpu_cycles_per_dram_cycle == 4

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=1000, ways=3, line_bytes=128)

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessorConfig(
                l1=CacheConfig(size_bytes=32 * 1024, ways=4, line_bytes=64),
                l2=CacheConfig(size_bytes=1024 * 1024, ways=16, line_bytes=128),
            )


class TestSetAssociativeCache:
    def _cache(self, ways=2, sets=4):
        return SetAssociativeCache(
            CacheConfig(size_bytes=ways * sets * 128, ways=ways, line_bytes=128)
        )

    def test_hit_after_insert(self):
        cache = self._cache()
        cache.insert(10)
        assert cache.lookup(10) is True
        assert cache.stats.hits == 1

    def test_miss_recorded(self):
        cache = self._cache()
        assert cache.lookup(10) is False
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = self._cache(ways=2, sets=1)
        cache.insert(1)
        cache.insert(2)
        cache.lookup(1)  # make line 2 the LRU
        victim = cache.insert(3)
        assert victim is not None and victim.line_address == 2

    def test_dirty_bit_propagates_to_victim(self):
        cache = self._cache(ways=1, sets=1)
        cache.insert(1, dirty=True)
        victim = cache.insert(2)
        assert victim.dirty is True

    def test_invalidate(self):
        cache = self._cache()
        cache.insert(5, dirty=True)
        present, dirty = cache.invalidate(5)
        assert present and dirty
        assert cache.invalidate(5) == (False, False)

    def test_occupancy(self):
        cache = self._cache(ways=2, sets=2)
        for line in range(4):
            cache.insert(line)
        assert cache.occupancy() == 4


class TestCacheHierarchy:
    def _hierarchy(self):
        l1 = CacheConfig(
            size_bytes=2 * 128 * 2, ways=2, line_bytes=128, hit_cycles=2, miss_cycles=1
        )
        l2 = CacheConfig(
            size_bytes=4 * 128 * 4, ways=4, line_bytes=128, hit_cycles=10, miss_cycles=4
        )
        return CacheHierarchy(l1, l2)

    def test_first_access_misses_to_memory(self):
        hierarchy = self._hierarchy()
        cycles, llc_miss, writebacks = hierarchy.access(0, is_write=False)
        assert llc_miss is True
        assert cycles == 2 + 1 + 10 + 4

    def test_second_access_hits_l1(self):
        hierarchy = self._hierarchy()
        hierarchy.access(0, is_write=False)
        cycles, llc_miss, _ = hierarchy.access(0, is_write=False)
        assert llc_miss is False
        assert cycles == 2

    def test_exclusive_promotion_from_l2(self):
        hierarchy = self._hierarchy()
        hierarchy.access(0, is_write=False)
        # Fill L1's set so line 0 gets demoted to L2 (addresses alias set 0).
        l1_sets = hierarchy.l1.config.num_sets
        hierarchy.access(l1_sets * 128, is_write=False)
        hierarchy.access(2 * l1_sets * 128, is_write=False)
        assert hierarchy.l2.contains(0)
        assert not hierarchy.l1.contains(0)
        cycles, llc_miss, _ = hierarchy.access(0, is_write=False)
        assert llc_miss is False
        assert cycles == 2 + 1 + 10
        # Exclusivity: after promotion the line is in L1 only.
        assert hierarchy.l1.contains(0)
        assert not hierarchy.l2.contains(0)

    def test_dirty_line_eventually_written_back(self):
        hierarchy = self._hierarchy()
        hierarchy.access(0, is_write=True)
        writebacks = []
        # Thrash enough conflicting lines through the hierarchy to push the
        # dirty line all the way out.
        stride = hierarchy.l2.config.num_sets * 128
        for i in range(1, 12):
            _, _, wb = hierarchy.access(i * stride, is_write=False)
            writebacks.extend(wb)
        dirty_victims = [line for line in writebacks if line.dirty]
        assert any(victim.line_address == 0 for victim in dirty_victims)

    def test_prefetched_line_goes_to_l2(self):
        hierarchy = self._hierarchy()
        hierarchy.fill_prefetched(7 * 128)
        assert hierarchy.l2.contains(7)
        assert not hierarchy.l1.contains(7)
        cycles, llc_miss, _ = hierarchy.access(7 * 128, is_write=False)
        assert llc_miss is False

    def test_prefetch_skips_lines_already_cached(self):
        hierarchy = self._hierarchy()
        hierarchy.access(0, is_write=False)
        assert hierarchy.fill_prefetched(0) == []
