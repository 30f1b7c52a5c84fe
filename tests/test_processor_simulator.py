"""Memory back-end and processor timing-model tests."""

import random

import pytest

from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.interface import ORAMMemoryInterface
from repro.dram.config import DRAMConfig
from repro.errors import TraceFormatError
from repro.processor.config import table1_processor
from repro.processor.memory import DRAMBackend, ORAMBackend
from repro.processor.simulator import ProcessorSimulator
from repro.processor.trace import TraceRecord
from repro.workloads.synthetic import random_access_trace, sequential_scan_trace


class TestTraceRecords:
    def test_negative_gap_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(gap_instructions=-1, address=0)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(gap_instructions=0, address=-4)


class TestDRAMBackend:
    def test_fetch_latency_positive(self):
        backend = DRAMBackend(DRAMConfig(channels=1))
        result = backend.fetch_line(10, now_cycles=0)
        assert result.latency_cycles > 0
        assert backend.stats.fetches == 1

    def test_row_hits_cheaper_than_misses(self):
        backend = DRAMBackend(DRAMConfig(channels=1))
        miss = backend.fetch_line(0, 0).latency_cycles
        hit = backend.fetch_line(1, 0).latency_cycles
        assert hit < miss

    def test_writeback_does_not_stall(self):
        backend = DRAMBackend(DRAMConfig(channels=1))
        backend.writeback_line(5, dirty=True, now_cycles=0)
        backend.writeback_line(6, dirty=False, now_cycles=0)
        assert backend.stats.writebacks == 2
        assert backend.stats.dirty_writebacks == 1


class TestORAMBackend:
    def _backend(self, super_block_size=1):
        data = ORAMConfig(
            working_set_blocks=512, z=4, block_bytes=128, stash_capacity=150,
            super_block_size=super_block_size,
        )
        hierarchy = HierarchyConfig(
            data_oram=data, position_map_block_bytes=8,
            onchip_position_map_limit_bytes=1 << 16,
        )
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(0))
        return ORAMBackend(ORAMMemoryInterface(oram),
                           return_data_cycles=1000, finish_access_cycles=2000)

    def test_fetch_latency_is_return_data_when_idle(self):
        backend = self._backend()
        result = backend.fetch_line(3, now_cycles=0)
        assert result.latency_cycles == pytest.approx(1000)

    def test_back_to_back_fetches_wait_for_finish_access(self):
        backend = self._backend()
        backend.fetch_line(1, now_cycles=0)
        second = backend.fetch_line(2, now_cycles=100)
        # The ORAM is busy until cycle 2000; data returns 1000 cycles later.
        assert second.latency_cycles == pytest.approx(2000 - 100 + 1000)

    def test_super_block_prefetch_returns_sibling(self):
        backend = self._backend(super_block_size=2)
        result = backend.fetch_line(10, now_cycles=0)
        assert len(result.prefetched_lines) == 1
        sibling = result.prefetched_lines[0]
        assert abs(sibling - 10) == 1

    def test_writeback_counts(self):
        backend = self._backend()
        backend.fetch_line(1, now_cycles=0)
        backend.writeback_line(1, dirty=True, now_cycles=5000)
        assert backend.stats.writebacks == 1
        assert backend.stats.dirty_writebacks == 1


class TestProcessorSimulator:
    def test_streaming_trace_has_low_miss_rate(self, rng):
        config = table1_processor()
        trace = sequential_scan_trace(5000, 64 * 1024, rng)
        result = ProcessorSimulator(config, DRAMBackend(line_bytes=128)).run(trace)
        assert result.l1_miss_rate < 0.1
        assert result.memory_operations == 5000
        assert result.instructions > 5000

    def test_random_large_working_set_misses_often(self, rng):
        config = table1_processor()
        trace = random_access_trace(4000, 8 * 1024 * 1024, rng)
        result = ProcessorSimulator(config, DRAMBackend(line_bytes=128)).run(trace)
        assert result.llc_misses > 1000

    def test_oram_backend_slower_than_dram(self, rng):
        config = table1_processor()
        trace = random_access_trace(1500, 2 * 1024 * 1024, rng)
        dram_result = ProcessorSimulator(config, DRAMBackend(line_bytes=128)).run(trace)

        data = ORAMConfig(working_set_blocks=1 << 14, z=4, block_bytes=128, stash_capacity=150)
        hierarchy = HierarchyConfig(data_oram=data, position_map_block_bytes=32,
                                    onchip_position_map_limit_bytes=1 << 16)
        oram = HierarchicalPathORAM(hierarchy, rng=random.Random(1))
        backend = ORAMBackend(ORAMMemoryInterface(oram),
                              return_data_cycles=2000, finish_access_cycles=3200)
        oram_result = ProcessorSimulator(config, backend).run(trace)
        slowdown = oram_result.slowdown_over(dram_result)
        assert slowdown > 2.0

    def test_warmup_excluded_from_cycles(self, rng):
        config = table1_processor()
        trace = random_access_trace(3000, 1024 * 1024, rng)
        full = ProcessorSimulator(config, DRAMBackend(line_bytes=128)).run(trace)
        warmed = ProcessorSimulator(config, DRAMBackend(line_bytes=128)).run(
            trace, warmup_operations=1500
        )
        assert warmed.total_cycles < full.total_cycles
        assert warmed.instructions < full.instructions

    def test_cycles_per_instruction_positive(self, rng):
        config = table1_processor()
        trace = sequential_scan_trace(1000, 32 * 1024, rng)
        result = ProcessorSimulator(config, DRAMBackend(line_bytes=128)).run(trace)
        assert result.cycles_per_instruction > 0
