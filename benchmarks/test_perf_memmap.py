"""Beyond-RAM capacity benchmark for the durable ``memmap-flat`` stack.

The Table-2-style capacity question: how much does crash-consistent
on-disk column storage cost at a tree size past 2^21 block slots, where
the volatile stacks are the RAM ceiling?  One paired-window run drives the
``memmap-flat`` stack and an in-RAM twin of its columns (a directly built
:class:`~repro.core.numpy_tree.NumpyFlatTreeStorage`) over identical
workload streams through the same column-native engine; the recorded
``speedup`` is ``memmap_rate / numpy_flat_rate``.

The paired windows run the documented capacity configuration — relaxed
journaling with commits at window boundaries, where a crash loses at most
the uncommitted window and recovery still lands on the last committed
generation (the relaxed crash-property tests pin that down).  Strict
mode, which fsyncs every path's fresh pre-images before mutating them,
is measured separately and recorded as ``strict_accesses_per_s``: at this
tree size nearly every random access touches never-yet-journaled pages,
so strict pays one fsync per access by design.

The committed floor of 0.2 in ``benchmarks/perf_floors.json`` bounds the
relaxed-mode durability tax (first-touch pre-image journaling without the
per-access fsync) at 5x against the purely volatile columns.  The point
costs of one :meth:`commit` and one verified reopen (full page-checksum
sweep) are recorded alongside, plus the on-disk footprint — the numbers
ROADMAP item 4 closes with.

Both storages must also end the paired run with bit-identical columns —
the durability layer is a transparent home for the same engine, not a
fork of it.
"""

import os
import random
import time

import pytest

np = pytest.importorskip("numpy")

from conftest import (  # noqa: E402
    measure_window_many,
    paired_throughput,
    perf_floor,
    record_perf,
    scaled,
)

from repro.backends import OramSpec, build_oram  # noqa: E402
from repro.core.config import ORAMConfig  # noqa: E402
from repro.core.memmap_tree import MemmapTreeStorage, column_digest  # noqa: E402
from repro.core.numpy_tree import NumpyFlatTreeStorage  # noqa: E402
from repro.core.path_oram import PathORAM  # noqa: E402

#: The ">= 2^21 block slots" capacity point.
WORKING_SET = 1 << 20
Z = 4

WINDOWS = 3

SPEEDUP_FLOOR = perf_floor("memmap")


def test_memmap_capacity_vs_numpy_flat(benchmark, tmp_path):
    config = ORAMConfig(working_set_blocks=WORKING_SET, z=Z, block_bytes=128, stash_capacity=200)
    slots = config.num_buckets * config.z
    assert slots >= 1 << 21, f"capacity point too small: {slots} slots"
    prefill = scaled(16_384, minimum=2048)
    measured = scaled(3000, minimum=600)

    def _run():
        durable = build_oram(
            OramSpec(
                protocol="flat",
                storage="memmap-flat",
                storage_path=os.fspath(tmp_path / "relaxed"),
                memmap_sync="relaxed",
            ),
            config,
            seed=7,
        )
        assert durable._column_engine is not None  # noqa: SLF001
        # The flat spec's ORAM over in-RAM columns: same RNG, same eviction.
        volatile = PathORAM(config, storage=NumpyFlatTreeStorage(config), rng=random.Random(7))
        assert volatile._column_engine is not None  # noqa: SLF001
        durable.access_many(range(1, prefill + 1))
        volatile.access_many(range(1, prefill + 1))
        paired = paired_throughput(
            durable,
            volatile,
            WINDOWS,
            measured,
            WORKING_SET,
            trace_seed=11,
            engine_window=measure_window_many,
            reference_window=measure_window_many,
        )
        # Same seed, same streams, same engine: the durable home must hold
        # bit-identical columns.
        assert column_digest(durable.storage) == column_digest(volatile.storage)

        storage = durable.storage
        start = time.perf_counter()
        generation = storage.commit()
        commit_ms = (time.perf_counter() - start) * 1e3
        file_bytes = storage.storage_bytes()
        path = storage.file_path
        digest = storage.digest()
        storage.abandon()

        start = time.perf_counter()
        reopened = MemmapTreeStorage.open(path)
        reopen_ms = (time.perf_counter() - start) * 1e3
        assert reopened.generation == generation
        assert reopened.digest() == digest
        reopened.abandon()

        # One smaller strict-mode window: per-access durability, one fsync
        # per random access at this tree size.
        strict = build_oram(
            OramSpec(
                protocol="flat",
                storage="memmap-flat",
                storage_path=os.fspath(tmp_path / "strict"),
                memmap_sync="strict",
            ),
            config,
            seed=7,
        )
        strict_measured = max(100, measured // 4)
        strict_rate = measure_window_many(strict, random.Random(11), strict_measured, WORKING_SET)
        strict.storage.abandon()
        return paired, commit_ms, reopen_ms, file_bytes, strict_rate

    (
        ((memmap_rate, numpy_rate), spread),
        commit_ms,
        reopen_ms,
        file_bytes,
        strict_rate,
    ) = benchmark.pedantic(_run, rounds=1, iterations=1)
    speedup = memmap_rate / numpy_rate

    record = {
        "config": (
            f"flat Path ORAM, working set 2^20 blocks ({slots} slots, "
            f"Z={Z}), memmap-flat relaxed journaling vs its in-RAM column twin"
        ),
        "workload": (
            f"{prefill} prefill + {WINDOWS}x{measured} paired uniform "
            "random accesses per stack, identical streams"
        ),
        "metric": "accesses per second, durable vs volatile columns",
        "slots": slots,
        "memmap_accesses_per_s": round(memmap_rate, 1),
        "numpy_flat_accesses_per_s": round(numpy_rate, 1),
        "strict_accesses_per_s": round(strict_rate, 1),
        "file_bytes": file_bytes,
        "commit_ms": round(commit_ms, 2),
        "reopen_verify_ms": round(reopen_ms, 2),
        "target": "durability tax bounded at 5x (floor 0.2x)",
        "paired_ratios": spread,
        "speedup": round(speedup, 3),
    }
    record_perf(
        "memmap",
        record,
        "Durable memmap capacity — 2^21-slot tree, crash-consistent "
        "columns vs in-RAM columns",
    )

    floor_message = (
        f"memmap stack at {speedup:.3f}x its in-RAM column twin " f"(floor {SPEEDUP_FLOOR:.2f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR, floor_message
