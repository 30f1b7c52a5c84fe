"""Differential tests for the trace-at-once execution path.

``access_many`` must be bit-for-bit identical to calling ``access`` once
per trace element: same tree contents, same stash, same position map, same
statistics, same RNG stream, for every protocol and storage stack.  These
tests replay the same trace through both paths on independently seeded
twins and compare full state fingerprints.
"""

import dataclasses
import gc
import random
import tempfile
import weakref

import pytest

from repro.backends import OramSpec, build_oram, storage_backends
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.path_oram import PathORAM
from repro.core.types import Operation, TraceResult
from repro.errors import ConfigurationError

#: Storage stacks every differential case runs over.  ``memmap-flat`` (the
#: column engine's stack) joins automatically when NumPy is importable (the
#: registry omits it otherwise, which is itself asserted in test_backends).
STACKS = [name for name in ("flat", "plain", "encrypted", "memmap-flat")
          if name in storage_backends()]


def build_stack(spec, config, seed, directory):
    """``build_oram`` for any stack in :data:`STACKS`.

    Each ``memmap-flat`` build gets a fresh subdirectory of ``directory``
    (two builds sharing one would truncate each other's files) and relaxed
    journal syncs, and must run on the column engine unless dynamic super
    blocks make every engine but the generic one decline.
    """
    if spec.storage != "memmap-flat":
        return build_oram(spec, config, seed=seed)
    spec = spec.with_updates(
        storage_path=tempfile.mkdtemp(dir=directory), memmap_sync="relaxed"
    )
    oram = build_oram(spec, config, seed=seed)
    if not spec.dynamic_super_blocks:
        orams = oram.orams if isinstance(oram, HierarchicalPathORAM) else [oram]
        assert all(sub._column_engine is not None for sub in orams)
    return oram


def oram_fingerprint(oram):
    """Full observable state of one PathORAM (tree, stash, map, stats)."""
    storage = oram.storage
    tree = tuple(
        tuple((block.address, block.leaf, repr(block.data))
              for block in storage.read_bucket(index))
        for index in range(storage.num_buckets)
    )
    stash = tuple(sorted(
        (block.address, block.leaf, repr(block.data))
        for block in oram._stash.blocks()
    ))
    stats = oram.stats
    return (
        tree,
        stash,
        tuple(oram.position_map.leaves),
        stats.real_accesses,
        stats.dummy_accesses,
        stats.path_reads,
        stats.path_writes,
        stats.blocks_read,
        stats.blocks_written,
        tuple(stats.stash_occupancy_samples),
        oram.max_stash_occupancy,
        storage.occupancy(),
    )


def fingerprint(oram):
    if isinstance(oram, HierarchicalPathORAM):
        return tuple(oram_fingerprint(sub) for sub in oram.orams) + (
            tuple(oram.onchip_position_map.leaves),
            oram.stats.real_accesses,
            oram.stats.dummy_accesses,
        )
    return oram_fingerprint(oram)


def random_trace(working_set: int, length: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, working_set + 1) for _ in range(length)]


class TestFlatAccessMany:
    @pytest.mark.parametrize("storage", STACKS)
    def test_access_many_matches_looped_access(self, storage, tmp_path):
        config = ORAMConfig(
            working_set_blocks=256, z=4, block_bytes=64, stash_capacity=100
        )
        spec = OramSpec(protocol="flat", storage=storage)
        trace = random_trace(256, 1200, seed=3)
        looped = build_stack(spec, config, 7, tmp_path)
        fused = build_stack(spec, config, 7, tmp_path)
        for address in trace:
            looped.access(address)
        result = fused.access_many(trace)
        assert fingerprint(looped) == fingerprint(fused)
        assert looped._rng.getstate() == fused._rng.getstate()
        assert result.accesses == len(trace)

    def test_eviction_heavy_config_stays_identical(self):
        # Z=1 at high utilization forces background-eviction dummy storms;
        # the fused loop must interleave them exactly like the access loop.
        # On ``flat`` both loops run the same path op, so a ``plain``-stack
        # twin driven by looped ``access`` (the generic engine) is the
        # independent reference, for the state and for the adversary's
        # view: the leaf sequence of real and dummy accesses that the CPL
        # attack reads.
        config = ORAMConfig(
            working_set_blocks=512, utilization=0.8, z=1,
            block_bytes=64, stash_capacity=40,
        )
        spec = OramSpec(
            protocol="flat", storage="flat",
            eviction="background", livelock_limit=200_000,
            record_path_trace=True,
        )
        trace = random_trace(512, 2000, seed=6)
        looped = build_oram(spec, config, seed=9)
        fused = build_oram(spec, config, seed=9)
        reference = build_oram(dataclasses.replace(spec, storage="plain"), config, seed=9)
        dummy_total = reference_dummies = 0
        for address in trace:
            dummy_total += looped.access(address).dummy_accesses
            reference_dummies += reference.access(address).dummy_accesses
        result = fused.access_many(trace)
        assert looped.stats.dummy_accesses > 0, "config must exercise eviction"
        assert result.dummy_accesses == dummy_total == reference_dummies
        assert fingerprint(looped) == fingerprint(fused) == fingerprint(reference)
        assert looped._rng.getstate() == fused._rng.getstate() == reference._rng.getstate()
        assert len(fused.path_trace) == len(trace) + fused.stats.dummy_accesses
        assert fused.path_trace == reference.path_trace

    def test_writes_and_found_counts(self):
        config = ORAMConfig(
            working_set_blocks=128, z=4, block_bytes=64, stash_capacity=80
        )
        spec = OramSpec(protocol="flat", storage="flat")
        trace = random_trace(128, 500, seed=2)
        looped = build_oram(spec, config, seed=5)
        fused = build_oram(spec, config, seed=5)
        reference = build_oram(OramSpec(protocol="flat", storage="plain"), config, seed=5)
        found = reference_found = 0
        for address in trace:
            found += looped.access(address, Operation.WRITE, b"payload").found
            reference_found += reference.access(address, Operation.WRITE, b"payload").found
        result = fused.access_many(trace, Operation.WRITE, b"payload")
        assert result == TraceResult(
            accesses=len(trace), found=found, dummy_accesses=result.dummy_accesses
        )
        assert found == reference_found
        assert fingerprint(looped) == fingerprint(fused) == fingerprint(reference)
        assert fused._rng.getstate() == reference._rng.getstate()

    def test_occupancy_recording_matches(self):
        config = ORAMConfig(
            working_set_blocks=256, z=2, block_bytes=64, stash_capacity=None
        )
        spec = OramSpec(protocol="flat", storage="flat", eviction="none")
        trace = random_trace(256, 1500, seed=4)
        looped = build_oram(spec, config, seed=1)
        fused = build_oram(spec, config, seed=1)
        reference = build_oram(dataclasses.replace(spec, storage="plain"), config, seed=1)
        for oram in (looped, fused, reference):
            oram.stats.record_occupancy = True
        for address in trace:
            looped.access(address)
            reference.access(address)
        fused.access_many(trace)
        assert (
            looped.stats.stash_occupancy_samples
            == fused.stats.stash_occupancy_samples
            == reference.stats.stash_occupancy_samples
        )
        assert fingerprint(looped) == fingerprint(fused) == fingerprint(reference)
        assert fused._rng.getstate() == reference._rng.getstate()

    @pytest.mark.parametrize("storage", STACKS)
    def test_invalid_address_raises_before_any_access(self, storage, tmp_path):
        config = ORAMConfig(
            working_set_blocks=64, z=4, block_bytes=64, stash_capacity=60
        )
        spec = OramSpec(protocol="flat", storage=storage)
        oram = build_stack(spec, config, 3, tmp_path)
        with pytest.raises(ConfigurationError):
            oram.access_many([1, 2, 65])
        # Up-front validation: nothing ran.
        assert oram.stats.real_accesses == 0
        assert oram.stats.path_reads == 0

    def test_super_block_config_falls_back_identically(self):
        config = ORAMConfig(
            working_set_blocks=128, z=4, block_bytes=64,
            stash_capacity=100, super_block_size=2,
        )
        spec = OramSpec(protocol="flat", storage="flat")
        trace = random_trace(128, 400, seed=8)
        looped = build_oram(spec, config, seed=2)
        fused = build_oram(spec, config, seed=2)
        for address in trace:
            looped.access(address)
        fused.access_many(trace)
        assert fingerprint(looped) == fingerprint(fused)


def _op_choice_case(case):
    """(spec, config) for one :class:`TestPathOpChoice` case."""
    small = dict(working_set_blocks=256, z=4, block_bytes=64, stash_capacity=100)
    spec = OramSpec(protocol="flat", storage="flat")
    if case == "flat-static":
        return spec, ORAMConfig(super_block_size=4, **small)
    if case == "flat-dynamic":
        return spec.with_updates(dynamic_super_blocks=True), ORAMConfig(**small)
    if case == "flat-17-levels":
        config = ORAMConfig(working_set_blocks=2**15, utilization=0.25, z=1, stash_capacity=40)
        assert config.levels == 17
        return spec, config
    if case != "flat-single":
        spec = spec.with_updates(storage=case)
    return spec, ORAMConfig(**small)


class TestPathOpChoice:
    """``_attach_path_op`` picks one of three ops — classified, column or
    generic — and a restored ORAM picks the same one."""

    @pytest.mark.parametrize(
        ("case", "expected"),
        [
            ("flat-single", "classified"),
            ("flat-static", "generic"),
            ("flat-dynamic", "generic"),
            ("flat-17-levels", "generic"),
            ("plain", "generic"),
            ("encrypted", "generic"),
            ("integrity", "generic"),
            ("memmap-flat", "column"),
        ],
    )
    def test_attach_path_op_picks_one_of_three(self, case, expected, tmp_path):
        if case == "memmap-flat" and case not in storage_backends():
            pytest.skip(f"{case} is not registered (NumPy missing)")
        ops = {"classified": PathORAM._fused_single_access, "generic": PathORAM._access_path}
        if expected == "column":
            from repro.core.numpy_engine import ColumnEngine

            ops["column"] = ColumnEngine._path_op
        spec, config = _op_choice_case(case)
        oram = build_stack(spec, config, 5, tmp_path)
        assert oram._path_op is ops[expected]
        oram.access_many(random_trace(config.working_set_blocks, 50, seed=5))
        restored = PathORAM.restore(oram.snapshot())
        assert restored._path_op is ops[expected]


class TestDeepGroupedFlatTree:
    def test_17_level_static_groups_match_plain_twin(self):
        # A tree too deep for the classified op's lookup tables, with
        # static groups of 4 and background eviction: the generic op reads
        # and writes ``flat`` paths through the storage's own path calls,
        # and must match a ``plain`` twin step for step.
        config = ORAMConfig(
            working_set_blocks=2**15, utilization=0.25, z=1, block_bytes=64,
            super_block_size=4, stash_capacity=26,
        )
        assert config.levels == 17
        spec = OramSpec(protocol="flat", storage="flat", eviction="background")
        flat = build_oram(spec, config, seed=17)
        plain = build_oram(spec.with_updates(storage="plain"), config, seed=17)
        assert flat._path_op is PathORAM._access_path

        def script(oram):
            rng = random.Random(29)
            held: dict[int, object] = {}
            log: list = []
            for step in range(400):
                roll = rng.random()
                address = rng.randrange(1, 2**15 + 1)
                if address in held:
                    log.append(("insert", address, oram.insert(address, held.pop(address))))
                elif roll < 0.4:
                    result = oram.access(address, Operation.WRITE, step)
                    log.append(("write", repr(result.data), result.found, result.dummy_accesses))
                elif roll < 0.6:
                    result = oram.access(address)
                    log.append(("read", repr(result.data), result.found, result.dummy_accesses))
                elif roll < 0.8:
                    trace = [address] + [rng.randrange(1, 2**15 + 1) for _ in range(7)]
                    trace = [a for a in trace if a not in held]
                    result = oram.access_many(trace, Operation.WRITE, step)
                    log.append(("many", result.accesses, result.found, result.dummy_accesses))
                else:
                    extracted = oram.extract(address)
                    log.append(("extract", tuple((a, repr(d)) for a, d in extracted.items())))
                    held.update(extracted)
            for address in sorted(held):
                log.append(("insert", address, oram.insert(address, held[address])))
            return log

        log = script(flat)
        assert log == script(plain)
        assert flat.stats.dummy_accesses > 0
        assert any(entry[0] == "extract" and len(entry[1]) == 4 for entry in log)
        assert fingerprint(flat) == fingerprint(plain)
        assert flat._rng.getstate() == plain._rng.getstate()


class TestHierarchicalAccessMany:
    def _hierarchy(self, z: int = 3, stash_capacity: int = 60) -> HierarchyConfig:
        data = ORAMConfig(
            working_set_blocks=512, z=z, block_bytes=64,
            stash_capacity=stash_capacity,
        )
        return HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=3,
            onchip_position_map_limit_bytes=128,
        )

    @pytest.mark.parametrize("storage", STACKS)
    def test_access_many_matches_looped_access(self, storage, tmp_path):
        hierarchy = self._hierarchy()
        spec = OramSpec(protocol="hierarchical", storage=storage)
        trace = random_trace(512, 800, seed=5)
        looped = build_stack(spec, hierarchy, 7, tmp_path)
        fused = build_stack(spec, hierarchy, 7, tmp_path)
        for address in trace:
            looped.access(address)
        result = fused.access_many(trace)
        assert fingerprint(looped) == fingerprint(fused)
        assert looped._rng.getstate() == fused._rng.getstate()
        assert result.accesses == len(trace)

    @pytest.mark.parametrize("storage", STACKS)
    def test_invalid_address_raises_before_any_access(self, storage, tmp_path):
        spec = OramSpec(protocol="hierarchical", storage=storage)
        oram = build_stack(spec, self._hierarchy(), 3, tmp_path)
        fresh_rng = oram._rng.getstate()
        with pytest.raises(ConfigurationError):
            oram.access_many([1, 2, 513])
        # Up-front validation: no leaf was drawn and no ORAM ran a path op.
        assert oram._rng.getstate() == fresh_rng
        assert oram.stats.real_accesses == 0
        assert all(sub.stats.path_reads == 0 for sub in oram.orams)

    def test_dummy_rounds_interleave_identically(self):
        # A tight data stash triggers hierarchy-wide dummy rounds.
        data = ORAMConfig(
            working_set_blocks=1024, z=2, block_bytes=128, stash_capacity=40
        )
        hierarchy = HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=3,
            onchip_position_map_limit_bytes=256,
        )
        spec = OramSpec(protocol="hierarchical", storage="flat")
        trace = random_trace(1024, 6000, seed=9)
        looped = build_oram(spec, hierarchy, seed=7)
        fused = build_oram(spec, hierarchy, seed=7)
        rounds = 0
        for address in trace:
            rounds += looped.access(address).dummy_accesses
        result = fused.access_many(trace)
        assert looped.stats.dummy_accesses > 0, "config must exercise dummy rounds"
        assert result.dummy_accesses == rounds
        assert fingerprint(looped) == fingerprint(fused)
        assert looped._rng.getstate() == fused._rng.getstate()

    def test_super_block_data_oram_matches(self):
        data = ORAMConfig(
            working_set_blocks=256, z=4, block_bytes=64,
            stash_capacity=100, super_block_size=2,
        )
        hierarchy = HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=3,
            onchip_position_map_limit_bytes=128,
        )
        spec = OramSpec(protocol="hierarchical", storage="flat")
        trace = random_trace(256, 600, seed=4)
        looped = build_oram(spec, hierarchy, seed=6)
        fused = build_oram(spec, hierarchy, seed=6)
        for address in trace:
            looped.access(address)
        fused.access_many(trace)
        assert fingerprint(looped) == fingerprint(fused)


class TestColumnEngineDifferential:
    """The column-native engine must be bit-identical to the *list-backed*
    flat stack — not merely self-consistent: same tree layout (within-bucket
    order included, via ``read_bucket``), same stash contents, same RNG
    stream, same statistics.  These tests replay one trace on twin ORAMs
    that differ only in storage stack (``flat`` vs the column engine's
    ``memmap-flat``) and compare full fingerprints."""

    @pytest.fixture(autouse=True)
    def _column_directory(self, tmp_path):
        pytest.importorskip("numpy")
        self.directory = tmp_path

    def _twins(self, config, seed, **spec_kwargs):
        return [
            build_stack(OramSpec(storage=storage, **spec_kwargs), config, seed, self.directory)
            for storage in ("flat", "memmap-flat")
        ]

    def test_reads_bit_identical_to_list_backed_stack(self):
        config = ORAMConfig(
            working_set_blocks=256, z=4, block_bytes=64, stash_capacity=100
        )
        trace = random_trace(256, 1500, seed=3)
        flat, columnar = self._twins(config, seed=7)
        flat.access_many(trace)
        columnar.access_many(trace)
        assert fingerprint(flat) == fingerprint(columnar)
        assert flat._rng.getstate() == columnar._rng.getstate()

    def test_writes_and_payload_column_bit_identical(self):
        config = ORAMConfig(
            working_set_blocks=128, z=4, block_bytes=64, stash_capacity=80
        )
        trace = random_trace(128, 600, seed=2)
        flat, columnar = self._twins(config, seed=5)
        r1 = flat.access_many(trace, Operation.WRITE, b"payload")
        r2 = columnar.access_many(trace, Operation.WRITE, b"payload")
        assert r1 == r2
        assert fingerprint(flat) == fingerprint(columnar)
        # the write flipped the stack's payload column on
        assert columnar.storage.has_payloads

    def test_eviction_storm_bit_identical(self):
        # Z=1 at high utilization: constant spills into the stash and
        # background-eviction dummy storms exercise the engine's stash
        # boundary (spill materialisation, stash placement, dummy ops).
        config = ORAMConfig(
            working_set_blocks=512, utilization=0.8, z=1,
            block_bytes=64, stash_capacity=40,
        )
        trace = random_trace(512, 2000, seed=6)
        orams = self._twins(
            config, seed=9, eviction="background", livelock_limit=200_000
        )
        results = [oram.access_many(trace) for oram in orams]
        assert orams[0].stats.dummy_accesses > 0, "config must exercise eviction"
        assert results[0] == results[1]
        assert fingerprint(orams[0]) == fingerprint(orams[1])
        assert orams[0]._rng.getstate() == orams[1]._rng.getstate()

    def test_occupancy_recording_bit_identical(self):
        config = ORAMConfig(
            working_set_blocks=256, z=2, block_bytes=64, stash_capacity=None
        )
        trace = random_trace(256, 1000, seed=4)
        orams = self._twins(config, seed=1, eviction="none")
        for oram in orams:
            oram.stats.record_occupancy = True
            oram.access_many(trace)
        assert (
            orams[0].stats.stash_occupancy_samples
            == orams[1].stats.stash_occupancy_samples
        )
        assert fingerprint(orams[0]) == fingerprint(orams[1])

    def test_hierarchical_chain_bit_identical(self):
        data = ORAMConfig(
            working_set_blocks=512, z=3, block_bytes=64, stash_capacity=60
        )
        hierarchy = HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=3,
            onchip_position_map_limit_bytes=128,
        )
        trace = random_trace(512, 800, seed=5)
        orams = self._twins(hierarchy, seed=7, protocol="hierarchical")
        for oram in orams:
            oram.access_many(trace)
        assert fingerprint(orams[0]) == fingerprint(orams[1])
        assert orams[0]._rng.getstate() == orams[1]._rng.getstate()

    def test_single_access_paths_bit_identical(self):
        # The engine also backs access(), dummy_access() and the recursive
        # chain's per-level op outside access_many.
        config = ORAMConfig(
            working_set_blocks=128, z=4, block_bytes=64, stash_capacity=100
        )
        flat, columnar = self._twins(config, seed=11)
        trace = random_trace(128, 300, seed=9)
        for address in trace:
            flat.access(address)
            columnar.access(address)
        flat.dummy_access()
        columnar.dummy_access()
        assert fingerprint(flat) == fingerprint(columnar)
        assert flat._rng.getstate() == columnar._rng.getstate()


def _local_trace(working_set: int, length: int, seed: int) -> list[int]:
    """Sequential runs with occasional jumps — position-map locality."""
    rng = random.Random(seed)
    address = rng.randrange(1, working_set + 1)
    trace = []
    for _ in range(length):
        if rng.random() < 0.1:
            address = rng.randrange(1, working_set + 1)
        else:
            address = address % working_set + 1
        trace.append(address)
    return trace


class TestChainCoalescing:
    """Position-map path-op coalescing through a capacity-1 PLB: fewer
    physical ops, same results."""

    def _hierarchy(self) -> HierarchyConfig:
        data = ORAMConfig(
            working_set_blocks=512, z=3, block_bytes=64, stash_capacity=60
        )
        return HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=3,
            onchip_position_map_limit_bytes=128,
        )

    @pytest.mark.parametrize("storage", STACKS)
    def test_coalescing_reduces_ops_with_unchanged_results(self, storage, tmp_path):
        hierarchy = self._hierarchy()
        trace = _local_trace(512, 2500, seed=4)
        payload = {address: bytes([address % 256]) for address in set(trace)}
        plain = build_stack(
            OramSpec(protocol="hierarchical", storage=storage), hierarchy, 6, tmp_path
        )
        coalescing = build_stack(
            OramSpec(
                protocol="hierarchical", storage=storage,
                plb_entries_per_level=1,
            ),
            hierarchy,
            6,
            tmp_path,
        )
        if storage in ("plain", "encrypted"):
            # Stacks without a fused chain op (the reference list-of-lists
            # storage, serialising storages) fall back to per-access
            # semantics: nothing coalesces.
            coalescing.access_many(trace)
            assert sum(o.stats.coalesced_ops for o in coalescing.orams) == 0
            return
        plain_results = [
            plain.access_many(trace[:1250]),
            plain.access_many(trace[1250:], Operation.WRITE, b"x"),
        ]
        coalesced_results = [
            coalescing.access_many(trace[:1250]),
            coalescing.access_many(trace[1250:], Operation.WRITE, b"x"),
        ]
        # Same logical outcome...
        assert [ (r.accesses, r.found) for r in plain_results ] == [
            (r.accesses, r.found) for r in coalesced_results
        ]
        # ...from measurably fewer position-map path operations.  The
        # per-ORAM real-access counters count exactly the chain's physical
        # ops (dummy-eviction rounds land in dummy_accesses, which may
        # legitimately differ between the two runs), so the saved ops
        # match the coalesced counter exactly.
        coalesced = sum(o.stats.coalesced_ops for o in coalescing.orams)
        assert coalesced > 0
        plain_pm_ops = sum(o.stats.real_accesses for o in plain.orams[1:])
        coal_pm_ops = sum(o.stats.real_accesses for o in coalescing.orams[1:])
        assert plain_pm_ops - coal_pm_ops == coalesced
        # Data-ORAM ops are never coalesced.
        assert plain.orams[0].stats.coalesced_ops == 0
        assert coalescing.orams[0].stats.real_accesses >= len(trace)
        # Block conservation against the non-coalescing twin: every ORAM
        # holds the same number of real blocks either way.
        for plain_oram, coal_oram in zip(plain.orams, coalescing.orams):
            assert (
                coal_oram.stash_occupancy + coal_oram.storage.occupancy()
                == plain_oram.stash_occupancy + plain_oram.storage.occupancy()
            )
        for address in sorted(payload):
            assert (
                coalescing.read(address).data == plain.read(address).data
            )

    def test_coalescing_is_off_by_default(self):
        hierarchy = self._hierarchy()
        oram = build_oram(
            OramSpec(protocol="hierarchical", storage="flat"), hierarchy, seed=2
        )
        assert oram.plb_entries_per_level == 0 and oram.plb is None
        oram.access_many(_local_trace(512, 600, seed=1))
        assert sum(o.stats.coalesced_ops for o in oram.orams) == 0


class TestReferenceCycles:
    """A dropped ORAM must be freed by reference counting alone.  A
    self-reference, such as a stored bound method, keeps the whole tree
    alive until the cyclic collector runs, which raises peak memory in
    sweeps that build one ORAM after another."""

    @pytest.mark.parametrize("protocol", ["flat", "hierarchical"])
    @pytest.mark.parametrize("storage", STACKS)
    def test_dropped_oram_is_freed_without_the_cycle_collector(
        self, storage, protocol, tmp_path
    ):
        config = ORAMConfig(working_set_blocks=256, z=4, block_bytes=64, stash_capacity=100)
        if protocol == "hierarchical":
            config = HierarchyConfig(
                data_oram=config,
                position_map_block_bytes=8,
                position_map_z=3,
                onchip_position_map_limit_bytes=64,
            )
        spec = OramSpec(protocol=protocol, storage=storage, plb_entries_per_level=0)
        gc.disable()
        try:
            oram = build_stack(spec, config, 1, tmp_path)
            oram.access_many(random_trace(256, 200, seed=1))
            orams = oram.orams if protocol == "hierarchical" else ()
            dropped = [weakref.ref(obj) for obj in (oram, *orams)]
            del oram, orams
            assert all(ref() is None for ref in dropped)
        finally:
            gc.enable()

