"""PosMap Lookaside Buffer: fewer position-map ops, identical behaviour.

The PLB is a bounded LRU over recent position-map block labels.  Serving
a hit leaves the cached block unmoved in its ORAM (no path op, no remap),
so its own label at the level above stays accurate — nothing above the hit
level needs touching.  These tests pin the load-bearing invariants:

* logical results, payload contents and the data ORAM's full state are
  independent of the PLB capacity (the buffer only shrinks the chain's
  physical op sequence);
* the RNG stream is untouched by the hit path (fresh leaves are drawn
  upfront at every level on hit and miss alike);
* capacity 0 reproduces the uncached baseline bit-for-bit;
* the looped ``access`` path and the fused ``access_many`` path agree
  with the PLB on;
* dynamic super-block cohort moves invalidate cached labels (the stale
  -label regression the coherence hooks exist for);
* the compressed position-map layout shrinks the chain without changing
  logical results.
"""

import itertools
import random
from dataclasses import replace

import pytest

from repro.backends import OramSpec, build_oram, storage_backends
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.plb import PosMapLookaside
from repro.core.types import Operation
from repro.errors import ConfigurationError
from tests.test_access_many import build_stack, fingerprint, oram_fingerprint, random_trace

STACKS = [
    name
    for name in ("flat", "plain", "encrypted", "memmap-flat")
    if name in storage_backends()
]

#: Stacks with a fused chain op (live label-list references) — the only
#: ones the PLB engages on; the generic stacks stay inert.
FUSED_STACKS = [name for name in STACKS if name in ("flat", "memmap-flat")]

DYNAMIC_KNOBS = dict(
    dynamic_super_blocks=True,
    super_block_window=64,
    super_block_merge_threshold=1,
    super_block_split_threshold=3,
    super_block_max_size=4,
)


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


def _hierarchy(z: int = 3, stash_capacity: int | None = 60,
               working_set: int = 512) -> HierarchyConfig:
    data = ORAMConfig(
        working_set_blocks=working_set, z=z, block_bytes=64,
        stash_capacity=stash_capacity,
    )
    return HierarchyConfig(
        data_oram=data,
        position_map_block_bytes=8,
        position_map_z=3,
        onchip_position_map_limit_bytes=128,
    )


def _spec(**kwargs) -> OramSpec:
    return OramSpec(protocol="hierarchical", storage="flat", **kwargs)


class TestLookasideUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PosMapLookaside(3, 0)

    def test_lru_eviction_order(self):
        plb = PosMapLookaside(2, 2)
        plb.install(1, 10, [1])
        plb.install(1, 20, [2])
        assert plb.lookup(1, 10) == [1]  # promotes 10 over 20
        plb.install(1, 30, [3])  # evicts 20, the LRU entry
        assert plb.lookup(1, 20) is None
        assert plb.lookup(1, 10) == [1]
        assert plb.lookup(1, 30) == [3]
        assert plb.hits == 3 and plb.misses == 1

    def test_reinstall_refreshes_without_eviction(self):
        plb = PosMapLookaside(2, 2)
        plb.install(1, 10, [1])
        plb.install(1, 20, [2])
        plb.install(1, 10, [9])  # refresh, nothing evicted
        assert plb.lookup(1, 20) == [2]
        assert plb.lookup(1, 10) == [9]

    def test_invalidate_and_range(self):
        plb = PosMapLookaside(2, 4)
        for block in (1, 2, 3, 4):
            plb.install(1, block, [block])
        plb.invalidate(1, 2)
        plb.invalidate(1, 99)  # absent: no-op
        plb.invalidate_range(1, 3, 4)
        assert plb.lookup(1, 1) == [1]
        for block in (2, 3, 4):
            assert plb.lookup(1, block) is None

    def test_clear_drops_everything_keeps_counters(self):
        plb = PosMapLookaside(3, 2)
        plb.install(1, 1, [1])
        plb.install(2, 1, [2])
        plb.lookup(1, 1)
        plb.clear()
        assert plb.lookup(1, 1) is None
        assert plb.lookup(2, 1) is None
        assert plb.hits == 1


class TestSpecValidation:
    def test_flat_spec_rejects_plb(self):
        with pytest.raises(ConfigurationError):
            OramSpec(protocol="flat", plb_entries_per_level=4)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(plb_entries_per_level=-1)

    def test_plb_composes_with_dynamic_super_blocks(self):
        # The PLB serves the per-level walk too, so the combination is
        # legal.
        spec = _spec(plb_entries_per_level=4, **DYNAMIC_KNOBS)
        oram = build_oram(spec, _hierarchy(), seed=3)
        assert oram.plb_active

    def test_plb_off_by_default(self):
        oram = build_oram(_spec(), _hierarchy(), seed=2)
        assert oram.plb is None
        assert not oram.plb_active
        assert oram.plb_entries_per_level == 0


class TestPlbDifferential:
    @pytest.mark.parametrize("storage", STACKS)
    def test_plb_reduces_ops_with_unchanged_results(self, storage, tmp_path):
        hierarchy = _hierarchy()
        trace = _local_trace(512, 2500, seed=4)
        payload = {address: bytes([address % 256]) for address in set(trace)}
        plain = build_stack(
            OramSpec(protocol="hierarchical", storage=storage), hierarchy, 6, tmp_path
        )
        cached = build_stack(
            OramSpec(
                protocol="hierarchical", storage=storage,
                plb_entries_per_level=8,
            ),
            hierarchy,
            6,
            tmp_path,
        )
        if storage in ("plain", "encrypted"):
            # No fused chain op, no live label references: the PLB stays
            # inert on these stacks.
            assert not cached.plb_active
            cached.access_many(trace)
            assert sum(o.stats.plb_hits for o in cached.orams) == 0
            return
        plain_results = [
            plain.access_many(trace[:1250]),
            plain.access_many(trace[1250:], Operation.WRITE, b"x"),
        ]
        cached_results = [
            cached.access_many(trace[:1250]),
            cached.access_many(trace[1250:], Operation.WRITE, b"x"),
        ]
        assert [(r.accesses, r.found) for r in plain_results] == [
            (r.accesses, r.found) for r in cached_results
        ]
        # Every PLB hit is a saved position-map path op, and the per-ORAM
        # counters agree with the object-level counters.
        plb = cached.plb
        coalesced = sum(o.stats.coalesced_ops for o in cached.orams)
        hits = sum(o.stats.plb_hits for o in cached.orams)
        misses = sum(o.stats.plb_misses for o in cached.orams)
        assert hits > 0
        assert coalesced >= hits
        assert (plb.hits, plb.misses) == (hits, misses)
        plain_pm_ops = sum(o.stats.real_accesses for o in plain.orams[1:])
        cached_pm_ops = sum(o.stats.real_accesses for o in cached.orams[1:])
        assert plain_pm_ops - cached_pm_ops == coalesced
        assert cached_pm_ops == misses
        # The data ORAM sees the identical access sequence either way.
        assert plain.orams[0].stats.plb_hits == 0
        assert oram_fingerprint(plain.orams[0]) == oram_fingerprint(cached.orams[0])
        # Block conservation per ORAM against the uncached twin.
        for plain_oram, cached_oram in zip(plain.orams, cached.orams):
            assert (
                cached_oram.stash_occupancy + cached_oram.storage.occupancy()
                == plain_oram.stash_occupancy + plain_oram.storage.occupancy()
            )
        for address in sorted(payload):
            assert cached.read(address).data == plain.read(address).data

    @pytest.mark.parametrize("storage", FUSED_STACKS)
    def test_rng_stream_untouched_by_hit_path(self, storage, tmp_path):
        # Fresh leaves are drawn upfront at every level on hit and miss
        # alike, so the RNG stream is capacity-independent.  Unbounded
        # stashes: no pressure-driven draws that could depend on op counts.
        hierarchy = _hierarchy(stash_capacity=None)
        trace = _local_trace(512, 1500, seed=8)
        spec = OramSpec(protocol="hierarchical", storage=storage)
        orams = [
            build_stack(
                spec.with_updates(plb_entries_per_level=capacity), hierarchy, 9, tmp_path
            )
            for capacity in (0, 1, 4, 8)
        ]
        founds = []
        for oram in orams:
            founds.append(oram.access_many(trace).found)
        assert len(set(founds)) == 1
        baseline = orams[0]
        for oram in orams[1:]:
            assert oram._rng.getstate() == baseline._rng.getstate()
            assert oram_fingerprint(oram.orams[0]) == oram_fingerprint(
                baseline.orams[0]
            )
        # Larger capacities never hit less.
        hit_counts = [sum(o.stats.plb_hits for o in oram.orams) for oram in orams]
        assert hit_counts[0] == 0
        assert hit_counts == sorted(hit_counts)
        assert hit_counts[-1] > 0

    @pytest.mark.parametrize("storage", FUSED_STACKS)
    def test_looped_access_matches_access_many(self, storage, tmp_path):
        # With the PLB on, the per-access chain walk and the fused batch
        # walk share one cache and stay bit-identical.
        hierarchy = _hierarchy()
        spec = OramSpec(
            protocol="hierarchical", storage=storage, plb_entries_per_level=8
        )
        trace = _local_trace(512, 900, seed=5)
        looped = build_stack(spec, hierarchy, 7, tmp_path)
        fused = build_stack(spec, hierarchy, 7, tmp_path)
        for address in trace:
            looped.access(address)
        fused.access_many(trace)
        assert fingerprint(looped) == fingerprint(fused)
        assert looped._rng.getstate() == fused._rng.getstate()
        assert sum(o.stats.plb_hits for o in looped.orams) == sum(
            o.stats.plb_hits for o in fused.orams
        )
        assert sum(o.stats.plb_hits for o in fused.orams) > 0

    @pytest.mark.parametrize("capacity", [0, 8])
    def test_looped_data_step_runs_the_classified_op(self, capacity, monkeypatch):
        # On ``flat`` every level of the chain, the data ORAM included,
        # runs the classified list op: looped ``access`` must never fall
        # back to the generic engine's op, and must stay bit-identical to
        # ``access_many`` over the same mixed read/write stream.
        generic_calls = []
        generic_op = PathORAM._access_path

        def spy(self, *args):
            generic_calls.append(args[0])
            return generic_op(self, *args)

        monkeypatch.setattr(PathORAM, "_access_path", spy)
        hierarchy = _hierarchy()
        spec = _spec(plb_entries_per_level=capacity)
        rng = random.Random(21)
        stream = [
            (address, Operation.WRITE if rng.random() < 0.3 else Operation.READ)
            for address in _local_trace(512, 1200, seed=3)
        ]
        looped = build_oram(spec, hierarchy, seed=8)
        fused = build_oram(spec, hierarchy, seed=8)
        for address, op in stream:
            looped.access(address, op, b"w")
        for op, run in itertools.groupby(stream, key=lambda item: item[1]):
            fused.access_many([address for address, _ in run], op, b"w")
        assert generic_calls == []
        assert fingerprint(looped) == fingerprint(fused)
        assert looped._rng.getstate() == fused._rng.getstate()
        if capacity:
            assert sum(o.stats.plb_hits for o in looped.orams) > 0

    def test_plb_off_matches_baseline_bit_identical(self):
        hierarchy = _hierarchy()
        trace = random_trace(512, 800, seed=5)
        baseline = build_oram(_spec(), hierarchy, seed=7)
        plb_off = build_oram(_spec(plb_entries_per_level=0), hierarchy, seed=7)
        baseline.access_many(trace)
        plb_off.access_many(trace)
        assert fingerprint(baseline) == fingerprint(plb_off)
        assert baseline._rng.getstate() == plb_off._rng.getstate()

    def test_eviction_storm_keeps_results_identical(self):
        # A tight data stash forces hierarchy-wide dummy rounds; the PLB
        # must not disturb the data ORAM's trigger sequence.
        data = ORAMConfig(
            working_set_blocks=1024, z=2, block_bytes=128, stash_capacity=40
        )
        hierarchy = HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=3,
            onchip_position_map_limit_bytes=256,
        )
        trace = random_trace(1024, 6000, seed=9)
        plain = build_oram(_spec(), hierarchy, seed=7)
        cached = build_oram(_spec(plb_entries_per_level=8), hierarchy, seed=7)
        plain_result = plain.access_many(trace)
        cached_result = cached.access_many(trace)
        assert plain.stats.dummy_accesses > 0, "config must exercise dummy rounds"
        assert (plain_result.accesses, plain_result.found) == (
            cached_result.accesses,
            cached_result.found,
        )
        assert sum(o.stats.plb_hits for o in cached.orams) > 0
        for plain_oram, cached_oram in zip(plain.orams, cached.orams):
            assert (
                cached_oram.stash_occupancy + cached_oram.storage.occupancy()
                == plain_oram.stash_occupancy + plain_oram.storage.occupancy()
            )


def _merge_trace(working_set: int, length: int, seed: int) -> list[int]:
    """Sequential runs mixed with uniform accesses (merge-friendly)."""
    rng = random.Random(seed)
    trace = []
    while len(trace) < length:
        if rng.random() < 0.7:
            start = rng.randrange(1, max(2, working_set - 4))
            trace.extend(range(start, start + 4))
        else:
            trace.append(rng.randrange(1, working_set + 1))
    return trace[:length]


class TestDynamicSuperBlockInteraction:
    """Cohort moves retarget data blocks behind the chain's back; the
    invalidation hooks must drop every cached label they touch.  Before
    the hooks, a cached position-map block could keep serving the
    pre-move leaf — a stale label makes the data lookup miss (or worse),
    so payload divergence from the uncached twin is the regression
    signal."""

    @pytest.mark.parametrize("capacity", [1, 8])
    def test_cohort_moves_never_serve_stale_labels(self, capacity):
        hierarchy = _hierarchy(stash_capacity=200)
        trace = _merge_trace(512, 3000, seed=11)
        payload = {address: bytes([address % 251]) for address in set(trace)}
        plain = build_oram(_spec(**DYNAMIC_KNOBS), hierarchy, seed=13)
        cached = build_oram(
            _spec(plb_entries_per_level=capacity, **DYNAMIC_KNOBS),
            hierarchy,
            seed=13,
        )
        assert cached.plb_active
        plain_found = cached_found = 0
        for address in trace:
            plain_found += plain.access(address, Operation.WRITE, payload[address]).found
            cached_found += cached.access(
                address, Operation.WRITE, payload[address]
            ).found
        # The stale-label failure mode is a missed lookup: found parity
        # plus full payload read-back pin the coherence hooks.
        assert plain_found == cached_found
        assert plain.data_oram.stats.super_block_merges > 0, (
            "trace must exercise cohort moves"
        )
        assert sum(o.stats.plb_hits for o in cached.orams) > 0
        for address in sorted(payload):
            assert cached.read(address).data == payload[address]

    def test_access_many_and_extract_stay_coherent(self, capacity=4):
        hierarchy = _hierarchy(stash_capacity=200)
        trace = _merge_trace(512, 2000, seed=17)
        plain = build_oram(_spec(**DYNAMIC_KNOBS), hierarchy, seed=19)
        cached = build_oram(
            _spec(plb_entries_per_level=capacity, **DYNAMIC_KNOBS),
            hierarchy,
            seed=19,
        )
        plain_result = plain.access_many(trace)
        cached_result = cached.access_many(trace)
        assert (plain_result.accesses, plain_result.found) == (
            cached_result.accesses,
            cached_result.found,
        )
        assert plain.data_oram.stats.super_block_merges > 0
        # extract() retargets the survivors of a split cohort; the next
        # access must see the fresh labels.
        victims = sorted(set(trace))[:32]
        for address in victims:
            assert (cached.extract(address) is None) == (
                plain.extract(address) is None
            )
        replay = [a for a in trace if a not in set(victims)][:400]
        assert cached.access_many(replay).found == plain.access_many(replay).found


class TestCompressedPositionMap:
    def test_compressed_layout_shrinks_chain(self):
        data = ORAMConfig(
            working_set_blocks=4096, z=3, block_bytes=64, stash_capacity=60
        )
        hierarchy = HierarchyConfig(
            data_oram=data,
            position_map_block_bytes=8,
            position_map_z=3,
            onchip_position_map_limit_bytes=64,
        )
        plain = build_oram(_spec(), hierarchy, seed=3)
        compressed = build_oram(
            _spec(), replace(hierarchy, compressed_position_map=True), seed=3
        )
        assert compressed.num_orams < plain.num_orams

    def test_compressed_results_match_uncompressed(self):
        hierarchy = _hierarchy(working_set=1024)
        trace = _local_trace(1024, 1200, seed=6)
        payload = {address: bytes([address % 256]) for address in set(trace)}
        plain = build_oram(_spec(), hierarchy, seed=8)
        compressed = build_oram(
            _spec(plb_entries_per_level=4),
            replace(hierarchy, compressed_position_map=True),
            seed=8,
        )
        plain_found = sum(
            plain.access(a, Operation.WRITE, payload[a]).found for a in trace
        )
        compressed_found = sum(
            compressed.access(a, Operation.WRITE, payload[a]).found for a in trace
        )
        # found depends only on the address history, not the chain depth.
        assert plain_found == compressed_found
        for address in sorted(payload):
            assert compressed.read(address).data == payload[address]

    def test_config_packs_more_labels_per_block(self):
        hierarchy = _hierarchy(working_set=4096)
        packed = replace(hierarchy, compressed_position_map=True)
        child = hierarchy.data_oram
        assert packed.labels_per_position_block(
            child
        ) >= hierarchy.labels_per_position_block(child)


class TestChainCounters:
    def test_plb_counters_are_consistent(self):
        # The PLB only removes position-map path ops: every skipped op is
        # a coalesced op, every remaining one is a PLB miss.
        hierarchy = _hierarchy()
        working_set = hierarchy.data_oram.working_set_blocks
        trace = [index % working_set + 1 for index in range(600)]
        counters = {}
        for entries in (0, 8):
            oram = build_oram(_spec(plb_entries_per_level=entries), hierarchy, seed=0)
            oram.access_many(trace)
            assert oram.stats.real_accesses == len(trace)
            pm = [sub.stats for sub in oram.orams[1:]]
            counters[entries] = {
                name: sum(getattr(stats, name) for stats in pm)
                for name in ("real_accesses", "plb_hits", "plb_misses", "coalesced_ops")
            }
        base, cached = counters[0], counters[8]
        assert base["plb_hits"] == 0 and base["coalesced_ops"] == 0
        assert cached["plb_hits"] > 0 and cached["coalesced_ops"] > 0
        assert base["real_accesses"] - cached["real_accesses"] == cached["coalesced_ops"]
        assert cached["real_accesses"] == cached["plb_misses"]
        hit_rate = cached["plb_hits"] / (cached["plb_hits"] + cached["plb_misses"])
        assert 0.0 < hit_rate <= 1.0
