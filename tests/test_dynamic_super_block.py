"""Dynamic super-block merging: mapper policy, protocol and reproducibility.

The dynamic mapper implements the runtime merging the paper leaves as
future work (Section 3.2).  These tests pin

* the buddy-system policy itself (merge on co-access, split on cold
  halves, size bounds, address-space boundaries, determinism),
* the protocol invariants with merging active — exactly one path read and
  one path write per logical access, no duplicated or lost blocks through
  merge/split churn, every written payload readable,
* differential equality across the Plain/Flat/Encrypted/memmap-flat
  storage stacks on both protocols,
* serial == multiprocessing bit-reproducibility through the experiment
  runner (the sweep and SPEC-replay axes), and
* the :class:`SuperBlockMapper` contracts — the ``num_groups`` /
  ``addresses_in_group`` / ``group_span`` edge cases at the address-space
  boundary and for negative groups.
"""

import random

import pytest

from repro.backends import OramSpec, build_oram, storage_backends
from repro.core.background_eviction import EvictionPolicy
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.interface import ORAMMemoryInterface
from repro.core.path_oram import PathORAM
from repro.core.super_block import DynamicSuperBlockMapper, StaticSuperBlockMapper
from repro.core.types import Operation
from repro.errors import ConfigurationError
from tests.test_access_many import build_stack

STACKS = [
    name
    for name in ("flat", "plain", "encrypted", "memmap-flat")
    if name in storage_backends()
]

DYNAMIC_KNOBS = dict(
    dynamic_super_blocks=True,
    super_block_window=64,
    super_block_merge_threshold=1,
    super_block_split_threshold=3,
    super_block_max_size=4,
)


def locality_trace(rng, working_set, length, run_length=4, run_fraction=0.7):
    """Sequential runs mixed with uniform accesses (merge-friendly)."""
    trace = []
    while len(trace) < length:
        if rng.random() < run_fraction:
            start = rng.randrange(1, max(2, working_set - run_length))
            trace.extend(range(start, start + run_length))
        else:
            trace.append(rng.randrange(1, working_set + 1))
    return trace[:length]


def state_fingerprint(oram: PathORAM):
    """Observable state of one PathORAM: tree, stash, map, statistics."""
    storage = oram.storage
    tree = tuple(
        tuple(
            (block.address, block.leaf, repr(block.data))
            for block in storage.read_bucket(index)
        )
        for index in range(storage.num_buckets)
    )
    stash = tuple(
        sorted((block.address, block.leaf, repr(block.data)) for block in oram._stash.blocks())
    )
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
        stats.super_block_merges,
        stats.super_block_splits,
        stats.super_block_hits,
        storage.occupancy(),
    )


# ----------------------------------------------------------------------
# The mapper policy
# ----------------------------------------------------------------------
class TestDynamicMapperPolicy:
    def bound_mapper(self, n=64, **kwargs):
        knobs = dict(max_group_size=4, window=16, merge_threshold=1, split_threshold=2)
        knobs.update(kwargs)
        mapper = DynamicSuperBlockMapper(**knobs)
        mapper.bind(n)
        return mapper

    def test_starts_all_singletons(self):
        mapper = self.bound_mapper(8)
        assert list(mapper.iter_groups()) == [(a, 1) for a in range(1, 9)]
        assert mapper.group_of(5) == 4
        assert mapper.group_span(4) == (5, 6)
        assert mapper.addresses_in_group(4) == [5]

    def test_buddies_merge_on_co_access(self):
        mapper = self.bound_mapper(8)
        leaves = list(range(8))
        plan = mapper.plan_access(1, leaves[0], leaves)
        assert not plan.merged
        plan = mapper.plan_access(2, leaves[1], leaves)
        assert plan.merged and (plan.lo, plan.hi) == (1, 3)
        # The merged group settles on the buddy's (address 1's) leaf.
        assert plan.target_leaf == leaves[0]
        assert mapper.group_span(0) == (1, 3)
        assert mapper.group_span(1) == (1, 3)
        assert mapper.addresses_in_group(1) == [1, 2]

    def test_merge_is_buddy_aligned(self):
        # 2 and 3 are adjacent but not buddies (buddy pairs are {1,2} and
        # {3,4}); co-accessing them must not merge.
        mapper = self.bound_mapper(8)
        leaves = list(range(8))
        mapper.plan_access(2, leaves[1], leaves)
        plan = mapper.plan_access(3, leaves[2], leaves)
        assert not plan.merged

    def test_groups_grow_to_max_size_and_no_further(self):
        mapper = self.bound_mapper(16, max_group_size=4)
        leaves = [0] * 16
        for _ in range(4):
            for address in range(1, 9):
                mapper.plan_access(address, leaves[address - 1], leaves)
        sizes = dict(mapper.iter_groups())
        assert sizes.get(1) == 4 and sizes.get(5) == 4
        assert max(sizes.values()) <= 4

    def test_split_on_cold_half(self):
        mapper = self.bound_mapper(8, window=4, split_threshold=2)
        leaves = [0] * 8
        mapper.plan_access(1, 0, leaves)
        plan = mapper.plan_access(2, 0, leaves)
        assert plan.merged
        # Hammer the low half until the high half's counter decays to zero.
        split = False
        for _ in range(40):
            plan = mapper.plan_access(1, 0, leaves)
            if plan.split:
                split = True
                break
        assert split
        assert mapper.group_span(0) == (1, 2)
        assert mapper.group_span(1) == (2, 3)

    def test_boundary_buddy_outside_address_space_never_merges(self):
        # n = 6: the pair {5,6} can form, but growing it to {5..8} would
        # reach past the working set; the mapper must refuse.
        mapper = self.bound_mapper(6)
        leaves = [0] * 6
        for _ in range(8):
            for address in (5, 6):
                mapper.plan_access(address, 0, leaves)
        sizes = dict(mapper.iter_groups())
        assert sizes.get(5) == 2
        assert all(hi <= 7 for _, hi in (mapper.group_span(g) for g in range(6)))

    def test_odd_working_set_tail_singleton(self):
        # n = 5: address 5's buddy {6} does not exist; 5 stays singleton.
        mapper = self.bound_mapper(5)
        leaves = [0] * 5
        for _ in range(8):
            mapper.plan_access(5, 0, leaves)
        assert dict(mapper.iter_groups())[5] == 1

    def test_deterministic_partition(self):
        rng = random.Random(31)
        trace = locality_trace(rng, 32, 400)
        partitions = []
        for _ in range(2):
            mapper = self.bound_mapper(32)
            leaves = list(range(32))
            for address in trace:
                mapper.plan_access(address, leaves[address - 1], leaves)
            partitions.append(list(mapper.iter_groups()))
        assert partitions[0] == partitions[1]

    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicSuperBlockMapper(max_group_size=3)
        with pytest.raises(ConfigurationError):
            DynamicSuperBlockMapper(max_group_size=1)
        with pytest.raises(ConfigurationError):
            DynamicSuperBlockMapper(window=0)
        with pytest.raises(ConfigurationError):
            DynamicSuperBlockMapper(merge_threshold=0)
        with pytest.raises(ConfigurationError):
            DynamicSuperBlockMapper(split_threshold=0)

    def test_unbound_and_rebind_errors(self):
        mapper = DynamicSuperBlockMapper()
        with pytest.raises(ConfigurationError):
            mapper.group_span(0)
        with pytest.raises(ConfigurationError):
            mapper.plan_access(1, 0, [0])
        mapper.bind(8)
        mapper.bind(8)  # idempotent
        with pytest.raises(ConfigurationError):
            mapper.bind(9)

    def test_out_of_range_addresses(self):
        mapper = self.bound_mapper(8)
        with pytest.raises(ConfigurationError):
            mapper.plan_access(0, 0, [0] * 8)
        with pytest.raises(ConfigurationError):
            mapper.plan_access(9, 0, [0] * 8)
        with pytest.raises(ConfigurationError):
            mapper.group_of(0)
        with pytest.raises(ConfigurationError):
            mapper.group_span(-1)


# ----------------------------------------------------------------------
# Protocol invariants with merging active
# ----------------------------------------------------------------------
class TestDynamicProtocol:
    def build(
        self,
        storage="flat",
        eviction="none",
        working_set=192,
        stash_capacity=None,
        seed=7,
        **overrides,
    ):
        knobs = dict(DYNAMIC_KNOBS)
        knobs.update(overrides)
        spec = OramSpec(protocol="flat", storage=storage, eviction=eviction, **knobs)
        config = ORAMConfig(
            working_set_blocks=working_set,
            utilization=0.5,
            z=4,
            block_bytes=32,
            stash_capacity=stash_capacity,
            name="dyn-test",
        )
        return build_oram(spec, config, seed=seed)

    def test_one_path_op_per_logical_access(self):
        oram = self.build()
        trace = locality_trace(random.Random(3), 192, 600)
        oram.access_many(trace)
        stats = oram.stats
        assert stats.super_block_merges > 0  # merging actually engaged
        assert stats.path_reads == len(trace)
        assert stats.path_writes == len(trace)
        assert stats.real_accesses == len(trace)

    def test_group_sizes_bounded_and_spans_contiguous(self):
        oram = self.build(super_block_max_size=4)
        trace = locality_trace(random.Random(5), 192, 800)
        oram.access_many(trace)
        mapper = oram.super_block_mapper
        covered = 0
        for leader, size in mapper.iter_groups():
            assert 1 <= size <= 4
            lo, hi = mapper.group_span(leader - 1)
            assert (lo, hi) == (leader, leader + size)
            covered += size
        assert covered == 192  # the partition tiles the address space

    def test_no_blocks_lost_or_duplicated(self):
        oram = self.build()
        trace = locality_trace(random.Random(11), 192, 1000)
        oram.access_many(trace)
        assert oram.total_blocks_stored() == len(set(trace))

    def test_written_payloads_survive_merge_churn(self):
        oram = self.build()
        rng = random.Random(13)
        expected = {}
        for step in range(900):
            if rng.random() < 0.7:
                start = rng.randrange(1, 188)
                addresses = range(start, start + 4)
            else:
                addresses = [rng.randrange(1, 193)]
            for address in addresses:
                value = step * 1000 + address
                oram.write(address, value)
                expected[address] = value
        assert oram.stats.super_block_merges > 0
        for address, value in expected.items():
            result = oram.read(address)
            assert result.found and result.data == value

    def test_position_map_mirrors_block_locations(self):
        # Every block's leaf equals its per-address position-map entry —
        # the invariant that makes lazy retargeting miss-free.
        oram = self.build()
        trace = locality_trace(random.Random(17), 192, 700)
        oram.access_many(trace)
        leaves = oram.position_map.leaves
        for block in oram._stash.blocks():
            assert block.leaf == leaves[block.address - 1]
        storage = oram.storage
        for index in range(storage.num_buckets):
            for block in storage.read_bucket(index):
                assert block.leaf == leaves[block.address - 1]

    def test_access_many_matches_access_loop(self):
        trace = locality_trace(random.Random(19), 192, 500)
        fused = self.build(seed=23)
        looped = self.build(seed=23)
        fused.access_many(trace)
        for address in trace:
            looped.access(address)
        assert state_fingerprint(fused) == state_fingerprint(looped)

    def test_eviction_storms_stay_bounded(self):
        oram = self.build(eviction="background", working_set=128, stash_capacity=60)
        trace = locality_trace(random.Random(29), 128, 800)
        oram.access_many(trace)
        assert oram.stash_occupancy <= 60
        assert oram.stats.super_block_merges > 0

    def test_dynamic_vs_off_same_logical_results(self):
        config = ORAMConfig(working_set_blocks=128, utilization=0.5, z=4, stash_capacity=None)
        dynamic = build_oram(
            OramSpec(protocol="flat", eviction="none", **DYNAMIC_KNOBS), config, seed=3
        )
        plain = build_oram(OramSpec(protocol="flat", eviction="none"), config, seed=3)
        rng = random.Random(37)
        for step in range(400):
            address = rng.randrange(1, 129)
            if step % 3 == 0:
                dynamic.write(address, address + step)
                plain.write(address, address + step)
            else:
                a = dynamic.read(address)
                b = plain.read(address)
                assert (a.found, a.data) == (b.found, b.data)


# ----------------------------------------------------------------------
# Differential pinning across storage stacks
# ----------------------------------------------------------------------
class TestDynamicDifferential:
    def replay(self, storage, directory, protocol="flat", seed=41):
        knobs = dict(DYNAMIC_KNOBS)
        spec = OramSpec(
            protocol=protocol,
            storage=storage,
            eviction="background" if protocol == "flat" else "default",
            **knobs,
        )
        rng = random.Random(43)
        if protocol == "flat":
            config = ORAMConfig(
                working_set_blocks=128, utilization=0.5, z=4, block_bytes=32, stash_capacity=70
            )
            working_set = 128
        else:
            config = HierarchyConfig(
                data_oram=ORAMConfig(
                    working_set_blocks=256, utilization=0.5, z=4, block_bytes=64, stash_capacity=90
                ),
                position_map_block_bytes=16,
                position_map_stash_capacity=90,
                onchip_position_map_limit_bytes=64,
            )
            working_set = 256
        oram = build_stack(spec, config, seed, directory)
        trace = locality_trace(rng, working_set, 500)
        for index, address in enumerate(trace):
            if index % 4 == 0:
                oram.write(address, address * 7 + index)
            else:
                oram.access(address)
        if protocol == "flat":
            return state_fingerprint(oram)
        return tuple(state_fingerprint(sub) for sub in oram.orams) + (
            tuple(oram.onchip_position_map.leaves),
            oram.stats.real_accesses,
            oram.stats.dummy_accesses,
        )

    @pytest.mark.parametrize("protocol", ["flat", "hierarchical"])
    def test_stacks_bit_identical(self, protocol, tmp_path):
        reference = self.replay("flat", tmp_path, protocol=protocol)
        for storage in STACKS:
            assert self.replay(storage, tmp_path, protocol=protocol) == reference, storage


# ----------------------------------------------------------------------
# Hierarchical protocol specifics
# ----------------------------------------------------------------------
class TestDynamicHierarchy:
    def hierarchy(self):
        return HierarchyConfig(
            data_oram=ORAMConfig(
                working_set_blocks=256, utilization=0.5, z=4, block_bytes=64, stash_capacity=None
            ),
            position_map_block_bytes=16,
            position_map_stash_capacity=None,
            onchip_position_map_limit_bytes=64,
        )

    def spec(self):
        return OramSpec(protocol="hierarchical", **DYNAMIC_KNOBS)

    def test_chain_ops_unchanged_per_access(self):
        oram = build_oram(self.spec(), self.hierarchy(), seed=47)
        assert oram.num_orams >= 2
        trace = locality_trace(random.Random(53), 256, 400)
        oram.access_many(trace)
        # The obliviousness shape: every ORAM in the chain performs exactly
        # one path read+write per logical access, merging or not.
        for sub in oram.orams:
            assert sub.stats.path_reads == len(trace)
            assert sub.stats.path_writes == len(trace)
        assert oram.data_oram.stats.super_block_merges > 0

    def test_access_many_matches_access_loop(self):
        trace = locality_trace(random.Random(59), 256, 300)
        fused = build_oram(self.spec(), self.hierarchy(), seed=61)
        looped = build_oram(self.spec(), self.hierarchy(), seed=61)
        fused.access_many(trace)
        for address in trace:
            looped.access(address)
        assert (
            tuple(state_fingerprint(sub) for sub in fused.orams)
            == tuple(state_fingerprint(sub) for sub in looped.orams)
        )

    def test_payload_round_trip(self):
        oram = build_oram(self.spec(), self.hierarchy(), seed=67)
        oram.access_many(locality_trace(random.Random(71), 256, 300))
        for address in (1, 2, 3, 100, 256):
            oram.write(address, address * 11)
        for address in (1, 2, 3, 100, 256):
            assert oram.read(address).data == address * 11

    def test_exclusive_interface_round_trip(self):
        # extract/insert route through the data ORAM's per-address mirror
        # (chain labels are advisory under dynamic merging), so extracted
        # members must vanish from the hierarchy and reappear after insert.
        oram = build_oram(self.spec(), self.hierarchy(), seed=73)
        oram.access_many(locality_trace(random.Random(77), 256, 400))
        for address in (1, 2, 3, 100, 256):
            oram.write(address, address * 13)
        held: dict[int, object] = {}
        rng = random.Random(79)
        for _ in range(200):
            address = rng.randrange(1, 257)
            if address in held:
                oram.insert(address, held.pop(address))
            else:
                extracted = oram.extract(address)
                assert address in extracted
                for member in extracted:
                    assert not oram.data_oram.contains(member), member
                held.update(extracted)
        for address, data in held.items():
            oram.insert(address, data)
        for address in (1, 2, 3, 100, 256):
            assert oram.read(address).data == address * 13
        assert oram.data_oram.stats.super_block_merges > 0

    def test_requires_ungrouped_data_config(self):
        hierarchy = HierarchyConfig(
            data_oram=ORAMConfig(
                working_set_blocks=256,
                utilization=0.5,
                z=4,
                block_bytes=64,
                stash_capacity=None,
                super_block_size=2,
            ),
            position_map_block_bytes=16,
            onchip_position_map_limit_bytes=64,
        )
        with pytest.raises(ConfigurationError):
            build_oram(self.spec(), hierarchy, seed=79)


# ----------------------------------------------------------------------
# Exclusive-ORAM interface (flat protocol)
# ----------------------------------------------------------------------
class TestDynamicExclusiveInterface:
    def test_fetch_prefetches_cohort_and_stays_exclusive(self):
        spec = OramSpec(protocol="flat", eviction="none", **DYNAMIC_KNOBS)
        config = ORAMConfig(working_set_blocks=128, utilization=0.5, z=4, stash_capacity=None)
        interface = ORAMMemoryInterface(build_oram(spec, config, seed=83))
        assert interface.super_block_size == DYNAMIC_KNOBS["super_block_max_size"]
        cache = {}
        rng = random.Random(89)
        for _ in range(1500):
            if rng.random() < 0.7:
                start = rng.randrange(1, 124)
                addresses = list(range(start, start + 4))
            else:
                addresses = [rng.randrange(1, 129)]
            for address in addresses:
                if address not in cache:
                    fetched = interface.fetch(address)
                    assert address in fetched
                    # Exclusivity: nothing fetched may still be in the ORAM.
                    for member in fetched:
                        assert not interface.oram.contains(member), member
                    cache.update(fetched)
            while len(cache) > 32:
                victim = next(iter(cache))
                interface.writeback(victim, cache.pop(victim))
        assert interface.stats.prefetched_lines > 0
        assert interface.oram.stats.super_block_merges > 0
        # Drain the cache and verify the full address space is recoverable.
        for address in list(cache):
            interface.writeback(address, cache.pop(address))
        recovered = set()
        for address in range(1, 129):
            recovered.update(interface.fetch(address).keys())
        assert recovered == set(range(1, 129))

    def test_remap_access_rejected(self):
        spec = OramSpec(protocol="flat", eviction="none", **DYNAMIC_KNOBS)
        config = ORAMConfig(working_set_blocks=64, utilization=0.5, z=4, stash_capacity=None)
        oram = build_oram(spec, config, seed=97)
        with pytest.raises(ConfigurationError):
            oram.remap_access(1)

    def test_access_path_follows_the_mirror(self):
        # The per-address map is authoritative and the caller's current
        # leaf only advisory: a wrong one still reads the right path, and
        # the caller's fresh leaf stands in for the draw access makes.
        spec = OramSpec(protocol="flat", eviction="none", **DYNAMIC_KNOBS)
        config = ORAMConfig(working_set_blocks=64, utilization=0.5, z=4, stash_capacity=None)
        reference = build_oram(spec, config, seed=97)
        external = build_oram(spec, config, seed=97)
        for index, address in enumerate(locality_trace(random.Random(101), 64, 300)):
            op = Operation.WRITE if index % 3 == 0 else Operation.READ
            wrong = (external.position_map.lookup(address - 1) + 1) % config.num_leaves
            expected = reference.access(address, op, index)
            fresh = reference.position_map.lookup(address - 1)
            result = external.access_path(address, wrong, fresh, op, index)
            assert (result.data, result.found) == (expected.data, expected.found)
        wrong = (external.position_map.lookup(4) + 1) % config.num_leaves
        extracted = reference.extract(5)
        fresh = reference.position_map.lookup(4)
        assert external.extract_path(5, wrong, fresh) == extracted
        assert state_fingerprint(external) == state_fingerprint(reference)
        assert reference.stats.super_block_merges > 0

    def test_flat_extract_runs_the_eviction_policy_once(self):
        class CountingEviction(EvictionPolicy):
            calls = 0

            def after_access(self, oram):
                self.calls += 1
                return 0

        policy = CountingEviction()
        config = ORAMConfig(working_set_blocks=64, utilization=0.5, z=4, stash_capacity=None)
        oram = PathORAM(
            config,
            eviction_policy=policy,
            super_block_mapper=DynamicSuperBlockMapper(max_group_size=4),
            rng=random.Random(103),
        )
        oram.extract(5)
        assert policy.calls == 1


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestDynamicSpecValidation:
    def test_insecure_eviction_rejected(self):
        with pytest.raises(ConfigurationError):
            OramSpec(eviction="insecure", dynamic_super_blocks=True)

    def test_bad_knobs_rejected_at_spec_construction(self):
        with pytest.raises(ConfigurationError):
            OramSpec(dynamic_super_blocks=True, super_block_max_size=3)
        with pytest.raises(ConfigurationError):
            OramSpec(dynamic_super_blocks=True, super_block_window=0)

    def test_grouped_config_rejected(self):
        spec = OramSpec(**DYNAMIC_KNOBS)
        config = ORAMConfig(
            working_set_blocks=64,
            utilization=0.5,
            z=4,
            stash_capacity=None,
            super_block_size=2,
        )
        with pytest.raises(ConfigurationError):
            build_oram(spec, config, seed=1)


# ----------------------------------------------------------------------
# Runner reproducibility: serial == multiprocessing
# ----------------------------------------------------------------------
class TestDynamicRunnerReproducibility:
    def test_super_block_sweep_parallel_matches_serial(self):
        from repro.analysis.sweep import sweep_super_block_modes

        config = ORAMConfig(
            working_set_blocks=256,
            utilization=0.5,
            z=4,
            stash_capacity=None,
            name="sb-repro",
        )
        kwargs = dict(
            num_accesses=600,
            seed=8,
            group_size=4,
            window=64,
            merge_threshold=1,
            split_threshold=3,
        )
        serial = sweep_super_block_modes(config, executor="serial", **kwargs)
        parallel = sweep_super_block_modes(config, executor="process", max_workers=2, **kwargs)
        assert serial == parallel
        by_mode = {point.mode: point for point in serial if point.trace_kind == "hotspot"}
        assert by_mode["dynamic"].merges > 0
        assert by_mode["off"].merges == 0
        assert by_mode["static"].merges == 0

    def test_sweep_modes_override_an_already_dynamic_spec(self):
        # A spec that already enables dynamic merging is a natural input
        # when studying the feature; the off/static points must clear it
        # (off must not silently run dynamic, static must not crash).
        from repro.analysis.sweep import measure_super_block_mode

        config = ORAMConfig(working_set_blocks=64, utilization=0.5, z=4, stash_capacity=None)
        spec = OramSpec(protocol="flat", eviction="none", **DYNAMIC_KNOBS)
        off = measure_super_block_mode(config, "off", 200, seed=2, spec=spec)
        static = measure_super_block_mode(config, "static", 200, seed=2, spec=spec)
        assert off.merges == 0 and off.hits == 0
        assert static.merges == 0

    def test_modes_replay_identical_traces(self):
        # The mode axis must compare policies over the same address
        # stream; the trace seed therefore excludes the mode.
        from repro.analysis.sweep import measure_super_block_mode

        config = ORAMConfig(working_set_blocks=64, utilization=0.5, z=4, stash_capacity=None)
        points = [
            measure_super_block_mode(config, mode, 300, seed=6, trace_kind="hotspot")
            for mode in ("off", "static", "dynamic")
        ]
        assert len({point.accesses for point in points}) == 1

    def test_spec_axis_parallel_matches_serial(self):
        from repro.analysis.spec_eval import figure12_super_block_axis

        kwargs = dict(benchmarks=["libquantum"], num_memory_ops=600, seed=5)
        serial = figure12_super_block_axis(executor="serial", **kwargs)
        parallel = figure12_super_block_axis(executor="process", max_workers=2, **kwargs)
        assert serial == parallel
        dynamic = serial["libquantum"]["dynamic"]
        assert dynamic.merges > 0 and dynamic.hits > 0


# ----------------------------------------------------------------------
# SuperBlockMapper contracts
# ----------------------------------------------------------------------
class TestMapperFallbacks:
    def test_num_groups_boundary_cases(self):
        mapper = StaticSuperBlockMapper(4)
        assert mapper.num_groups(1) == 1
        assert mapper.num_groups(4) == 1
        assert mapper.num_groups(5) == 2
        assert mapper.num_groups(8) == 2
        with pytest.raises(ConfigurationError):
            mapper.num_groups(0)
        with pytest.raises(ConfigurationError):
            mapper.num_groups(-3)

    def test_addresses_in_group_may_exceed_working_set(self):
        # The documented contract: the last group's tail can reach past the
        # working set; callers filter.  The protocol clamps it — extracting
        # the last group of a 6-block ORAM with size-4 groups returns
        # addresses 5 and 6 only.
        mapper = StaticSuperBlockMapper(4)
        assert mapper.addresses_in_group(1) == [5, 6, 7, 8]
        assert mapper.group_span(1) == (5, 9)
        for call in (mapper.addresses_in_group, mapper.group_span):
            with pytest.raises(ConfigurationError):
                call(-1)
        config = ORAMConfig(
            working_set_blocks=6,
            utilization=0.5,
            z=4,
            stash_capacity=None,
            super_block_size=4,
        )
        oram = PathORAM(config, rng=random.Random(107))
        for address in range(1, 7):
            oram.write(address, address)
        extracted = oram.extract(5)
        assert set(extracted) == {5, 6}

    def test_dynamic_mapper_group_identity_contracts(self):
        mapper = DynamicSuperBlockMapper(max_group_size=4)
        assert mapper.num_groups(16) == 16  # per-address granularity
        assert mapper.group_of(16) == 15
        assert mapper.group_span(15) == (16, 17)
        with pytest.raises(ConfigurationError):
            mapper.group_span(16)  # past the bound address space
        for call in (mapper.addresses_in_group, mapper.group_span):
            with pytest.raises(ConfigurationError):
                call(-1)
