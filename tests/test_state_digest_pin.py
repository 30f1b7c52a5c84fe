"""Pinned end states for every leaf choice: ungrouped, static and dynamic.

Each case drives one ORAM through a seeded script that mixes ``access``
(reads and writes), ``access_many`` (reads and writes) and the
exclusive-ORAM ``extract`` / ``insert`` pair, then hashes everything a
refactor of the protocol could disturb: every bucket's blocks in slot
order, the stash in insertion order, the stash's leaf buckets in order,
the position map, the statistics (occupancy samples included), the
transient stash peak, the adversary's path trace, the super-block
mapper's runtime state, the RNG state, the PLB contents, and every
result the script saw (extraction dicts in their returned order).

The digests were recorded before the dynamic mapper's private copy of
the path op was folded into the shared one.  They must never be edited to
make a change pass: a moved digest means the change altered the protocol.
Working sets of 8 blocks make a fresh leaf equal to the old one often
enough that the no-move branch of the group retarget is exercised.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.backends import OramSpec, build_oram, storage_backends
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.super_block import DynamicSuperBlockMapper
from repro.core.types import Operation

FLAT_STACKS = [name for name in ("flat", "plain", "encrypted", "memmap-flat")
               if name in storage_backends()]
HIERARCHY_STACKS = ["flat", "plain"]
MAPPERS = ["none", "static", "dynamic"]
WORKING_SETS = [8, 64]

DYNAMIC_KNOBS = dict(
    dynamic_super_blocks=True,
    super_block_window=16,
    super_block_merge_threshold=1,
    super_block_split_threshold=3,
    super_block_max_size=4,
)


def data_config(working_set: int, mapper: str, slack: int) -> ORAMConfig:
    config = ORAMConfig(
        working_set_blocks=working_set, utilization=0.5, z=2, block_bytes=64,
        super_block_size=4 if mapper == "static" else 1,
    )
    # A stash bound a few blocks above Z(L+1) keeps background eviction busy.
    return dataclasses.replace(config, stash_capacity=config.z * (config.levels + 1) + slack)


def build(protocol: str, storage: str, mapper: str, working_set: int, plb: int, tmp_path):
    knobs = DYNAMIC_KNOBS if mapper == "dynamic" else {}
    spec = OramSpec(
        protocol=protocol, storage=storage, record_path_trace=True,
        plb_entries_per_level=plb, **knobs,
    )
    if protocol == "flat":
        config = data_config(working_set, mapper, 3)
    else:
        # Three ORAMs at 64 blocks, two (the outer one single-leaf) at 8.
        config = HierarchyConfig(
            data_oram=data_config(working_set, mapper, 8),
            position_map_block_bytes=8,
            position_map_z=2,
            position_map_stash_capacity=12,
            onchip_position_map_limit_bytes=1,
        )
    if storage == "memmap-flat":
        spec = spec.with_updates(storage_path=str(tmp_path), memmap_sync="relaxed")
    oram = build_oram(spec, config, seed=1234 + working_set)
    orams = oram.orams if isinstance(oram, HierarchicalPathORAM) else (oram,)
    for sub in orams:
        sub.stats.record_occupancy = True
    return oram


def run_script(oram, working_set: int) -> list:
    """A seeded mix of every entry point; returns what each step returned."""
    rng = random.Random(working_set * 31 + 7)
    held: dict[int, object] = {}
    log: list = []
    for step in range(160):
        free = [a for a in range(1, working_set + 1) if a not in held]
        roll = rng.random()
        if roll < 0.25 and free:
            result = oram.access(rng.choice(free))
            log.append(("read", repr(result.data), result.found, result.dummy_accesses))
        elif roll < 0.45 and free:
            result = oram.access(rng.choice(free), Operation.WRITE, 1000 + step)
            log.append(("write", repr(result.data), result.found, result.dummy_accesses))
        elif roll < 0.55 and free:
            start = rng.randrange(len(free))
            trace = free[start:start + 6] + [rng.choice(free) for _ in range(3)]
            result = oram.access_many(trace)
            log.append(("many-read", result.accesses, result.found, result.dummy_accesses))
        elif roll < 0.65 and free:
            trace = [rng.choice(free) for _ in range(5)]
            result = oram.access_many(trace, Operation.WRITE, 2000 + step)
            log.append(("many-write", result.accesses, result.found, result.dummy_accesses))
        elif roll < 0.85 and free:
            extracted = oram.extract(rng.choice(free))
            log.append(("extract", tuple((a, repr(d)) for a, d in extracted.items())))
            held.update(extracted)
        elif held:
            address = rng.choice(sorted(held))
            log.append(("insert", address, oram.insert(address, held.pop(address))))
    for address in sorted(held):
        log.append(("insert", address, oram.insert(address, held[address])))
    result = oram.access_many(list(range(1, working_set + 1)))
    log.append(("final", result.accesses, result.found, result.dummy_accesses))
    return log


def oram_state(oram) -> tuple:
    storage = oram.storage
    stash = oram._stash
    mapper = oram.super_block_mapper
    return (
        tuple(
            tuple((block.address, block.leaf, repr(block.data))
                  for block in storage.read_bucket(index))
            for index in range(storage.num_buckets)
        ),
        tuple((block.address, block.leaf, repr(block.data))
              for block in stash._blocks.values()),
        tuple((leaf, tuple(block.address for block in group))
              for leaf, group in stash._by_leaf.items()),
        tuple(oram.position_map.leaves),
        oram.stats.fingerprint(),
        oram.max_stash_occupancy,
        storage.occupancy(),
        tuple(oram.path_trace),
        mapper.fingerprint() if isinstance(mapper, DynamicSuperBlockMapper)
        else mapper.group_size,
    )


def digest(oram, log: list) -> str:
    if isinstance(oram, HierarchicalPathORAM):
        state = tuple(oram_state(sub) for sub in oram.orams) + (
            tuple(oram.onchip_position_map.leaves),
            oram.stats.fingerprint(),
            oram.plb.fingerprint() if oram.plb is not None else None,
        )
    else:
        state = oram_state(oram)
    payload = repr((state, oram._rng.getstate(), log)).encode()
    return hashlib.sha256(payload).hexdigest()[:20]


CASES = [
    ("flat", storage, mapper, working_set, 0)
    for storage in FLAT_STACKS
    for mapper in MAPPERS
    for working_set in WORKING_SETS
] + [
    ("hierarchical", storage, mapper, working_set, plb)
    for storage in HIERARCHY_STACKS
    for mapper in MAPPERS
    for working_set in WORKING_SETS
    for plb in (0, 8)
]

EXPECTED = {
    "flat-flat-none-ws8-plb0": "e9e7b68e1dad81614e3b",
    "flat-flat-none-ws64-plb0": "c00fa24467c211d9f4f8",
    "flat-flat-static-ws8-plb0": "d88c11fcf15d26be4e6c",
    "flat-flat-static-ws64-plb0": "3bf5a4c86eb9582a7c55",
    "flat-flat-dynamic-ws8-plb0": "7d8a6b89c3ce5238079b",
    "flat-flat-dynamic-ws64-plb0": "ba435ff1fa4381496fc9",
    "flat-plain-none-ws8-plb0": "e9e7b68e1dad81614e3b",
    "flat-plain-none-ws64-plb0": "c00fa24467c211d9f4f8",
    "flat-plain-static-ws8-plb0": "d88c11fcf15d26be4e6c",
    "flat-plain-static-ws64-plb0": "3bf5a4c86eb9582a7c55",
    "flat-plain-dynamic-ws8-plb0": "7d8a6b89c3ce5238079b",
    "flat-plain-dynamic-ws64-plb0": "ba435ff1fa4381496fc9",
    "flat-encrypted-none-ws8-plb0": "e9e7b68e1dad81614e3b",
    "flat-encrypted-none-ws64-plb0": "c00fa24467c211d9f4f8",
    "flat-encrypted-static-ws8-plb0": "d88c11fcf15d26be4e6c",
    "flat-encrypted-static-ws64-plb0": "3bf5a4c86eb9582a7c55",
    "flat-encrypted-dynamic-ws8-plb0": "7d8a6b89c3ce5238079b",
    "flat-encrypted-dynamic-ws64-plb0": "ba435ff1fa4381496fc9",
    "flat-memmap-flat-none-ws8-plb0": "e9e7b68e1dad81614e3b",
    "flat-memmap-flat-none-ws64-plb0": "c00fa24467c211d9f4f8",
    "flat-memmap-flat-static-ws8-plb0": "d88c11fcf15d26be4e6c",
    "flat-memmap-flat-static-ws64-plb0": "3bf5a4c86eb9582a7c55",
    "flat-memmap-flat-dynamic-ws8-plb0": "7d8a6b89c3ce5238079b",
    "flat-memmap-flat-dynamic-ws64-plb0": "ba435ff1fa4381496fc9",
    "hierarchical-flat-none-ws8-plb0": "1675a454f144323f6686",
    "hierarchical-flat-none-ws8-plb8": "907a215545720de0347b",
    "hierarchical-flat-none-ws64-plb0": "c32292dee3dfe00c33b7",
    "hierarchical-flat-none-ws64-plb8": "f967db8390e3e4d317cc",
    "hierarchical-flat-static-ws8-plb0": "ee77caecdb17185c265d",
    "hierarchical-flat-static-ws8-plb8": "ee77caecdb17185c265d",
    "hierarchical-flat-static-ws64-plb0": "e7fd161853aa2b1ebcd6",
    "hierarchical-flat-static-ws64-plb8": "307bc4259d1e2d99284a",
    "hierarchical-flat-dynamic-ws8-plb0": "d127ededb6050454ca17",
    "hierarchical-flat-dynamic-ws8-plb8": "507f845339d9b7566b00",
    "hierarchical-flat-dynamic-ws64-plb0": "2ed9457b3bad97a6c265",
    "hierarchical-flat-dynamic-ws64-plb8": "80e0d1ea95d8cd4ee5d6",
    "hierarchical-plain-none-ws8-plb0": "1675a454f144323f6686",
    "hierarchical-plain-none-ws8-plb8": "ae1a041104dc5dc08120",
    "hierarchical-plain-none-ws64-plb0": "c32292dee3dfe00c33b7",
    "hierarchical-plain-none-ws64-plb8": "cdda8697f96341e86f18",
    "hierarchical-plain-static-ws8-plb0": "ee77caecdb17185c265d",
    "hierarchical-plain-static-ws8-plb8": "ee77caecdb17185c265d",
    "hierarchical-plain-static-ws64-plb0": "e7fd161853aa2b1ebcd6",
    "hierarchical-plain-static-ws64-plb8": "898b2c2673e087394dbb",
    "hierarchical-plain-dynamic-ws8-plb0": "d127ededb6050454ca17",
    "hierarchical-plain-dynamic-ws8-plb8": "17f67d75642721a6caf0",
    "hierarchical-plain-dynamic-ws64-plb0": "2ed9457b3bad97a6c265",
    "hierarchical-plain-dynamic-ws64-plb8": "5260be8755af4a5991b3",
}


def case_id(case) -> str:
    protocol, storage, mapper, working_set, plb = case
    return f"{protocol}-{storage}-{mapper}-ws{working_set}-plb{plb}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_state_digest_is_pinned(case, tmp_path):
    protocol, storage, mapper, working_set, plb = case
    oram = build(protocol, storage, mapper, working_set, plb, tmp_path)
    log = run_script(oram, working_set)
    assert digest(oram, log) == EXPECTED[case_id(case)]
