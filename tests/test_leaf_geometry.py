"""Per-leaf path geometry: one cache, owned by the storage, never pickled.

A path is pure arithmetic on its leaf label.  Each storage keeps one record
per leaf (the path, the flat stack's bucket bases, or the column stack's
gather/scatter rows and journal pages) in a leaf-indexed list on trees of at
most ``LEAF_CACHE_LEAVES`` leaves and recomputes it on bigger trees; the
classified op reads the flat storage's list through an alias.  Snapshots
carry state, not geometry, and snapshots that still carry the per-leaf and
per-address caches of earlier versions restore and continue bit-identically.
"""

import gc
import pickle
import pickletools
import random

import pytest

from repro.backends import OramSpec, build_oram, storage_backends
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.path_oram import PathORAM
from repro.core.tree import LEAF_CACHE_LEAVES, FlatTreeStorage, path_indices
from repro.errors import ConfigurationError
from tests.test_access_many import STACKS, build_stack, fingerprint, random_trace

#: Attribute names of per-leaf or per-address geometry, current and former.
GEOMETRY_NAMES = {
    "_geometry_table",
    "_leaf_bases",
    "_path_pairs",
    "_path_cache",
    "_base_cache",
    "_path_rows",
    "_leaf_list",
    "_leaf_dict",
    "_leaf_pages",
    "_chain_cache",
}

needs_numpy = pytest.mark.skipif(
    "memmap-flat" not in storage_backends(), reason="memmap-flat needs NumPy"
)


def deep_config() -> ORAMConfig:
    """A 64-block ORAM over a 2^17-leaf tree: one past the cache cutoff."""
    config = ORAMConfig(working_set_blocks=64, utilization=64 / 600_000, z=4, block_bytes=32)
    assert config.num_leaves == 2 * LEAF_CACHE_LEAVES
    return config


def retained_objects(root) -> int:
    """Distinct objects reachable from ``root`` through containers and this
    package's instances (not through functions, classes or modules)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (dict, list, tuple, set)) or type(obj).__module__.startswith("repro"):
            stack.extend(gc.get_referents(obj))
    return len(seen)


def settle(oram) -> None:
    """End a durable store's journal epoch (its dirty-page pre-images are
    state of the epoch, not geometry)."""
    commit = getattr(oram.storage, "commit", None)
    if commit is not None:
        commit()


def pickled_names(obj) -> set[str]:
    """Every string in the pickle of ``obj`` (attribute names included)."""
    return {
        arg for _, arg, _ in pickletools.genops(pickle.dumps(obj)) if isinstance(arg, str)
    }


def small_hierarchy() -> HierarchyConfig:
    return HierarchyConfig(
        data_oram=ORAMConfig(working_set_blocks=64, z=2, block_bytes=64, stash_capacity=40),
        position_map_block_bytes=8,
        position_map_z=2,
        position_map_stash_capacity=12,
        onchip_position_map_limit_bytes=1,
    )


class TestBigTreesRetainNoGeometry:
    @pytest.mark.parametrize(
        "storage",
        ["flat", pytest.param("memmap-flat", marks=needs_numpy)],
    )
    def test_no_geometry_grows_with_distinct_leaves(self, storage, tmp_path):
        oram = build_stack(OramSpec(protocol="flat", storage=storage), deep_config(), 3, tmp_path)
        if storage == "flat":
            # Deeper than the classified op serves: the generic op runs.
            assert oram._path_op is PathORAM._access_path
        oram.access_many(random_trace(64, 200, seed=1))
        settle(oram)
        before = retained_objects(oram)
        oram.access_many(random_trace(64, 2000, seed=2))
        settle(oram)
        assert retained_objects(oram) - before < 500
        assert oram.storage._geometry_table is None


class TestSmallTreesShareOneTable:
    def test_classified_op_aliases_the_storage_table(self):
        config = ORAMConfig(working_set_blocks=256, z=4, block_bytes=32, stash_capacity=100)
        oram = build_oram(OramSpec(protocol="flat", storage="flat"), config, seed=4)
        assert oram._path_op is PathORAM._fused_single_access
        oram.access_many(random_trace(256, 500, seed=5))
        table = oram.storage._geometry_table
        assert oram._leaf_bases is table
        assert len(table) == config.num_leaves
        leaf = next(index for index, bases in enumerate(table) if bases is not None)
        assert table[leaf] == tuple(
            index * (config.z + 1) for index in path_indices(leaf, config.levels)
        )
        restored = PathORAM.restore(oram.snapshot())
        assert restored._leaf_bases is restored.storage._geometry_table
        assert not any(restored.storage._geometry_table)

    @needs_numpy
    def test_column_engine_reads_the_storage_record(self, tmp_path):
        config = ORAMConfig(working_set_blocks=256, z=4, block_bytes=32, stash_capacity=100)
        oram = build_stack(OramSpec(protocol="flat", storage="memmap-flat"), config, 4, tmp_path)
        oram.access_many(random_trace(256, 500, seed=5))
        engine = oram._column_engine
        assert not any(
            isinstance(value, (list, dict)) and len(value) >= config.num_leaves
            for value in vars(engine).values()
        )
        filled = [record for record in oram.storage._geometry_table if record is not None]
        assert filled and all(len(record) == 5 for record in filled)


class TestPicklesCarryNoGeometry:
    @pytest.mark.parametrize("storage", STACKS)
    def test_flat_oram(self, storage, tmp_path):
        config = ORAMConfig(working_set_blocks=64, z=4, block_bytes=32, stash_capacity=80)
        oram = build_stack(OramSpec(protocol="flat", storage=storage), config, 6, tmp_path)
        oram.access_many(random_trace(64, 300, seed=7))
        assert not pickled_names(oram) & GEOMETRY_NAMES

    @pytest.mark.parametrize("plb", [0, 8])
    def test_hierarchy(self, plb):
        oram = HierarchicalPathORAM(
            small_hierarchy(), rng=random.Random(8), plb_entries_per_level=plb
        )
        oram.access_many(random_trace(64, 300, seed=9))
        assert not pickled_names(oram) & GEOMETRY_NAMES


def with_parent_caches(oram) -> None:
    """Give an ORAM (or each ORAM of a hierarchy) the per-leaf caches that
    snapshots of earlier versions carry, filled for the leaves walked."""
    orams = oram.orams if isinstance(oram, HierarchicalPathORAM) else (oram,)
    for sub in orams:
        storage = sub.storage
        config = sub.config
        leaves = sorted(set(sub.position_map.leaves))
        paths = {leaf: tuple(path_indices(leaf, config.levels)) for leaf in leaves}
        storage._path_cache = paths
        if isinstance(storage, FlatTreeStorage):
            stride = config.z + 1
            bases = {leaf: tuple(i * stride for i in path) for leaf, path in paths.items()}
            storage._base_cache = bases
            pairs = [None] * config.num_leaves
            for leaf, leaf_bases in bases.items():
                pairs[leaf] = (leaf_bases, leaf_bases[::-1])
            sub._path_pairs = pairs
        if getattr(type(storage), "columnar", False):
            import numpy as np

            arrays = {leaf: np.asarray(path) for leaf, path in paths.items()}
            storage._path_rows = {leaf: (a, a * config.z) for leaf, a in arrays.items()}
    if isinstance(oram, HierarchicalPathORAM):
        oram._chain_cache = {
            address: oram._chain_for(address - 1) for address in range(1, 65)
        }


def build_flat(storage: str, config: ORAMConfig, seed: int) -> PathORAM:
    """A registered in-RAM stack, or the in-RAM column twin of memmap-flat."""
    if storage == "numpy":
        from repro.core.numpy_tree import NumpyFlatTreeStorage

        return PathORAM(config, storage=NumpyFlatTreeStorage(config), rng=random.Random(seed))
    return build_oram(OramSpec(protocol="flat", storage=storage), config, seed=seed)


class TestParentSnapshotsRestore:
    @pytest.mark.parametrize(
        "storage", ["flat", "plain", pytest.param("numpy", marks=needs_numpy)]
    )
    def test_flat_oram_continues_bit_identically(self, storage):
        config = ORAMConfig(working_set_blocks=64, z=4, block_bytes=32, stash_capacity=80)
        oram = build_flat(storage, config, 10)
        twin = build_flat(storage, config, 10)
        warm = random_trace(64, 300, seed=11)
        oram.access_many(warm)
        twin.access_many(warm)
        with_parent_caches(oram)
        restored = pickle.loads(pickle.dumps(oram))
        assert not set(vars(restored)) & GEOMETRY_NAMES - {"_leaf_bases"}
        assert not set(vars(restored.storage)) & GEOMETRY_NAMES - {"_geometry_table"}
        more = random_trace(64, 500, seed=12)
        restored.access_many(more)
        twin.access_many(more)
        assert fingerprint(restored) == fingerprint(twin)
        assert restored._rng.getstate() == twin._rng.getstate()

    @pytest.mark.parametrize("plb", [0, 8])
    def test_hierarchy_continues_bit_identically(self, plb):
        oram = HierarchicalPathORAM(
            small_hierarchy(), rng=random.Random(13), plb_entries_per_level=plb
        )
        twin = HierarchicalPathORAM(
            small_hierarchy(), rng=random.Random(13), plb_entries_per_level=plb
        )
        warm = random_trace(64, 300, seed=14)
        oram.access_many(warm)
        twin.access_many(warm)
        with_parent_caches(oram)
        restored = pickle.loads(pickle.dumps(oram))
        assert "_chain_cache" not in vars(restored)
        more = random_trace(64, 500, seed=15)
        restored.access_many(more)
        twin.access_many(more)
        assert fingerprint(restored) == fingerprint(twin)
        assert restored._rng.getstate() == twin._rng.getstate()


@pytest.mark.parametrize("storage", sorted(storage_backends()))
def test_out_of_range_leaf_raises_on_every_stack(storage, tmp_path):
    config = ORAMConfig(working_set_blocks=64, z=4, block_bytes=32, stash_capacity=80)
    oram = build_stack(OramSpec(protocol="flat", storage=storage), config, 16, tmp_path)
    oram.access_many(random_trace(64, 100, seed=17))
    for leaf in (-1, -config.num_leaves, config.num_leaves):
        with pytest.raises(ConfigurationError):
            oram.storage.path(leaf)
