"""Every ``OramSpec`` validation error path, and ``with_updates`` edges.

``OramSpec`` is the picklable scenario descriptor every driver builds
through; a bad spec must fail **eagerly at construction** with a typed
``ConfigurationError`` naming the offending knob, never inside a pool
worker.  This suite walks each ``__post_init__`` rejection and the
``with_updates`` copy semantics (conflict-introducing updates re-run the
same validation; the dataclass stays frozen).
"""

import pickle

import pytest

from repro import ConfigurationError, OramSpec, storage_backends

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

# The memmap-flat stack is registered alongside the optional NumPy import;
# only the tests that *construct* a memmap-flat spec need it to exist.
requires_memmap = pytest.mark.skipif(
    "memmap-flat" not in storage_backends(),
    reason="memmap-flat stack unavailable (NumPy not installed)",
)


class TestRegistryLookups:
    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            OramSpec(protocol="onion")

    def test_unknown_storage(self):
        with pytest.raises(ConfigurationError, match="unknown storage stack"):
            OramSpec(storage="tape")

    def test_unknown_eviction(self):
        with pytest.raises(ConfigurationError, match="unknown eviction policy"):
            OramSpec(eviction="random")

    def test_retired_numpy_flat_stack(self):
        # The in-RAM column stack is gone whether or not NumPy is installed;
        # its columns live on only under memmap-flat.
        assert "numpy-flat" not in storage_backends()
        with pytest.raises(ConfigurationError, match="unknown storage stack"):
            OramSpec(storage="numpy-flat")


class TestScalarKnobs:
    def test_negative_key_seed(self):
        # A negative seed would derive the same processor key as its
        # absolute value (random.Random seeds with abs()).
        with pytest.raises(ConfigurationError, match="key_seed"):
            OramSpec(storage="encrypted", key_seed=-7)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_livelock_limit_floor(self, limit):
        with pytest.raises(ConfigurationError, match="livelock_limit"):
            OramSpec(eviction="background", livelock_limit=limit)


class TestProtocolConflicts:
    def test_hierarchical_rejects_nondefault_eviction(self):
        with pytest.raises(ConfigurationError, match="hierarchy level"):
            OramSpec(protocol="hierarchical", eviction="background")

    def test_hierarchical_rejects_create_on_miss_off(self):
        with pytest.raises(ConfigurationError, match="create_on_miss"):
            OramSpec(protocol="hierarchical", create_on_miss=False)

    def test_flat_rejects_plb(self):
        with pytest.raises(ConfigurationError, match="no position-map chain"):
            OramSpec(protocol="flat", plb_entries_per_level=2)

    def test_negative_plb_capacity(self):
        with pytest.raises(ConfigurationError, match="plb_entries_per_level"):
            OramSpec(protocol="hierarchical", plb_entries_per_level=-1)


class TestMemmapOptionGating:
    def test_storage_path_requires_memmap_stack(self):
        with pytest.raises(ConfigurationError, match="memmap-flat"):
            OramSpec(storage="flat", storage_path="/tmp/somewhere")

    @requires_memmap
    def test_unknown_memmap_sync(self):
        with pytest.raises(ConfigurationError, match="memmap_sync"):
            OramSpec(storage="memmap-flat", memmap_sync="eventually")

    @requires_memmap
    def test_memmap_history_floor(self):
        with pytest.raises(ConfigurationError, match="memmap_history"):
            OramSpec(storage="memmap-flat", memmap_history=0)

    def test_memmap_sync_meaningless_off_memmap_stack(self):
        with pytest.raises(ConfigurationError, match="only meaningful"):
            OramSpec(storage="flat", memmap_sync="relaxed")

    def test_memmap_history_meaningless_off_memmap_stack(self):
        with pytest.raises(ConfigurationError, match="only meaningful"):
            OramSpec(storage="encrypted", memmap_history=2)

    def test_memmap_defaults_fine_on_any_stack(self):
        # The defaults are inert knobs; only *tuning* them off-stack errors.
        spec = OramSpec(storage="flat")
        assert spec.memmap_sync == "strict"
        assert spec.memmap_history == 4

    @requires_memmap
    def test_memmap_stack_accepts_tuning(self):
        spec = OramSpec(storage="memmap-flat", memmap_sync="relaxed", memmap_history=2)
        assert spec.memmap_sync == "relaxed"


class TestDynamicSuperBlockKnobs:
    def test_rejects_insecure_eviction(self):
        with pytest.raises(ConfigurationError, match="insecure"):
            OramSpec(dynamic_super_blocks=True, eviction="insecure")

    def test_max_size_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            OramSpec(dynamic_super_blocks=True, super_block_max_size=3)

    def test_window_floor(self):
        with pytest.raises(ConfigurationError, match="window"):
            OramSpec(dynamic_super_blocks=True, super_block_window=0)

    def test_merge_threshold_floor(self):
        with pytest.raises(ConfigurationError, match="merge_threshold"):
            OramSpec(dynamic_super_blocks=True, super_block_merge_threshold=0)

    def test_split_threshold_floor(self):
        with pytest.raises(ConfigurationError, match="split_threshold"):
            OramSpec(dynamic_super_blocks=True, super_block_split_threshold=0)

    def test_bad_knobs_ignored_when_feature_off(self):
        # Knob validation is scoped to the feature: a disabled mapper
        # doesn't reject its (unused) parameters.
        spec = OramSpec(super_block_max_size=3, super_block_window=0)
        assert not spec.dynamic_super_blocks


class TestWithUpdates:
    def test_roundtrip_replaces_fields(self):
        base = OramSpec(protocol="hierarchical", storage="encrypted", key_seed=9)
        updated = base.with_updates(plb_entries_per_level=4)
        assert updated.plb_entries_per_level == 4
        assert updated.storage == "encrypted"
        assert updated.key_seed == 9
        assert base.plb_entries_per_level == 0  # original untouched

    def test_noop_update_is_equal(self):
        base = OramSpec(protocol="hierarchical")
        assert base.with_updates() == base

    def test_conflicting_update_revalidates(self):
        base = OramSpec(protocol="flat")
        with pytest.raises(ConfigurationError, match="no position-map chain"):
            base.with_updates(plb_entries_per_level=1)

    def test_update_to_unknown_storage_revalidates(self):
        base = OramSpec(protocol="flat")
        with pytest.raises(ConfigurationError, match="unknown storage stack"):
            base.with_updates(storage="punchcards")

    @requires_memmap
    def test_update_introducing_memmap_conflict(self):
        base = OramSpec(storage="memmap-flat", memmap_sync="relaxed")
        with pytest.raises(ConfigurationError, match="only meaningful"):
            base.with_updates(storage="flat")

    @requires_memmap
    def test_update_can_resolve_conflict_in_one_step(self):
        base = OramSpec(storage="memmap-flat", memmap_sync="relaxed")
        flat = base.with_updates(storage="flat", memmap_sync="strict")
        assert flat.storage == "flat"

    def test_frozen(self):
        spec = OramSpec()
        with pytest.raises(AttributeError):
            spec.storage = "encrypted"

    def test_spec_is_picklable_and_hashable(self):
        spec = OramSpec(protocol="hierarchical", plb_entries_per_level=2)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert isinstance(hash(spec), int)
