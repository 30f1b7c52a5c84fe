"""The backend/scenario registry: spec validation, construction, workers."""

import pickle
import random

import pytest

from repro.backends import (
    OramSpec,
    build_interface,
    build_memory_backend,
    build_oram,
    register_storage,
    storage_backends,
    storage_factory,
)
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.interface import ORAMMemoryInterface
from repro.core.path_oram import PathORAM
from repro.core.tree import EncryptedTreeStorage, FlatTreeStorage, PlainTreeStorage
from repro.errors import ConfigurationError
from repro.integrity.storage import IntegrityVerifiedStorage
from repro.processor.memory import ORAMBackend


def _config(**kwargs) -> ORAMConfig:
    defaults = dict(working_set_blocks=64, z=4, block_bytes=32, stash_capacity=100)
    defaults.update(kwargs)
    return ORAMConfig(**defaults)


def _hierarchy() -> HierarchyConfig:
    return HierarchyConfig(
        data_oram=_config(working_set_blocks=256, block_bytes=64, stash_capacity=150),
        position_map_block_bytes=8,
        onchip_position_map_limit_bytes=32,
    )


class TestSpecValidation:
    def test_builtin_storage_stacks_registered(self):
        assert {"flat", "plain", "encrypted", "integrity"} <= set(storage_backends())

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            OramSpec(protocol="onion")

    def test_unknown_storage_rejected(self):
        with pytest.raises(ConfigurationError):
            OramSpec(storage="punched-cards")

    def test_unknown_eviction_rejected(self):
        with pytest.raises(ConfigurationError):
            OramSpec(eviction="hopeful")

    def test_hierarchical_rejects_forced_eviction(self):
        with pytest.raises(ConfigurationError):
            OramSpec(protocol="hierarchical", eviction="background")

    def test_specs_are_picklable(self):
        spec = OramSpec(protocol="hierarchical", storage="encrypted", key_seed=3)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_with_updates(self):
        spec = OramSpec().with_updates(storage="plain")
        assert spec.storage == "plain"
        assert spec.protocol == "flat"


class TestConstruction:
    @pytest.mark.parametrize(
        "storage,expected",
        [
            ("flat", FlatTreeStorage),
            ("plain", PlainTreeStorage),
            ("encrypted", EncryptedTreeStorage),
            ("integrity", IntegrityVerifiedStorage),
        ],
    )
    def test_flat_protocol_storage_stacks(self, storage, expected):
        config = _config()
        oram = build_oram(OramSpec(storage=storage), config, seed=1)
        assert isinstance(oram, PathORAM)
        assert isinstance(oram.storage, expected)
        oram.write(1, b"x")
        assert oram.read(1).data == b"x"

    def test_hierarchical_protocol(self):
        oram = build_oram(OramSpec(protocol="hierarchical"), _hierarchy(), seed=2)
        assert isinstance(oram, HierarchicalPathORAM)
        assert oram.num_orams >= 2
        oram.write(5, "five")
        assert oram.read(5).data == "five"

    def test_hierarchical_encrypted_stack(self):
        oram = build_oram(
            OramSpec(protocol="hierarchical", storage="encrypted", key_seed=9),
            _hierarchy(),
            seed=2,
        )
        for underlying in oram.orams:
            assert isinstance(underlying.storage, EncryptedTreeStorage)
        oram.write(7, b"seven")
        assert oram.read(7).data == b"seven"

    def test_protocol_config_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            build_oram(OramSpec(protocol="flat"), _hierarchy(), seed=0)
        with pytest.raises(ConfigurationError):
            build_oram(OramSpec(protocol="hierarchical"), _config(), seed=0)

    def test_eviction_policies_resolved(self):
        from repro.core.background_eviction import (
            BackgroundEviction,
            InsecureBlockRemapEviction,
            NoEviction,
        )

        config = _config()
        assert isinstance(
            build_oram(OramSpec(eviction="none"), config, seed=0).eviction_policy,
            NoEviction,
        )
        assert isinstance(
            build_oram(OramSpec(eviction="background"), config, seed=0).eviction_policy,
            BackgroundEviction,
        )
        assert isinstance(
            build_oram(OramSpec(eviction="insecure"), config, seed=0).eviction_policy,
            InsecureBlockRemapEviction,
        )

    def test_build_interface_and_memory_backend(self):
        interface = build_interface(OramSpec(), _config(), seed=4)
        assert isinstance(interface, ORAMMemoryInterface)
        backend = build_memory_backend(
            OramSpec(protocol="hierarchical"),
            _hierarchy(),
            return_data_cycles=100.0,
            finish_access_cycles=200.0,
            line_bytes=64,
            seed=4,
        )
        assert isinstance(backend, ORAMBackend)
        result = backend.fetch_line(1, now_cycles=0.0)
        assert result.latency_cycles >= 100.0

    def test_seed_and_rng_are_equivalent(self):
        config = _config()
        by_seed = build_oram(OramSpec(), config, seed=11)
        by_rng = build_oram(OramSpec(), config, rng=random.Random(11))
        for address in (3, 9, 27):
            assert by_seed.write(address, address).found == by_rng.write(address, address).found
        assert by_seed.stash_addresses() == by_rng.stash_addresses()


class TestRegistration:
    def test_custom_storage_stack_registers_and_builds(self):
        name = "test-custom-stack"

        @register_storage(name)
        def _custom(spec):
            return PlainTreeStorage

        try:
            assert name in storage_backends()
            oram = build_oram(OramSpec(storage=name), _config(), seed=0)
            assert isinstance(oram.storage, PlainTreeStorage)
            factory = storage_factory(OramSpec(storage=name))
            assert isinstance(factory(_config()), PlainTreeStorage)
        finally:
            from repro import backends

            backends._STORAGE_BUILDERS.pop(name, None)


class TestNumpyFlatStack:
    """The NumPy column layout (:class:`NumpyFlatTreeStorage`), registered
    only as the durable ``memmap-flat`` stack."""

    def _spec(self, tmp_path, **kwargs) -> OramSpec:
        pytest.importorskip("numpy")
        return OramSpec(
            storage="memmap-flat",
            storage_path=str(tmp_path),
            memmap_sync="relaxed",
            **kwargs,
        )

    def test_registration_tracks_numpy_availability(self):
        try:
            import numpy  # noqa: F401
        except ImportError:
            assert "memmap-flat" not in storage_backends()
            with pytest.raises(ConfigurationError):
                OramSpec(storage="memmap-flat")
        else:
            assert "memmap-flat" in storage_backends()

    def test_builds_column_storage(self, tmp_path):
        spec = self._spec(tmp_path)
        from repro.core.numpy_tree import NumpyFlatTreeStorage

        oram = build_oram(spec, _config(), seed=3)
        assert isinstance(oram.storage, NumpyFlatTreeStorage)
        assert oram._column_engine is not None
        oram.write(5, b"x")
        assert oram.read(5).data == b"x"
        assert oram.storage.occupancy() == oram.total_blocks_stored() - oram.stash_occupancy

    def test_round_trips_payloads_through_columns(self, tmp_path):
        config = _config()
        oram = build_oram(self._spec(tmp_path), config, seed=5)
        assert oram._column_engine is not None
        payloads = {address: bytes([address]) * 4 for address in range(1, 33)}
        for address, payload in payloads.items():
            oram.write(address, payload)
        for address, payload in payloads.items():
            assert oram.read(address).data == payload

    def test_spec_with_numpy_flat_travels_through_pickle(self, tmp_path):
        spec = self._spec(tmp_path)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_column_engine_attaches_only_to_exact_columnar_storage(self, tmp_path):
        oram = build_oram(self._spec(tmp_path / "a"), _config(), seed=3)
        assert oram._column_engine is not None
        listed = build_oram(OramSpec(storage="flat"), _config(), seed=3)
        assert listed._column_engine is None
        grouped = build_oram(
            self._spec(tmp_path / "b"),
            _config(super_block_size=2),
            seed=3,
        )
        assert grouped._column_engine is None


