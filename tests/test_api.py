"""The stable public API facade.

Pins the two contracts of the facade:

* ``repro`` / ``repro.api`` export a curated, importable ``__all__`` —
  every listed name resolves, the construction entry points build both
  protocols, and the error hierarchy is reachable without deep imports.
* The examples' import surface (what the README shows) keeps working.
"""

import random

import pytest

import repro
import repro.api
from repro import (
    HierarchicalPathORAM,
    HierarchyConfig,
    ORAMConfig,
    OramService,
    OramSpec,
    PathORAM,
    ReproError,
    ServiceConfig,
    open_interface,
    open_oram,
    open_service,
    run_script,
    storage_backends,
    synthetic_script,
)
from repro.serve import oram_fingerprint as fingerprint


def _flat_config(**overrides) -> ORAMConfig:
    defaults = dict(working_set_blocks=128, z=4, block_bytes=32, stash_capacity=120)
    defaults.update(overrides)
    return ORAMConfig(**defaults)


def _hierarchy() -> HierarchyConfig:
    return HierarchyConfig(
        data_oram=ORAMConfig(working_set_blocks=256, z=4, block_bytes=64, stash_capacity=150),
        position_map_block_bytes=16,
        position_map_z=4,
        onchip_position_map_limit_bytes=64,
    )


class TestFacadeExports:
    def test_every_name_in_all_resolves(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_package_all_is_facade_plus_legacy_aliases(self):
        assert set(repro.api.__all__) <= set(repro.__all__)
        assert "build_oram" in repro.__all__  # legacy alias kept importable
        assert "build_interface" in repro.__all__
        assert repro.open_oram is repro.api.open_oram

    def test_all_is_sorted_within_sections_and_unique(self):
        assert len(repro.api.__all__) == len(set(repro.api.__all__))

    def test_storage_backends_exposed(self):
        names = storage_backends()
        assert {"flat", "plain", "encrypted", "integrity"} <= set(names)

    def test_error_hierarchy_reachable_from_facade(self):
        from repro import (
            CheckpointError,
            ConfigurationError,
            DurabilityError,
            EncryptionError,
            IntegrityError,
            StashOverflowError,
            TraceFormatError,
        )

        for error in (
            ConfigurationError,
            StashOverflowError,
            IntegrityError,
            CheckpointError,
            DurabilityError,
            EncryptionError,
            TraceFormatError,
        ):
            assert issubclass(error, ReproError)


class TestOpenOram:
    def test_open_oram_flat(self):
        oram = open_oram(OramSpec(protocol="flat"), _flat_config(), seed=3)
        assert isinstance(oram, PathORAM)
        oram.write(1, b"facade")
        assert oram.read(1).data == b"facade"

    def test_open_oram_hierarchical(self):
        oram = open_oram(OramSpec(protocol="hierarchical"), _hierarchy(), seed=3)
        assert isinstance(oram, HierarchicalPathORAM)
        oram.write(5, b"deep")
        assert oram.read(5).data == b"deep"

    def test_open_oram_matches_build_oram_bit_for_bit(self):
        spec = OramSpec(protocol="hierarchical", storage="encrypted", key_seed=5)
        via_facade = open_oram(spec, _hierarchy(), seed=11)
        via_registry = repro.build_oram(spec, _hierarchy(), seed=11)
        for address in range(1, 40):
            via_facade.access(address)
            via_registry.access(address)
        assert fingerprint(via_facade) == fingerprint(via_registry)
        assert via_facade._rng.getstate() == via_registry._rng.getstate()

    def test_open_oram_accepts_explicit_rng(self):
        oram = open_oram(OramSpec(protocol="flat"), _flat_config(), rng=random.Random(9))
        assert isinstance(oram, PathORAM)

    def test_open_interface(self):
        interface = open_interface(OramSpec(protocol="flat"), _flat_config(), seed=2)
        interface.writeback(3, b"via-interface")
        assert interface.fetch(3)[3] == b"via-interface"

    def test_open_service_preregisters_instances(self):
        service = open_service(instances={"a": (OramSpec(protocol="flat"), _flat_config(), 1)})
        assert list(service.instances) == ["a"]


class TestRemovedOptions:
    def test_coalesce_flag_is_gone(self):
        # Removed in 2.0: plb_entries_per_level=1 is the same capacity-1 buffer.
        with pytest.raises(TypeError):
            OramSpec(protocol="hierarchical", coalesce_position_ops=True)
        with pytest.raises(TypeError):
            HierarchicalPathORAM(_hierarchy(), rng=random.Random(1), coalesce_position_ops=True)
        assert not hasattr(HierarchicalPathORAM, "coalesce_position_ops")

    def test_spec_compressed_map_flag_is_gone(self):
        # Removed in 4.0: HierarchyConfig(compressed_position_map=True) is
        # the one switch for the compressed position-map layout.
        with pytest.raises(TypeError):
            OramSpec(protocol="hierarchical", compressed_position_map=True)

    def test_read_fusing_options_are_gone(self):
        # Removed in 4.0: every served request is one access that returns
        # its data, so there is no fused path to switch on or opt out of.
        with pytest.raises(TypeError):
            ServiceConfig(fuse_reads=False)
        with pytest.raises(TypeError):
            synthetic_script(1, ["t"], ["main"], 4, 4, collect_fraction=0.5)

    def test_fair_share_quotas_are_gone(self):
        # Removed in 5.0: each instance admits in arrival order, the
        # paper's one accessORAM per request, so there is no quota to set.
        with pytest.raises(TypeError):
            ServiceConfig(default_quota=1)
        with pytest.raises(TypeError):
            run_script([], {"main": (OramSpec(), _flat_config(), 1)}, quotas={})
        assert not hasattr(OramService, "set_tenant_quota")

    def test_create_on_miss_flag_is_gone(self):
        # Removed in 5.0: every address exists, so a miss always creates
        # the block (the processor model of the paper).
        with pytest.raises(TypeError):
            OramSpec(create_on_miss=False)
        with pytest.raises(TypeError):
            PathORAM(_flat_config(), create_on_miss=False)
