"""Checkpoint/resume: snapshot round-trips, the manager, and runner resume."""

import os
import pickle
import random
from dataclasses import dataclass

import pytest

from repro.backends import OramSpec, build_oram, restore_oram
from repro.core.bucket_codec import BucketCodec
from repro.core.config import ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.path_oram import PathORAM
from repro.core.presets import dz3pb32
from repro.core.snapshot import SNAPSHOT_VERSION, snapshot_kind
from repro.core.types import Block, Operation
from repro.errors import CheckpointError, ConfigurationError, EncryptionError
from repro.runner import (
    CheckpointManager,
    ExperimentRunner,
    ExperimentSpec,
    WindowPlan,
    derive_seed,
    run_windows,
)
from repro.runner.spec import ExperimentResult


def _flat_oram(spec_kwargs=None, seed=11):
    spec = OramSpec(protocol="flat", storage="flat", **(spec_kwargs or {}))
    return build_oram(spec, ORAMConfig(working_set_blocks=48), seed=seed)


def _drive(oram, start, count, working_set=48):
    """Deterministic mixed read/write stream; returns the observable log."""
    log = []
    for i in range(start, start + count):
        address = 1 + (i * 7) % working_set
        if i % 3:
            result = oram.access(address, Operation.WRITE, data=("payload", i))
        else:
            result = oram.access(address, Operation.READ)
        log.append((address, result.data, result.found))
    return log


def _flat_fingerprint(oram):
    return (
        oram.stats.fingerprint(),
        oram._stash.fingerprint(),
        oram._mapper.fingerprint() if hasattr(oram._mapper, "fingerprint") else None,
        oram._rng.getstate(),
        oram.position_map.leaves if hasattr(oram.position_map, "leaves") else None,
    )


class TestSnapshotRoundtrip:
    def test_flat_resume_is_bit_exact(self):
        straight = _flat_oram()
        log_a = _drive(straight, 0, 300)

        first = _flat_oram()
        assert log_a[:150] == _drive(first, 0, 150)
        snapshot = first.snapshot()
        resumed = PathORAM.restore(snapshot)
        assert resumed is not first
        assert log_a[150:] == _drive(resumed, 150, 150)
        assert _flat_fingerprint(resumed) == _flat_fingerprint(straight)

    def test_snapshot_with_a_block_free_list_restores(self):
        # Snapshots written while PathORAM kept a Block free-list pickle it
        # as ``_block_pool``; restore drops it and resumes bit-exactly.
        straight = _flat_oram()
        log_a = _drive(straight, 0, 300)

        first = _flat_oram()
        _drive(first, 0, 150)
        first._block_pool = [Block(address=1, leaf=0, data=None)]
        resumed = PathORAM.restore(first.snapshot())
        assert not hasattr(resumed, "_block_pool")
        assert log_a[150:] == _drive(resumed, 150, 150)
        assert _flat_fingerprint(resumed) == _flat_fingerprint(straight)

    def test_snapshot_with_a_static_payload_check_restores(self):
        # Snapshots written while the codec's payload check was a
        # staticmethod pickle ``_payload_check`` as the plain function
        # ``BucketCodec.check_payload``, which now names an instance method;
        # restore re-derives the check from the storage, so writes still run
        # and an oversized payload is still refused.
        config = ORAMConfig(working_set_blocks=48, block_bytes=32)
        oram = build_oram(OramSpec(protocol="flat", storage="integrity"), config, seed=5)
        oram.access_many(list(range(1, 25)), Operation.WRITE, b"w")
        oram._payload_check = BucketCodec.check_payload
        resumed = PathORAM.restore(oram.snapshot())
        resumed.access(3, Operation.WRITE, b"y" * 32)
        assert resumed.access(3).data == b"y" * 32
        with pytest.raises(EncryptionError, match="exceeds block_bytes"):
            resumed.access(3, Operation.WRITE, b"x" * 33)
        assert resumed.access(3).data == b"y" * 32

    def test_snapshot_does_not_alias_the_original(self):
        first = _flat_oram()
        _drive(first, 0, 60)
        resumed = PathORAM.restore(first.snapshot())
        _drive(first, 60, 60)
        # The original moved on; the restored copy is an independent fork.
        assert _flat_fingerprint(resumed) != _flat_fingerprint(first)
        _drive(resumed, 60, 60)
        assert _flat_fingerprint(resumed) == _flat_fingerprint(first)

    def test_dynamic_super_block_mapper_state_rides_along(self):
        kwargs = {"dynamic_super_blocks": True, "super_block_window": 64}
        straight = _flat_oram(kwargs)
        _drive(straight, 0, 240)
        first = _flat_oram(kwargs)
        _drive(first, 0, 120)
        resumed = PathORAM.restore(first.snapshot())
        _drive(resumed, 120, 120)
        assert resumed._mapper.fingerprint() == straight._mapper.fingerprint()
        assert _flat_fingerprint(resumed) == _flat_fingerprint(straight)

    def test_numpy_stack_resume_is_bit_exact(self, tmp_path):
        pytest.importorskip("numpy")

        def build(directory):
            spec = OramSpec(
                protocol="flat",
                storage="memmap-flat",
                storage_path=os.fspath(directory),
                memmap_sync="relaxed",
            )
            oram = build_oram(spec, ORAMConfig(working_set_blocks=48), seed=11)
            assert oram._column_engine is not None
            return oram

        straight = build(tmp_path / "straight")
        log_a = _drive(straight, 0, 300)
        first = build(tmp_path / "first")
        _drive(first, 0, 150)
        resumed = PathORAM.restore(first.snapshot())
        # The column engine is derived state: rebuilt, not serialised.
        assert resumed._column_engine is not None
        assert resumed._column_engine is not first._column_engine
        assert log_a[150:] == _drive(resumed, 150, 150)
        assert resumed.stats.fingerprint() == straight.stats.fingerprint()
        assert resumed._rng.getstate() == straight._rng.getstate()

    def test_hierarchical_plb_resume_is_bit_exact(self):
        spec = OramSpec(
            protocol="hierarchical",
            storage="flat",
            plb_entries_per_level=4,
            dynamic_super_blocks=True,
        )
        config = dz3pb32(scale=0.02)
        straight = build_oram(spec, config, seed=5)
        log_a = _drive(straight, 0, 220, working_set=config.data_oram.working_set_blocks)

        first = build_oram(spec, config, seed=5)
        working_set = config.data_oram.working_set_blocks
        assert log_a[:110] == _drive(first, 0, 110, working_set=working_set)
        resumed = HierarchicalPathORAM.restore(first.snapshot())
        assert log_a[110:] == _drive(resumed, 110, 110, working_set=working_set)
        assert resumed.plb.fingerprint() == straight.plb.fingerprint()
        assert resumed.stats.fingerprint() == straight.stats.fingerprint()
        for restored_oram, reference in zip(resumed.orams, straight.orams):
            assert restored_oram.stats.fingerprint() == reference.stats.fingerprint()
            assert restored_oram._stash.fingerprint() == reference._stash.fingerprint()
        assert resumed._rng.getstate() == straight._rng.getstate()
        # The chain children must share one RNG after restore, like at build.
        assert all(o._rng is resumed._rng for o in resumed.orams)

    def test_restore_oram_dispatches_on_kind(self):
        flat = _flat_oram()
        _drive(flat, 0, 30)
        restored = restore_oram(flat.snapshot())
        assert isinstance(restored, PathORAM)

        hier = build_oram(
            OramSpec(protocol="hierarchical", storage="flat"), dz3pb32(scale=0.02), seed=3
        )
        _drive(hier, 0, 20, working_set=hier.hierarchy.data_oram.working_set_blocks)
        assert isinstance(restore_oram(hier.snapshot()), HierarchicalPathORAM)

    def test_envelope_rejections(self):
        flat = _flat_oram()
        snapshot = flat.snapshot()
        assert snapshot_kind(snapshot) == PathORAM.SNAPSHOT_KIND

        with pytest.raises(CheckpointError):
            PathORAM.restore({"format": "something-else"})
        with pytest.raises(CheckpointError):
            PathORAM.restore({**snapshot, "version": SNAPSHOT_VERSION + 1})
        with pytest.raises(CheckpointError):
            HierarchicalPathORAM.restore(snapshot)  # wrong kind
        with pytest.raises(CheckpointError):
            PathORAM.restore({**snapshot, "state": None})
        with pytest.raises(CheckpointError):
            restore_oram({**snapshot, "kind": "unknown-oram"})
        with pytest.raises(CheckpointError):
            snapshot_kind([1, 2, 3])


def _grid_point(value, seed=0):
    """Module-level experiment function (picklable for the process pool)."""
    rng = random.Random(seed)
    return (value, rng.randrange(1_000_000), rng.getrandbits(32))


def _grid_specs(values, base_seed=7):
    return [
        ExperimentSpec(
            key=("ck", value),
            fn=_grid_point,
            kwargs={"value": value},
            seed=derive_seed(base_seed, ("ck", value)),
        )
        for value in values
    ]


@dataclass(frozen=True)
class WindowCounters:
    accesses: int
    checksum: int


def _window_point(scale, num_accesses, seed=0):
    rng = random.Random(seed)
    checksum = sum(rng.randrange(scale) for _ in range(num_accesses))
    return WindowCounters(accesses=num_accesses, checksum=checksum)


class TestCheckpointManager:
    def test_roundtrip_and_generation(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        manager = CheckpointManager(path)
        assert manager.generation == 0 and manager.completed == 0
        manager.record(ExperimentResult(key=("a", 1), value=42))
        assert os.path.exists(path)
        reloaded = CheckpointManager(path)
        assert reloaded.completed == 1
        assert reloaded.result_for(("a", 1)).value == 42
        assert reloaded.result_for(("a", 2)) is None
        assert reloaded.generation == manager.generation == 1

    def test_save_cadence(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        manager = CheckpointManager(path, every=3)
        manager.record(ExperimentResult(key=1, value=1))
        manager.record(ExperimentResult(key=2, value=2))
        assert not os.path.exists(path)
        manager.record(ExperimentResult(key=3, value=3))
        assert os.path.exists(path)
        assert CheckpointManager(path).completed == 3

    def test_failed_results_are_not_recorded(self, tmp_path):
        manager = CheckpointManager(tmp_path / "grid.ckpt")
        manager.record(ExperimentResult(key=1, error="boom", error_type="ValueError"))
        assert manager.completed == 0
        assert manager.result_for(1) is None

    def test_corrupt_payload_rejected(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        CheckpointManager(path).record(ExperimentResult(key=1, value=1))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest"):
            CheckpointManager(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        path.write_bytes(b"short")
        with pytest.raises(CheckpointError, match="truncated"):
            CheckpointManager(path)

    def test_unknown_format_and_newer_version_rejected(self, tmp_path):
        import hashlib

        path = tmp_path / "grid.ckpt"
        for envelope in (
            {"format": "other", "version": 1, "generation": 1, "results": {}},
            {"format": "repro-checkpoint", "version": 99, "generation": 1, "results": {}},
        ):
            payload = pickle.dumps(envelope)
            generation = (1).to_bytes(8, "big")
            digest = hashlib.sha256(generation + payload).digest()
            path.write_bytes(digest + generation + payload)
            with pytest.raises(CheckpointError):
                CheckpointManager(path)

    def test_generation_rollback_refused(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        stale = CheckpointManager(path)
        stale.record(ExperimentResult(key=1, value=1))
        newer = CheckpointManager(path)
        newer.record(ExperimentResult(key=2, value=2))
        # ``stale`` now lags the on-disk generation; writing would roll the
        # newer process's results back.
        stale._results["extra"] = ExperimentResult(key=3, value=3)
        stale._dirty = 1
        with pytest.raises(CheckpointError, match="advanced externally"):
            stale.save()

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        manager = CheckpointManager(tmp_path / "grid.ckpt")
        for index in range(5):
            manager.record(ExperimentResult(key=index, value=index))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.ckpt"]


class TestRunnerResume:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_interrupted_grid_resumes_bit_identically(self, tmp_path, executor):
        specs = _grid_specs(list(range(12)))
        reference = ExperimentRunner().run(specs)

        path = tmp_path / "grid.ckpt"
        # "Crash" after the first five points: only they reach the file.
        ExperimentRunner().run(specs[:5], checkpoint=CheckpointManager(path))
        assert CheckpointManager(path).completed == 5

        executed = []
        resumed = ExperimentRunner(
            executor=executor,
            max_workers=2,
            progress=lambda done, total, result: executed.append((done, total)),
        ).run(specs, checkpoint=CheckpointManager(path))
        assert [r.value for r in resumed] == [r.value for r in reference]
        assert [r.key for r in resumed] == [r.key for r in reference]
        # Progress reaches (total, total) counting cached points too.
        assert executed[-1] == (12, 12)
        assert CheckpointManager(path).completed == 12

    def test_resumed_values_match_via_run_values(self, tmp_path):
        specs = _grid_specs(list(range(8)))
        reference = ExperimentRunner().run_values(specs)
        path = tmp_path / "grid.ckpt"
        ExperimentRunner().run(specs[:3], checkpoint=CheckpointManager(path))
        resumed = ExperimentRunner().run_values(specs, checkpoint=CheckpointManager(path))
        assert resumed == reference

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_window_plan_resumes_bit_identically(self, tmp_path, executor):
        plan = WindowPlan.split(key="win", base_seed=9, total_accesses=600, windows=6)
        kwargs = {"scale": 1000}
        reference = run_windows(_window_point, plan, kwargs=kwargs)

        path = tmp_path / "windows.ckpt"
        # Interrupt after three windows.
        partial = WindowPlan(key="win", base_seed=9, window_accesses=plan.window_accesses[:3])
        run_windows(_window_point, partial, kwargs=kwargs, checkpoint=CheckpointManager(path))
        resumed = run_windows(
            _window_point,
            plan,
            kwargs=kwargs,
            executor=executor,
            max_workers=2,
            checkpoint=CheckpointManager(path),
        )
        assert resumed == reference

    def test_checkpointed_run_tolerates_missing_file_dir_entries(self, tmp_path):
        # A checkpoint pointed at a fresh path is simply empty.
        manager = CheckpointManager(tmp_path / "new.ckpt")
        results = ExperimentRunner().run(_grid_specs([1, 2]), checkpoint=manager)
        assert all(result.ok for result in results)
        assert manager.completed == 2


class TestKeepGenerations:
    def test_bounded_history_is_pruned(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        manager = CheckpointManager(path, keep_generations=2)
        for index in range(5):
            manager.record(ExperimentResult(key=index, value=index))
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["grid.ckpt", "grid.ckpt.gen00000004", "grid.ckpt.gen00000005"]

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path / "grid.ckpt", keep_generations=0)

    def test_corrupt_main_falls_back_to_newest_generation(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        manager = CheckpointManager(path, keep_generations=3)
        for index in range(4):
            manager.record(ExperimentResult(key=index, value=index))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        # Replace (not rewrite in place): the newest generation file is a
        # hard link to the same inode, and a real torn save corrupts the
        # main name, not the retained history.
        corrupt = tmp_path / "corrupt.tmp"
        corrupt.write_bytes(bytes(blob))
        os.replace(corrupt, path)
        # Default (latest-only) mode still refuses the corrupt file...
        with pytest.raises(CheckpointError, match="digest"):
            CheckpointManager(path)
        # ...keep mode resumes from the newest intact generation file.
        recovered = CheckpointManager(path, keep_generations=3)
        assert recovered.completed == 4
        assert recovered.generation == 4
        # And saving over the corrupt main file is not a rollback.
        recovered.record(ExperimentResult(key=9, value=9))
        assert CheckpointManager(path).completed == 5

    def test_missing_main_falls_back_to_newest_generation(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        manager = CheckpointManager(path, keep_generations=2)
        for index in range(3):
            manager.record(ExperimentResult(key=index, value=index))
        os.remove(path)
        recovered = CheckpointManager(path, keep_generations=2)
        assert recovered.completed == 3

    def test_rollback_detection_still_intact(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        stale = CheckpointManager(path, keep_generations=2)
        stale.record(ExperimentResult(key=1, value=1))
        newer = CheckpointManager(path, keep_generations=2)
        newer.record(ExperimentResult(key=2, value=2))
        stale._results["extra"] = ExperimentResult(key=3, value=3)
        stale._dirty = 1
        with pytest.raises(CheckpointError, match="advanced externally"):
            stale.save()


class TestSnapshotEnvelopeErrors:
    """Direct coverage of load_snapshot's error paths (not just restore)."""

    def test_non_envelope_inputs(self):
        from repro.core.snapshot import load_snapshot

        for bad in (None, 42, [1], {"format": "other"}):
            with pytest.raises(CheckpointError, match="not a snapshot"):
                load_snapshot(bad, "path-oram", PathORAM)

    def test_version_mismatch_both_directions(self):
        flat = _flat_oram()
        snapshot = flat.snapshot()
        for version in (SNAPSHOT_VERSION + 1, SNAPSHOT_VERSION - 1, None, "x"):
            with pytest.raises(CheckpointError, match="version"):
                PathORAM.restore({**snapshot, "version": version})

    def test_missing_and_non_bytes_state(self):
        flat = _flat_oram()
        snapshot = flat.snapshot()
        without_state = {k: v for k, v in snapshot.items() if k != "state"}
        for bad in (without_state, {**snapshot, "state": "text"}):
            with pytest.raises(CheckpointError, match="state"):
                PathORAM.restore(bad)

    def test_corrupt_state_bytes(self):
        flat = _flat_oram()
        snapshot = flat.snapshot()
        with pytest.raises(CheckpointError, match="deserialise"):
            PathORAM.restore({**snapshot, "state": b"\x80\x05garbage"})

    def test_unexpected_restored_class(self):
        from repro.core.snapshot import load_snapshot, make_snapshot

        envelope = make_snapshot({"not": "an oram"}, "path-oram")
        with pytest.raises(CheckpointError, match="expected PathORAM"):
            load_snapshot(envelope, "path-oram", PathORAM)

    def test_kind_tag_missing(self):
        with pytest.raises(CheckpointError, match="kind"):
            snapshot_kind({"format": "repro-oram-snapshot", "version": 1})
