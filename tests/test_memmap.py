"""Durable memory-mapped storage: commit protocol, crash recovery, restore.

The centrepiece is the seeded crash-injection property test: for every
named commit-protocol crash point and several seeds, a
:class:`~repro.faults.CrashInjector` scars the file the way a real crash
at that instant could and reopening must either land bit-identically on a
committed generation (verified against in-memory shadow digests) or raise
a typed :class:`~repro.errors.DurabilityError` — never return a silently
corrupt tree.  In ``sync="strict"`` mode recovery is *guaranteed* and the
typed-error branch is itself a failure.
"""

import os
import pickle
import random

import pytest

np = pytest.importorskip("numpy")

from repro.backends import (  # noqa: E402
    OramSpec,
    build_oram,
    restore_oram,
    storage_backends,
)
from repro.core.config import HierarchyConfig, ORAMConfig  # noqa: E402
from repro.core.memmap_tree import (  # noqa: E402
    CRASH_POINTS,
    MemmapTreeStorage,
    column_digest,
)
from repro.core.numpy_tree import NumpyFlatTreeStorage  # noqa: E402
from repro.core.path_oram import PathORAM  # noqa: E402
from repro.core.types import Operation  # noqa: E402
from repro.errors import ConfigurationError, DurabilityError  # noqa: E402
from repro.faults import CrashInjector, SimulatedCrash  # noqa: E402
from tests.test_access_many import fingerprint  # noqa: E402

CONFIG = ORAMConfig(working_set_blocks=48)


def _spec(tmp_path, **kwargs):
    return OramSpec(
        protocol="flat",
        storage="memmap-flat",
        storage_path=os.fspath(tmp_path),
        **kwargs,
    )


def _drive(oram, start, count, tag=b"w"):
    """Deterministic mixed stream with payload writes (exercises sidecar)."""
    rng = random.Random(start * 1031 + count)
    for i in range(start, start + count):
        address = 1 + (i * 7) % 48
        if i % 3:
            oram.access(address, Operation.WRITE, data=tag + b"%d" % i)
        else:
            oram.access(address, Operation.READ)
        # A sprinkle of rng-driven extra reads varies the touched paths.
        if rng.random() < 0.2:
            oram.access(1 + rng.randrange(48), Operation.READ)


# ----------------------------------------------------------------------
# Registration / spec plumbing
# ----------------------------------------------------------------------
def test_memmap_stack_registered():
    assert "memmap-flat" in storage_backends()


def test_storage_path_requires_memmap_stack():
    with pytest.raises(ConfigurationError):
        OramSpec(protocol="flat", storage="flat", storage_path="/tmp/x")


def test_memmap_spec_validation():
    with pytest.raises(ConfigurationError):
        OramSpec(storage="memmap-flat", memmap_sync="eventually")
    with pytest.raises(ConfigurationError):
        OramSpec(storage="memmap-flat", memmap_history=0)


def test_build_attaches_column_engine(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=3)
    assert isinstance(oram.storage, MemmapTreeStorage)
    assert oram._column_engine is not None
    oram.storage.abandon()


def test_sync_mode_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        MemmapTreeStorage(CONFIG, tmp_path / "t.tree", sync="lazy")
    with pytest.raises(ConfigurationError):
        MemmapTreeStorage(CONFIG, tmp_path / "t.tree", history_generations=0)


# ----------------------------------------------------------------------
# Differential equivalence with the volatile stacks
# ----------------------------------------------------------------------
def _numpy_twin(config, seed):
    """The flat-spec ORAM over an in-RAM column twin of the memmap stack."""
    return PathORAM(config, storage=NumpyFlatTreeStorage(config), rng=random.Random(seed))


@pytest.mark.parametrize("protocol", ["flat", "hierarchical"])
def test_memmap_bit_identical_to_numpy_flat(tmp_path, protocol):
    if protocol == "flat":
        # Against the in-RAM column twin: the columns themselves match.
        mm = build_oram(_spec(tmp_path), CONFIG, seed=5)
        ref = _numpy_twin(CONFIG, seed=5)
    else:
        # Against the list-backed stack: the full state fingerprints match.
        config = HierarchyConfig(
            data_oram=ORAMConfig(working_set_blocks=48, stash_capacity=150),
            position_map_block_bytes=8,
            onchip_position_map_limit_bytes=32,
        )
        mm_spec = OramSpec(
            protocol="hierarchical",
            storage="memmap-flat",
            storage_path=os.fspath(tmp_path),
        )
        mm = build_oram(mm_spec, config, seed=5)
        ref = build_oram(OramSpec(protocol="hierarchical"), config, seed=5)
        assert all(sub._column_engine is not None for sub in mm.orams)
    _drive(mm, 0, 150)
    _drive(ref, 0, 150)
    assert mm.stats.fingerprint() == ref.stats.fingerprint()
    if protocol == "flat":
        assert mm._column_engine is not None
        assert column_digest(mm.storage) == column_digest(ref.storage)
    else:
        assert fingerprint(mm) == fingerprint(ref)


# ----------------------------------------------------------------------
# Commit / reopen round-trips
# ----------------------------------------------------------------------
def test_commit_reopen_round_trip(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=7)
    storage = oram.storage
    _drive(oram, 0, 120)
    digest = storage.digest()
    generation = storage.commit()
    assert generation == 1
    assert storage.commit() == 1  # clean epoch: no new generation
    path = storage.file_path
    storage.abandon()

    reopened = MemmapTreeStorage.open(path)  # config from the header
    assert reopened.generation == 1
    assert reopened.digest() == digest
    assert reopened.occupancy() > 0
    reopened.abandon()


def test_open_missing_file(tmp_path):
    with pytest.raises(DurabilityError):
        MemmapTreeStorage.open(tmp_path / "nope.tree")


def test_open_detects_truncation(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=7)
    storage = oram.storage
    _drive(oram, 0, 60)
    storage.commit()
    path = storage.file_path
    storage.abandon()
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)
    with pytest.raises(DurabilityError, match="truncated"):
        MemmapTreeStorage.open(path)


def test_open_detects_corrupt_data_page(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=7)
    storage = oram.storage
    _drive(oram, 0, 60)
    storage.commit()
    path = storage.file_path
    offset = storage._layout.data_off + 13
    storage.abandon()
    # Remove the journal so the flip cannot be rolled back.
    os.remove(path + ".journal")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(DurabilityError, match="checksum"):
        MemmapTreeStorage.open(path)


def test_open_detects_double_header_loss(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=7)
    storage = oram.storage
    _drive(oram, 0, 30)
    storage.commit()
    path = storage.file_path
    storage.abandon()
    with open(path, "r+b") as handle:
        handle.write(os.urandom(8192))
    with pytest.raises(DurabilityError, match="header"):
        MemmapTreeStorage.open(path)


def test_open_detects_external_rollback(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=7)
    storage = oram.storage
    _drive(oram, 0, 30)
    storage.commit()
    path = storage.file_path
    storage.abandon()
    # A durable reference from the "future" of this file.
    with pytest.raises(DurabilityError, match="rolled back"):
        MemmapTreeStorage.open(path, at_generation=40)


def test_open_detects_store_replacement(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=7)
    storage = oram.storage
    storage.commit()
    storage.abandon()
    with pytest.raises(DurabilityError, match="store id"):
        MemmapTreeStorage.open(storage.file_path, expect_store_id=b"\x00" * 16, at_generation=0)


def test_crash_before_first_commit_recovers_empty_tree(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=7)
    storage = oram.storage
    empty_digest = storage.digest()
    _drive(oram, 0, 60)  # dirty epoch, never committed
    storage.abandon()
    reopened = MemmapTreeStorage.open(storage.file_path)
    assert reopened.generation == 0
    assert reopened.digest() == empty_digest
    reopened.abandon()


def test_reopened_store_resumes_bit_identically(tmp_path):
    """Abandon mid-epoch, reopen, and the ORAM continues exactly as a
    reference that committed at the same point and never crashed."""
    spec = _spec(tmp_path / "a")
    oram = build_oram(spec, CONFIG, seed=9)
    _drive(oram, 0, 80)
    snapshot = pickle.dumps(oram.snapshot())  # commits generation 1
    _drive(oram, 80, 40)  # epoch that will be lost
    oram.storage.abandon()

    resumed = restore_oram(pickle.loads(snapshot))
    reference = build_oram(_spec(tmp_path / "b"), CONFIG, seed=9)
    _drive(reference, 0, 80)
    _drive(resumed, 80, 60)
    _drive(reference, 80, 60)
    assert resumed.stats.fingerprint() == reference.stats.fingerprint()
    assert column_digest(resumed.storage) == column_digest(reference.storage)
    resumed.storage.abandon()
    reference.storage.abandon()


# ----------------------------------------------------------------------
# Snapshots: O(1) durable references + history rollback
# ----------------------------------------------------------------------
def test_snapshot_is_constant_size(tmp_path):
    config = ORAMConfig(working_set_blocks=2048)
    mm = build_oram(_spec(tmp_path), config, seed=11)
    ref = _numpy_twin(config, seed=11)
    for oram in (mm, ref):
        for i in range(60):  # payload-free so the reference is pure columns
            oram.access(1 + (i * 7) % 2048, Operation.READ)
    mm_size = len(pickle.dumps(mm.snapshot()))
    ref_size = len(pickle.dumps(ref.snapshot()))
    # The durable reference replaces the columns; even on this tiny tree
    # the envelope must come in well under the column-inlining snapshot.
    assert mm_size < ref_size / 2
    mm.storage.abandon()


def test_restore_rolls_back_committed_generations(tmp_path):
    spec = _spec(tmp_path / "a")
    oram = build_oram(spec, CONFIG, seed=13)
    _drive(oram, 0, 60)
    snapshot = pickle.dumps(oram.snapshot())  # generation 1
    _drive(oram, 60, 40)
    oram.storage.commit()  # generation 2
    _drive(oram, 100, 40)
    oram.storage.commit()  # generation 3
    oram.storage.abandon()

    resumed = restore_oram(pickle.loads(snapshot))
    assert resumed.storage.generation == 1
    reference = build_oram(_spec(tmp_path / "b"), CONFIG, seed=13)
    _drive(reference, 0, 60)
    _drive(resumed, 60, 40)
    _drive(reference, 60, 40)
    assert resumed.stats.fingerprint() == reference.stats.fingerprint()
    assert column_digest(resumed.storage) == column_digest(reference.storage)
    resumed.storage.abandon()
    reference.storage.abandon()


def test_restore_beyond_history_raises_typed_error(tmp_path):
    spec = _spec(tmp_path, memmap_history=1)
    oram = build_oram(spec, CONFIG, seed=13)
    _drive(oram, 0, 40)
    snapshot = pickle.dumps(oram.snapshot())  # generation 1
    for start in (40, 80, 120):  # three more generations; history keeps 1
        _drive(oram, start, 40)
        oram.storage.commit()
    oram.storage.abandon()
    with pytest.raises(DurabilityError, match="history"):
        restore_oram(pickle.loads(snapshot))


def test_restore_checks_column_checksum_pin(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=13)
    _drive(oram, 0, 40)
    storage = oram.storage
    generation = storage.commit()
    storage.abandon()
    with pytest.raises(DurabilityError, match="checksum"):
        MemmapTreeStorage.open(
            storage.file_path,
            at_generation=generation,
            expect_table_sha=b"\xab" * 32,
        )


# ----------------------------------------------------------------------
# The crash-injection property test
# ----------------------------------------------------------------------
def _crash_case(tmp_path, point, seed, sync):
    """One crash scenario; returns assertions' raw material."""
    spec = _spec(tmp_path, memmap_sync=sync)
    oram = build_oram(spec, CONFIG, seed=1)
    storage = oram.storage
    rng = random.Random(seed)
    for i in range(50):
        oram.access(1 + rng.randrange(48), Operation.WRITE, data=b"a%d" % i)
    storage.commit()
    committed_digest = storage.digest()
    committed_generation = storage.generation
    for i in range(50):
        oram.access(1 + rng.randrange(48), Operation.WRITE, data=b"b%d" % i)
    pending_digest = storage.digest()  # what commit would make durable
    injector = CrashInjector(storage, point, seed=seed * 31 + 7)
    try:
        for i in range(50):
            oram.access(1 + rng.randrange(48), Operation.WRITE, data=b"c%d" % i)
        pending_digest = storage.digest()
        storage.commit()
        crashed = False
    except SimulatedCrash:
        crashed = True
    path = storage.file_path
    storage.abandon()
    return crashed, injector, path, committed_generation, committed_digest, pending_digest


@pytest.mark.parametrize("point", CRASH_POINTS)
@pytest.mark.parametrize("seed", range(5))
def test_crash_point_recovers_or_typed_error_strict(tmp_path, point, seed):
    (crashed, injector, path, committed_generation, committed_digest,
     pending_digest) = _crash_case(tmp_path, point, seed, "strict")
    assert crashed and injector.fired, f"crash point {point} never reached"
    # Strict mode *guarantees* recovery: every pre-image is fsynced before
    # its page is first dirtied, so a typed error would be a protocol bug.
    reopened = MemmapTreeStorage.open(path)
    if reopened.generation == committed_generation:
        assert reopened.digest() == committed_digest
    else:
        # The crash landed after the commit point: the epoch is durable.
        assert reopened.generation == committed_generation + 1
        assert reopened.digest() == pending_digest
    reopened.abandon()


@pytest.mark.parametrize("point", ["commit-journal-sync", "data-sync", "header-sync"])
@pytest.mark.parametrize("seed", range(5))
def test_crash_point_recovers_or_typed_error_relaxed(tmp_path, point, seed):
    (crashed, injector, path, committed_generation, committed_digest,
     pending_digest) = _crash_case(tmp_path, point, seed, "relaxed")
    assert crashed and injector.fired
    # Relaxed mode trades the guarantee for speed: recovery when the scars
    # spared the unsynced journal, a typed error otherwise — never silence.
    try:
        reopened = MemmapTreeStorage.open(path)
    except DurabilityError:
        return
    if reopened.generation == committed_generation:
        assert reopened.digest() == committed_digest
    else:
        assert reopened.generation == committed_generation + 1
        assert reopened.digest() == pending_digest
    reopened.abandon()


def test_crash_injector_validates_inputs(tmp_path):
    oram = build_oram(_spec(tmp_path), CONFIG, seed=1)
    with pytest.raises(ValueError):
        CrashInjector(oram.storage, "no-such-point", seed=0)
    with pytest.raises(ValueError):
        CrashInjector(oram.storage, "header-sync", seed=0, occurrence=0)
    oram.storage.abandon()


def test_hard_killed_commit_is_recovered_by_stale_journal_archive(tmp_path):
    """A crash *after* the commit point but before journal archival must
    land on the new generation with the stale journal archived."""
    oram = build_oram(_spec(tmp_path), CONFIG, seed=1)
    storage = oram.storage
    _drive(oram, 0, 60)
    injector = CrashInjector(storage, "journal-archive", seed=3)
    with pytest.raises(SimulatedCrash):
        storage.commit()
    assert injector.fired
    path = storage.file_path
    storage.abandon()
    reopened = MemmapTreeStorage.open(path)
    assert reopened.generation == 1
    assert os.path.exists(path + ".undo/gen-1.journal")
    reopened.abandon()
