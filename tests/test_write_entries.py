"""Validation at the write entry points, before any state changes.

Two checks run where a caller hands the ORAM an operation and a payload:

* ``op`` goes through :func:`repro.core.types.as_operation`: the strings
  ``"read"`` and ``"write"`` mean what they say on every stack and entry
  point, and anything else raises :class:`ConfigurationError`;
* on the stacks that encode payloads (``encrypted``, ``integrity`` and a
  :class:`~repro.faults.FaultInjector` device) a payload the bucket codec
  cannot encode, or ``bytes`` longer than ``block_bytes``, raises
  :class:`EncryptionError`; on the others (``flat``, ``plain``,
  ``memmap-flat``) ``bytes`` longer than ``block_bytes`` raise
  :class:`ConfigurationError`.  Either way the ORAM afterwards matches a
  twin that never saw the bad write.
"""

import random

import pytest

from repro.backends import OramSpec
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.hierarchical import HierarchicalPathORAM
from repro.core.path_oram import PathORAM
from repro.core.tree import EncryptedTreeStorage
from repro.core.types import Operation, as_operation
from repro.crypto.bucket_encryption import CounterBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.errors import ConfigurationError, EncryptionError
from repro.faults import FaultInjector
from repro.integrity.storage import IntegrityVerifiedStorage
from repro.serve.request import Request
from tests.test_access_many import STACKS, build_stack, fingerprint

CONFIG = ORAMConfig(working_set_blocks=64, z=4, block_bytes=32, stash_capacity=80)
HIERARCHY = HierarchyConfig(
    data_oram=ORAMConfig(working_set_blocks=256, z=4, block_bytes=32, stash_capacity=100),
    position_map_block_bytes=8,
    onchip_position_map_limit_bytes=32,
)
STACK_NAMES = sorted(set(STACKS) | {"integrity"})
ENCODING_STACKS = ["encrypted", "integrity"]
PLAIN_PAYLOAD_STACKS = [name for name in STACK_NAMES if name not in ENCODING_STACKS]


def build(protocol, storage, tmp_path, seed=5):
    config = HIERARCHY if protocol == "hierarchical" else CONFIG
    return build_stack(OramSpec(protocol=protocol, storage=storage), config, seed, tmp_path)


def state(oram):
    orams = oram.orams if isinstance(oram, HierarchicalPathORAM) else [oram]
    return fingerprint(oram), orams[0]._rng.getstate()


def path_leaves(oram, address):
    """The current leaf of ``address`` and a fresh one, for ``access_path``."""
    leaf = oram.position_map.leaves[address - 1]
    return leaf, (leaf + 1) % oram.config.num_leaves


class TestAsOperation:
    def test_normalizes_strings_and_passes_operations(self):
        assert as_operation("read") is Operation.READ
        assert as_operation("write") is Operation.WRITE
        assert as_operation(Operation.WRITE) is Operation.WRITE

    @pytest.mark.parametrize("bad", ["wrte", "WRITE", "", None, 1, b"write", ["write"]])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ConfigurationError):
            as_operation(bad)
        with pytest.raises(ConfigurationError):
            Request("tenant", "main", 1, bad)

    def test_request_normalizes(self):
        assert Request("tenant", "main", 1, "write", b"x").op is Operation.WRITE


class TestStringOps:
    @pytest.mark.parametrize("protocol", ["flat", "hierarchical"])
    @pytest.mark.parametrize("storage", STACK_NAMES)
    def test_string_write_writes(self, protocol, storage, tmp_path):
        oram = build(protocol, storage, tmp_path)
        oram.access(3, Operation.WRITE, b"v1")
        oram.access(3, "write", b"v2")
        assert oram.access(3, "read").data == b"v2"
        oram.access_many([3, 4], "write", b"v3")
        assert oram.access(4).data == b"v3"
        assert oram.access(3).data == b"v3"
        if protocol == "flat":
            oram.access_path(3, *path_leaves(oram, 3), "write", b"v4")
            assert oram.access(3).data == b"v4"

    @pytest.mark.parametrize("storage", ["flat", "integrity"])
    def test_unknown_op_raises_before_the_chain_moves(self, storage, tmp_path):
        # The flat protocol's entry points are in test_core_path_oram's BAD_CALLS.
        oram = build("hierarchical", storage, tmp_path)
        oram.access_many(range(1, 41))
        before = state(oram)
        for call in (
            lambda: oram.access(3, "wrte", b"x"),
            lambda: oram.access_many([3, 4], "WRITE", b"x"),
            lambda: oram.access(3, None),
        ):
            with pytest.raises(ConfigurationError):
                call()
            assert state(oram) == before


#: Payloads the bucket codec refuses: each either cannot be stored or would
#: read back as another object than was written (``["1", "2"]``,
#: ``[True, 2]`` and ``(5, 6)`` as lists of ints).
BAD_PAYLOADS = [
    "a string", object(), True, 2**200, [-1], ["a"], 1.5, ["1", "2"], [True, 2], (5, 6)
]


def bad_write_calls(protocol):
    calls = {
        "access": lambda oram, bad: oram.access(3, Operation.WRITE, bad),
        "access str op": lambda oram, bad: oram.access(3, "write", bad),
        "access_many": lambda oram, bad: oram.access_many([5, 3], Operation.WRITE, bad),
        "insert": lambda oram, bad: oram.insert(3, bad),
    }
    if protocol == "flat":
        calls["access_path"] = lambda oram, bad: oram.access_path(
            3, *path_leaves(oram, 3), Operation.WRITE, bad
        )
    return calls


class TestUnencodablePayloads:
    @pytest.mark.parametrize("protocol", ["flat", "hierarchical"])
    @pytest.mark.parametrize("storage", ENCODING_STACKS)
    def test_bad_payload_is_rejected_and_leaves_the_oram_as_its_twin(
        self, protocol, storage, tmp_path
    ):
        oram = build(protocol, storage, tmp_path)
        twin = build(protocol, storage, tmp_path)
        warmup = list(range(1, 41))
        for sub in (oram, twin):
            sub.access_many(warmup, Operation.WRITE, b"w")
        for name, call in bad_write_calls(protocol).items():
            for bad in BAD_PAYLOADS:
                with pytest.raises(EncryptionError):
                    call(oram, bad)
                assert state(oram) == state(twin), (name, bad)
        # Both keep serving every address identically.
        for sub in (oram, twin):
            sub.access(3, Operation.WRITE, b"ok")
            results = [sub.access(address).data for address in (3, 7, 9, 11)]
            assert results == [b"ok", b"w", b"w", b"w"]
        assert state(oram) == state(twin)


#: Both test configs use 32-byte blocks.
BLOCK_BYTES = 32
OVERSIZED = [b"x" * (BLOCK_BYTES + 1), bytearray(1000)]


def fault_injector_stack(wrap_in_integrity, seed=5):
    """A flat ORAM on a fault-injecting device, bare or integrity-verified."""
    cipher = CounterBucketCipher(ProcessorKey(seed=1))
    storage = FaultInjector(EncryptedTreeStorage(CONFIG, cipher))
    if wrap_in_integrity:
        storage = IntegrityVerifiedStorage(CONFIG, cipher, inner=storage)
    return PathORAM(CONFIG, storage=storage, rng=random.Random(seed))


def assert_oversized_writes_leave_no_trace(oram, twin, protocol, error=EncryptionError):
    for sub in (oram, twin):
        sub.access_many(list(range(1, 41)), Operation.WRITE, b"w")
    for name, call in bad_write_calls(protocol).items():
        for bad in OVERSIZED:
            with pytest.raises(error, match=f"exceeds block_bytes={BLOCK_BYTES}") as raised:
                call(oram, bad)
            assert raised.type is error
            assert state(oram) == state(twin), (name, len(bad))
    # A payload of exactly block_bytes is a full block, and is accepted.
    full = bytes(range(BLOCK_BYTES))
    for sub in (oram, twin):
        sub.access(3, Operation.WRITE, full)
        assert [sub.access(address).data for address in (3, 7)] == [full, b"w"]
    assert state(oram) == state(twin)


class TestOversizedPayloads:
    @pytest.mark.parametrize("protocol", ["flat", "hierarchical"])
    @pytest.mark.parametrize("storage", ENCODING_STACKS)
    def test_oversized_bytes_are_rejected_and_leave_the_oram_as_its_twin(
        self, protocol, storage, tmp_path
    ):
        assert_oversized_writes_leave_no_trace(
            build(protocol, storage, tmp_path), build(protocol, storage, tmp_path), protocol
        )

    @pytest.mark.parametrize("protocol", ["flat", "hierarchical"])
    @pytest.mark.parametrize("storage", PLAIN_PAYLOAD_STACKS)
    def test_stacks_that_do_not_encode_reject_oversized_bytes_too(
        self, protocol, storage, tmp_path
    ):
        assert_oversized_writes_leave_no_trace(
            build(protocol, storage, tmp_path),
            build(protocol, storage, tmp_path),
            protocol,
            ConfigurationError,
        )

    @pytest.mark.parametrize("wrap_in_integrity", [False, True], ids=["bare", "integrity"])
    def test_fault_injector_device_rejects_oversized_bytes(self, wrap_in_integrity):
        assert_oversized_writes_leave_no_trace(
            fault_injector_stack(wrap_in_integrity), fault_injector_stack(wrap_in_integrity), "flat"
        )
