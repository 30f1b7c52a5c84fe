"""PRF and keystream tests."""

import os
from types import SimpleNamespace

import pytest

from repro.crypto import prf as prf_module
from repro.crypto.prf import Keystream, Prf, _xor


class TestPrf:
    def test_block_is_deterministic(self):
        prf = Prf(b"k" * 16)
        assert prf.block(1, 2, 3) == prf.block(1, 2, 3)

    def test_different_seeds_give_different_blocks(self):
        prf = Prf(b"k" * 16)
        assert prf.block(1, 2, 3) != prf.block(1, 2, 4)

    def test_different_keys_give_different_blocks(self):
        assert Prf(b"a" * 16).block(7) != Prf(b"b" * 16).block(7)

    def test_block_is_16_bytes(self):
        assert len(Prf(b"k" * 16).block(0)) == 16

    def test_keystream_length(self):
        prf = Prf(b"k" * 16)
        for length in (0, 1, 15, 16, 17, 100):
            assert len(prf.keystream(length, 9)) == length

    def test_keystream_prefix_property(self):
        prf = Prf(b"k" * 16)
        long = prf.keystream(64, 5)
        short = prf.keystream(32, 5)
        assert long[:32] == short

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Prf(b"k" * 16).keystream(-1, 0)

    @pytest.mark.parametrize("backend", ["shake128", "aes"])
    def test_joined_keystream_is_keystreams_joined(self, backend):
        prf = Prf(b"k" * 16, backend=backend)
        spans = [(0, (1, 2)), (17, (3, 4)), (360, (5, 6)), (16, (7,)), (5, (8, 9, 10))]
        assert prf.joined_keystream(spans) == b"".join(
            prf.keystream(nbytes, *seed) for nbytes, seed in spans
        )
        assert prf.joined_keystream([]) == b""
        assert prf.joined_keystream(spans, 8) == b"".join(
            bytes(8) + prf.keystream(nbytes, *seed) for nbytes, seed in spans
        )

    @pytest.mark.parametrize("backend", ["shake128", "aes"])
    def test_joined_keystream_rejects_seeds_outside_u64(self, backend):
        with pytest.raises(OverflowError, match="not unsigned 64-bit"):
            Prf(b"k" * 16, backend=backend).joined_keystream([(4, (1, 2)), (4, (1, 1 << 64))])

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Prf(b"k" * 16, backend="des")

    def test_aes_backend_works(self):
        prf = Prf(b"k" * 16, backend="aes")
        assert len(prf.block(1)) == 16
        assert prf.block(1) == prf.block(1)
        assert prf.block(1) != prf.block(2)

    def test_backends_differ(self):
        # The two backends are different PRFs; both are valid, but their
        # outputs should not coincide.
        assert Prf(b"k" * 16).block(3) != Prf(b"k" * 16, backend="aes").block(3)

    def test_short_key_padded_for_aes_backend(self):
        prf = Prf(b"key", backend="aes")
        assert len(prf.block(0)) == 16


class TestKeystream:
    def test_apply_roundtrip(self):
        stream = Keystream(Prf(b"k" * 16))
        data = b"the quick brown fox jumps"
        encrypted = stream.apply(data, 42, 7)
        assert encrypted != data
        assert stream.apply(encrypted, 42, 7) == data

    def test_different_seed_does_not_decrypt(self):
        stream = Keystream(Prf(b"k" * 16))
        data = b"secret payload bytes"
        encrypted = stream.apply(data, 1)
        assert stream.apply(encrypted, 2) != data


def _bytewise_xor(data: bytes, pad: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, pad))


XOR_LENGTHS = [0, 1, 7, 15, 16, 149, 255, 256, 257, 515, 2_897, 8_192]


class TestXorKernels:
    """``_xor`` gives the same bytes on the NumPy and the integer kernel."""

    def test_kernel_follows_numpy(self):
        try:
            import numpy
        except ImportError:
            numpy = None
        assert prf_module._np is numpy

    @pytest.mark.parametrize("length", XOR_LENGTHS)
    def test_both_kernels_equal_bytewise_xor(self, length, monkeypatch):
        data, pad = os.urandom(length), os.urandom(length)
        expected = _bytewise_xor(data, pad)
        fast = _xor(data, pad)
        monkeypatch.setattr(prf_module, "_np", None)
        assert _xor(data, pad) == fast == expected
        assert type(fast) is bytes

    @pytest.mark.parametrize("length", XOR_LENGTHS)
    def test_numpy_kernel_runs_at_every_length(self, length, monkeypatch):
        numpy = pytest.importorskip("numpy")
        calls = []

        def spy(buffer, dtype):
            calls.append(len(buffer))
            return numpy.frombuffer(buffer, dtype)

        monkeypatch.setattr(prf_module, "_np", SimpleNamespace(frombuffer=spy, uint8=numpy.uint8))
        data, pad = os.urandom(length), os.urandom(length)
        assert _xor(data, pad) == _bytewise_xor(data, pad)
        assert calls == [length, length]
