"""Bucket encryption scheme tests (Section 2.2)."""

import pickle
import random

import pytest

from repro.crypto.bucket_encryption import (
    CounterBucketCipher,
    StrawmanBucketCipher,
    counter_bucket_bits,
    strawman_bucket_bits,
)
from repro.crypto.keys import ProcessorKey
from repro.crypto.prf import Prf
from repro.errors import EncryptionError


@pytest.fixture
def key() -> ProcessorKey:
    return ProcessorKey(seed=7)


class TestCounterScheme:
    def test_roundtrip(self, key):
        cipher = CounterBucketCipher(key)
        blocks = [b"block-one", b"block-two-longer", b""]
        ciphertext = cipher.encrypt(3, blocks)
        assert cipher.decrypt(3, ciphertext) == blocks

    def test_randomized_reencryption_changes_ciphertext(self, key):
        cipher = CounterBucketCipher(key)
        blocks = [b"same plaintext"]
        first = cipher.encrypt(5, blocks)
        second = cipher.encrypt(5, blocks)
        assert first != second
        assert cipher.decrypt(5, first) == blocks
        assert cipher.decrypt(5, second) == blocks

    def test_counter_increments_per_bucket(self, key):
        cipher = CounterBucketCipher(key)
        cipher.encrypt(2, [b"a"])
        cipher.encrypt(2, [b"b"])
        cipher.encrypt(9, [b"c"])
        assert cipher.current_counter(2) == 2
        assert cipher.current_counter(9) == 1
        assert cipher.current_counter(100) == 0

    def test_distinct_buckets_have_distinct_pads(self, key):
        # Same plaintext, same counter value, different BucketID must
        # produce different ciphertext bodies (the BucketID seeds the pad).
        cipher = CounterBucketCipher(key)
        body_a = cipher.encrypt(1, [b"identical"])[8:]
        body_b = cipher.encrypt(2, [b"identical"])[8:]
        assert body_a != body_b

    def test_truncated_ciphertext_rejected(self, key):
        cipher = CounterBucketCipher(key)
        with pytest.raises(EncryptionError):
            cipher.decrypt(0, b"abc")

    def test_corrupted_length_field_rejected(self, key):
        cipher = CounterBucketCipher(key)
        ciphertext = bytearray(cipher.encrypt(0, [b"payload"]))
        ciphertext = ciphertext[: len(ciphertext) // 2]
        with pytest.raises(EncryptionError):
            cipher.decrypt(0, bytes(ciphertext))

    @pytest.mark.parametrize("backend", ["shake128", "aes"])
    def test_body_is_plaintext_xor_prf_keystream(self, key, backend):
        # The pad is PRF_K(BucketID || BucketCounter) on either backend;
        # the frame is the block count then each length.
        cipher = CounterBucketCipher(key, backend=backend)
        cipher.encrypt(6, [b"first"])
        ciphertext = cipher.encrypt(6, [b"ab", b"cde"])
        plaintext = bytes([2, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]) + b"abcde"
        pad = Prf(key.key_bytes, backend=backend).keystream(len(plaintext), 6, 2)
        assert ciphertext[:8] == (2).to_bytes(8, "little")
        assert ciphertext[8:] == bytes(a ^ b for a, b in zip(plaintext, pad))
        assert cipher.decrypt(6, ciphertext) == [b"ab", b"cde"]

    def test_seed_outside_u64_raises_overflow_error(self, key):
        cipher = CounterBucketCipher(key)
        with pytest.raises(OverflowError, match="not unsigned 64-bit"):
            cipher.encrypt(-1, [b"x"])
        with pytest.raises(OverflowError, match="not unsigned 64-bit"):
            cipher.decrypt(1 << 64, cipher.encrypt(0, [b"x"]))

    @pytest.mark.parametrize("backend", ["shake128", "aes"])
    def test_pickled_cipher_keeps_its_pad(self, key, backend):
        cipher = CounterBucketCipher(key, backend=backend)
        ciphertext = cipher.encrypt(4, [b"payload"])
        clone = pickle.loads(pickle.dumps(cipher))
        assert clone.decrypt(4, ciphertext) == [b"payload"]
        assert clone.encrypt(4, [b"next"]) == cipher.encrypt(4, [b"next"])

    def test_different_runs_use_different_keys(self):
        # A fresh processor key per program start defends replay attacks.
        blocks = [b"data"]
        run1 = CounterBucketCipher(ProcessorKey(seed=1)).encrypt(0, blocks)
        run2 = CounterBucketCipher(ProcessorKey(seed=2)).encrypt(0, blocks)
        assert run1 != run2


class TestStrawmanScheme:
    def test_roundtrip(self, key):
        cipher = StrawmanBucketCipher(key, rng=random.Random(1))
        blocks = [b"alpha", b"beta", b"gamma-gamma"]
        ciphertext = cipher.encrypt(4, blocks)
        assert cipher.decrypt(4, ciphertext) == blocks

    def test_randomized_reencryption_changes_ciphertext(self, key):
        cipher = StrawmanBucketCipher(key, rng=random.Random(2))
        first = cipher.encrypt(1, [b"x"])
        second = cipher.encrypt(1, [b"x"])
        assert first != second

    def test_truncated_ciphertext_rejected(self, key):
        cipher = StrawmanBucketCipher(key, rng=random.Random(3))
        ciphertext = cipher.encrypt(0, [b"payload-bytes"])
        with pytest.raises(EncryptionError):
            cipher.decrypt(0, ciphertext[:10])


class TestSizeFormulas:
    def test_counter_bucket_bits_formula(self):
        # M = Z (L + U + B) + 64  (Section 2.2.2)
        assert counter_bucket_bits(4, 23, 25, 1024) == 4 * (23 + 25 + 1024) + 64

    def test_strawman_bucket_bits_formula(self):
        # M = Z (128 + L + U + B)  (Section 2.2.1)
        assert strawman_bucket_bits(4, 23, 25, 1024) == 4 * (128 + 23 + 25 + 1024)

    def test_counter_scheme_saves_per_block_overhead(self):
        # The counter scheme replaces 128 bits per block with 64 per bucket.
        z, l, u, b = 4, 23, 25, 1024
        saving = strawman_bucket_bits(z, l, u, b) - counter_bucket_bits(z, l, u, b)
        assert saving == z * 128 - 64

    def test_class_formulas_match_module_functions(self):
        expected_counter = counter_bucket_bits(3, 20, 22, 256)
        assert CounterBucketCipher.bucket_bits(3, 20, 22, 256) == expected_counter
        expected_strawman = strawman_bucket_bits(3, 20, 22, 256)
        assert StrawmanBucketCipher.bucket_bits(3, 20, 22, 256) == expected_strawman


class TestProcessorKey:
    def test_seeded_keys_are_reproducible(self):
        assert ProcessorKey(seed=5) == ProcessorKey(seed=5)

    def test_different_seeds_differ(self):
        assert ProcessorKey(seed=5) != ProcessorKey(seed=6)

    def test_key_length(self):
        assert len(ProcessorKey(seed=0).key_bytes) == 16

    def test_unseeded_keys_are_random(self):
        assert ProcessorKey() != ProcessorKey()

    def test_hashable(self):
        assert len({ProcessorKey(seed=1), ProcessorKey(seed=1), ProcessorKey(seed=2)}) == 2
