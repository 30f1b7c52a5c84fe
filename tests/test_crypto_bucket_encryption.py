"""Bucket encryption scheme tests (Section 2.2)."""

import pickle
import random

import pytest

from repro.core.bucket_codec import join_slots, split_slots
from repro.core.config import ORAMConfig
from repro.core.tree import EncryptedTreeStorage
from repro.core.types import Block
from repro.crypto import prf as prf_module
from repro.crypto.bucket_encryption import (
    BucketCipher,
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


#: One path's worth of buckets: ids root first, Z=4 slots of mixed lengths
#: (21-byte dummies and 149-byte real slots), one bucket written twice.
PATH_IDS = [0, 2, 5, 12, 25, 5]
PATH_SLOTS = [
    [bytes([level]) * (149 if slot <= level % 3 else 21) for slot in range(4)]
    for level in range(len(PATH_IDS))
]


def _ciphers(key, kind: str) -> tuple[BucketCipher, BucketCipher]:
    """Two identically-built ciphers: one for path calls, one per bucket."""
    if kind == "strawman":
        return tuple(StrawmanBucketCipher(key, rng=random.Random(9)) for _ in range(2))
    return tuple(CounterBucketCipher(key, backend=kind) for _ in range(2))


def framed(slot_lists):
    """A path's plaintext pieces, heads and sizes as ``BucketCodec.frame_path``
    lays them out (one placeholder, then the framed bucket)."""
    pieces = []
    for slots in slot_lists:
        pieces += (b"", join_slots([slots])[0])
    return pieces, list(range(0, len(pieces), 2)), [len(piece) for piece in pieces[1::2]]


def opened(cipher, bucket_ids, sealed):
    """Every slot of a path, flat, from one ``decrypt_path`` call."""
    path_slots = split_slots(*cipher.decrypt_path(bucket_ids, sealed))
    return [slot for slots in path_slots for slot in slots]


class TestPathCipher:
    @pytest.mark.parametrize("kind", ["shake128", "aes", "strawman"])
    def test_path_calls_equal_per_bucket_calls(self, key, kind):
        path_cipher, bucket_cipher = _ciphers(key, kind)
        for _ in range(2):
            sealed = path_cipher.encrypt_path(PATH_IDS, *framed(PATH_SLOTS))
            expected = [bucket_cipher.encrypt(i, slots) for i, slots in zip(PATH_IDS, PATH_SLOTS)]
            assert sealed == expected
            flat = [slot for bucket_id, ciphertext in zip(PATH_IDS, sealed)
                    for slot in bucket_cipher.decrypt(bucket_id, ciphertext)]
            assert opened(path_cipher, PATH_IDS, sealed) == flat
            assert flat == [slot for slots in PATH_SLOTS for slot in slots]
        if kind != "strawman":
            for bucket_id in set(PATH_IDS) | {99}:
                assert path_cipher.current_counter(bucket_id) == bucket_cipher.current_counter(
                    bucket_id
                )
            assert path_cipher.current_counter(5) == 4

    @pytest.mark.parametrize("backend", ["shake128", "aes"])
    def test_path_bodies_are_plaintext_xor_own_pad(self, key, backend):
        cipher = CounterBucketCipher(key, backend=backend)
        prf = Prf(key.key_bytes, backend=backend)
        sealed = cipher.encrypt_path(PATH_IDS[:5], *framed(PATH_SLOTS[:5]))
        for bucket_id, slots, ciphertext in zip(PATH_IDS, PATH_SLOTS, sealed):
            frame = b"".join(n.to_bytes(4, "little") for n in [len(slots), *map(len, slots)])
            plaintext = frame + b"".join(slots)
            pad = prf.keystream(len(plaintext), bucket_id, 1)
            assert ciphertext == (1).to_bytes(8, "little") + bytes(
                a ^ b for a, b in zip(plaintext, pad)
            )

    @pytest.mark.parametrize("backend", ["shake128", "aes"])
    def test_path_bytes_do_not_depend_on_the_xor_kernel(self, key, backend, monkeypatch):
        flat = [slot for slots in PATH_SLOTS for slot in slots]
        default = CounterBucketCipher(key, backend=backend)
        sealed = default.encrypt_path(PATH_IDS, *framed(PATH_SLOTS))
        monkeypatch.setattr(prf_module, "_np", None)
        integer = CounterBucketCipher(key, backend=backend)
        assert integer.encrypt_path(PATH_IDS, *framed(PATH_SLOTS)) == sealed
        assert opened(integer, PATH_IDS, sealed) == flat
        monkeypatch.undo()
        assert opened(default, PATH_IDS, sealed) == flat

    def test_empty_path(self, key):
        cipher = CounterBucketCipher(key)
        assert cipher.encrypt_path([], [], [], []) == []
        assert cipher.decrypt_path([], []) == (b"", [])

    @pytest.mark.parametrize(
        ("keep", "message"),
        [
            (5, "shorter than its counter"),
            (8 + 2, "missing block count"),
            (8 + 4 + 6, "missing block length"),
            (-1, "truncated block body"),
        ],
    )
    def test_bad_bucket_mid_path_raises(self, key, keep, message):
        cipher = CounterBucketCipher(key)
        sealed = cipher.encrypt_path(PATH_IDS[:5], *framed(PATH_SLOTS[:5]))
        sealed[2] = sealed[2][:keep]
        with pytest.raises(EncryptionError, match=message):
            opened(cipher, PATH_IDS[:5], sealed)
        with pytest.raises(EncryptionError, match=message):
            cipher.decrypt(PATH_IDS[2], sealed[2])

    def test_corrupted_counter_mid_path_raises(self, key):
        # A wrong counter decrypts the frame under the wrong pad.
        cipher = CounterBucketCipher(key)
        sealed = cipher.encrypt_path(PATH_IDS[:5], *framed(PATH_SLOTS[:5]))
        sealed[3] = (7).to_bytes(8, "little") + sealed[3][8:]
        with pytest.raises(EncryptionError):
            opened(cipher, PATH_IDS[:5], sealed)

    def test_open_path_skips_never_written_buckets(self, key):
        config = ORAMConfig(working_set_blocks=16, z=4)
        storage = EncryptedTreeStorage(config, CounterBucketCipher(key))
        leaf = 3
        path = storage.path(leaf)
        written = {path[1]: [Block(7, leaf, b"seven")], path[-1]: [Block(9, leaf, b"nine")]}
        for bucket_index, blocks in written.items():
            storage.write_bucket(bucket_index, blocks)
        raw = storage.raw_path(leaf)
        assert [bool(ciphertext) for ciphertext in raw] == [index in written for index in path]
        opened = storage.open_path(leaf, raw)
        assert [(b.address, b.leaf, b.data) for b in opened] == [
            (7, leaf, b"seven"),
            (9, leaf, b"nine"),
        ]
        assert storage.open_path(leaf, [b""] * len(path)) == []


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
