"""Authentication-tree (Section 5) tests, including tamper and replay detection."""

import hashlib
import random

import pytest

from repro.core.config import ORAMConfig
from repro.core.path_oram import PathORAM
from repro.core.tree import EncryptedTreeStorage, path_indices
from repro.core.types import Block
from repro.crypto.bucket_encryption import CounterBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.errors import IntegrityError
from repro.integrity.auth_tree import PathORAMAuthenticator
from repro.integrity.storage import IntegrityVerifiedStorage


@pytest.fixture
def auth_config() -> ORAMConfig:
    return ORAMConfig(working_set_blocks=64, z=2, block_bytes=16, stash_capacity=60)


def _bucket(value: int, length: int = 8) -> bytes:
    return bytes([value % 256]) * length


# Root hash hex and SHA-256 over the external hash list after
# ``seeded_authenticator_run``: the tree's bytes, whatever the bucket cipher.
AUTH_TREE_PINS = (
    "bc776469a8095e1946ada15614568caa5e5f33f4a68c6513cc05aa9f6dda0a75",
    "d6dc0a34fa4a115c3cc0cf54b1d4770bbb87a5b0891a9b91abca6beb870666f2",
)


def seeded_authenticator_run() -> PathORAMAuthenticator:
    """300 read-verify / write-update rounds over synthetic bucket bytes.

    About a quarter of the written buckets are ``b""``, so the flag gating of
    empty buckets is exercised as well as never-written subtrees.
    """
    config = ORAMConfig(working_set_blocks=64, z=4)
    auth = PathORAMAuthenticator(config)
    rng = random.Random(16)
    memory: dict[int, bytes] = {}
    for _ in range(300):
        leaf = rng.randrange(config.num_leaves)
        path = path_indices(leaf, config.levels)
        auth.verify_path(leaf, [memory.get(index, b"") for index in path])
        for index in path:
            memory[index] = b"" if rng.random() < 0.25 else rng.randbytes(rng.randrange(1, 48))
        auth.update_path(leaf, [memory[index] for index in path])
    return auth


class TestAuthenticator:
    def test_uninitialised_paths_verify(self, auth_config):
        # The scheme needs no initialisation: before any write, every path
        # verifies against the initial on-chip root.
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        for leaf in (0, 1, auth_config.num_leaves - 1):
            auth.verify_path(leaf, [b""] * (levels + 1))

    def test_write_then_verify_same_path(self, auth_config):
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        buckets = [_bucket(i) for i in range(levels + 1)]
        auth.update_path(3, buckets)
        auth.verify_path(3, buckets)

    def test_write_then_verify_overlapping_path(self, auth_config):
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        auth.update_path(0, [_bucket(1) for _ in range(levels + 1)])
        # A different path shares at least the root bucket; reading it must
        # still verify, with the shared buckets holding the written data and
        # the rest never written.
        other_leaf = auth_config.num_leaves - 1
        from repro.core.tree import path_indices

        written = set(path_indices(0, levels))
        other_path = path_indices(other_leaf, levels)
        buckets = [_bucket(1) if index in written else b"" for index in other_path]
        auth.verify_path(other_leaf, buckets)

    def test_tampered_bucket_detected(self, auth_config):
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        buckets = [_bucket(i) for i in range(levels + 1)]
        auth.update_path(5, buckets)
        tampered = list(buckets)
        tampered[2] = b"evil bucket"
        with pytest.raises(IntegrityError):
            auth.verify_path(5, tampered)

    def test_replayed_bucket_detected(self, auth_config):
        # Freshness: writing a path twice and then presenting the *old*
        # bucket contents must fail verification.
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        old = [_bucket(1) for _ in range(levels + 1)]
        new = [_bucket(2) for _ in range(levels + 1)]
        auth.update_path(7, old)
        auth.update_path(7, new)
        auth.verify_path(7, new)
        with pytest.raises(IntegrityError):
            auth.verify_path(7, old)

    def test_tampered_external_hash_detected(self, auth_config):
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        # Write two sibling paths so a sibling hash is actually consulted.
        auth.update_path(0, [_bucket(3) for _ in range(levels + 1)])
        auth.update_path(1, [_bucket(4) for _ in range(levels + 1)])
        from repro.core.tree import path_indices

        sibling_leaf_bucket = path_indices(0, levels)[-1]
        auth.tamper_with_hash(sibling_leaf_bucket, b"\x00" * 32)
        with pytest.raises(IntegrityError):
            auth.verify_path(1, [_bucket(4) for _ in range(levels + 1)])

    def test_hash_traffic_is_linear_in_levels(self, auth_config):
        # Section 5: at most L sibling hashes read and L+1 hashes written per access.
        auth = PathORAMAuthenticator(auth_config)
        levels = auth_config.levels
        auth.update_path(2, [_bucket(0) for _ in range(levels + 1)])
        writes_after_one_update = auth.counters.hashes_written
        assert writes_after_one_update <= levels + 1
        auth.verify_path(2, [_bucket(0) for _ in range(levels + 1)])
        assert auth.counters.sibling_hashes_read <= levels


    def test_tree_bytes_after_seeded_run_are_pinned(self):
        auth = seeded_authenticator_run()
        external = hashlib.sha256(b"".join(auth._hashes)).hexdigest()
        assert (auth.root_hash.hex(), external) == AUTH_TREE_PINS

    def test_reachability_is_every_valid_bit_above_set(self):
        config = ORAMConfig(working_set_blocks=64, z=4)
        auth = PathORAMAuthenticator(config)
        rng = random.Random(5)
        for _ in range(200):
            auth._root_flags = [rng.randrange(2), rng.randrange(2)]
            auth._flags = [[rng.randrange(2), rng.randrange(2)] for _ in auth._flags]
            path = path_indices(rng.randrange(config.num_leaves), config.levels)
            brute = [
                all(
                    auth._flags_of(parent)[child == 2 * parent + 2]
                    for parent, child in zip(path[:position], path[1 : position + 1])
                )
                for position in range(len(path))
            ]
            assert auth._reachability(path) == brute


class TestIntegrityVerifiedStorage:
    def _make(self, auth_config):
        cipher = CounterBucketCipher(ProcessorKey(seed=4))
        return IntegrityVerifiedStorage(auth_config, cipher)

    def test_oram_runs_with_verified_storage(self, auth_config):
        storage = self._make(auth_config)
        oram = PathORAM(auth_config, storage=storage, rng=random.Random(6))
        for address in range(1, 65):
            oram.write(address, bytes([address]))
        for address in range(1, 65):
            assert oram.read(address).data == bytes([address])
        assert storage.authenticator.counters.verifications > 0

    def test_tampering_with_ciphertext_is_detected(self, auth_config):
        storage = self._make(auth_config)
        oram = PathORAM(auth_config, storage=storage, rng=random.Random(7))
        for address in range(1, 33):
            oram.write(address, b"x")
        storage.tamper_with_bucket(0, b"corrupted ciphertext")
        with pytest.raises(IntegrityError):
            for address in range(1, 33):
                oram.read(address)

    def test_replaying_old_ciphertext_is_detected(self, auth_config):
        storage = self._make(auth_config)
        oram = PathORAM(auth_config, storage=storage, rng=random.Random(8))
        oram.write(1, b"version-1")
        captured = storage.inner.raw_bucket(0)
        # Drive more traffic so the root bucket is rewritten.
        for address in range(2, 40):
            oram.write(address, b"fill")
        assert storage.inner.raw_bucket(0) != captured
        storage.replay_bucket(0, captured)
        with pytest.raises(IntegrityError):
            for address in range(1, 40):
                oram.read(address)

    def test_verified_read_decrypts_the_bytes_it_verified(self, auth_config):
        # A device whose path read hands back the current ciphertexts and
        # then reinstates a stale root: a second, unverified read of the
        # root would decrypt the stale bucket without any error.
        class StaleAfterRead(EncryptedTreeStorage):
            stale_root = None

            def raw_path(self, leaf):
                raw = super().raw_path(leaf)
                if self.stale_root is not None:
                    self._buckets[0] = self.stale_root
                return raw

        cipher = CounterBucketCipher(ProcessorKey(seed=4))
        device = StaleAfterRead(auth_config, cipher)
        storage = IntegrityVerifiedStorage(auth_config, cipher, inner=device)
        def write_root(version):
            storage.write_path(0, {0: [Block(address=1, leaf=0, data=bytes([version]))]})

        write_root(0)
        captured = device.raw_bucket(0)
        write_root(1)
        write_root(2)
        device.stale_root = captured
        assert storage.read_path_blocks(0) == [Block(address=1, leaf=0, data=bytes([2]))]
