"""Tree storage with transparent integrity verification.

:class:`IntegrityVerifiedStorage` wraps an
:class:`~repro.core.tree.EncryptedTreeStorage` (or any storage exposing raw
bucket bytes) and a :class:`~repro.integrity.auth_tree.PathORAMAuthenticator`
so that every path read is verified against the on-chip root hash and every
path write-back refreshes the authentication tree — the integration
described in Section 5 and Figure 13.

A read verifies the ciphertexts of one ``raw_path`` read and decrypts
exactly those bytes (``open_path``); a write-back hashes the ciphertexts
``seal_path`` returns, with no read-back.
"""

from __future__ import annotations

from typing import Any

from repro.core.config import ORAMConfig
from repro.core.tree import EncryptedTreeStorage, TreeStorage
from repro.core.types import Block
from repro.crypto.bucket_encryption import BucketCipher
from repro.integrity.auth_tree import PathORAMAuthenticator


class IntegrityVerifiedStorage(TreeStorage):
    """Encrypted bucket storage with authentication-tree verification.

    Raises :class:`~repro.errors.IntegrityError` from a path read if any
    bucket on the path has been tampered with (or replayed) since the ORAM
    interface last wrote it.  The inherited ``read_path`` / ``write_path``
    adapters run the verified path operations below.
    """

    def __init__(self, config: ORAMConfig, cipher: BucketCipher,
                 authenticator: PathORAMAuthenticator | None = None,
                 inner: EncryptedTreeStorage | None = None) -> None:
        super().__init__(config)
        # ``inner`` lets callers interpose on the raw device — the fault
        # injector (:mod:`repro.faults`) wraps an EncryptedTreeStorage here
        # so injected corruption flows through the verification below.
        self._inner = inner if inner is not None else EncryptedTreeStorage(config, cipher)
        self._auth = authenticator if authenticator is not None else PathORAMAuthenticator(config)

    @property
    def authenticator(self) -> PathORAMAuthenticator:
        return self._auth

    @property
    def inner(self) -> EncryptedTreeStorage:
        return self._inner

    # ------------------------------------------------------------------
    # TreeStorage interface
    # ------------------------------------------------------------------
    def check_payload(self, payload: Any) -> None:
        self._inner.check_payload(payload)

    def read_bucket(self, bucket_index: int) -> list[Block]:
        # Individual bucket reads (used by invariant checks) bypass
        # verification; the ORAM protocol always reads whole paths.
        return self._inner.read_bucket(bucket_index)

    def write_bucket(self, bucket_index: int, blocks: list[Block]) -> None:
        self._inner.write_bucket(bucket_index, blocks)

    def read_path_blocks(self, leaf: int) -> list[Block]:
        """Verify, then decrypt, the path to ``leaf``.  ``raw_path`` is the
        device-facing read (where a fault injector corrupts), so the blocks
        come from exactly the bytes that were verified."""
        raw = self._inner.raw_path(leaf)
        self._auth.verify_path(leaf, raw, self._inner.path(leaf))
        return self._inner.open_path(leaf, raw)

    def write_path_levels(self, leaf: int, level_buckets: list[list[Block] | None]) -> None:
        """Re-encrypt and write the path, then refresh the authentication tree
        from the ciphertexts just written."""
        sealed = self._inner.seal_path(leaf, level_buckets)
        self._auth.update_path(leaf, sealed, self._inner.path(leaf))

    # ------------------------------------------------------------------
    # Adversarial hooks for tests
    # ------------------------------------------------------------------
    def tamper_with_bucket(self, bucket_index: int, ciphertext: bytes) -> None:
        """Overwrite a bucket's ciphertext behind the ORAM's back."""
        self._inner._buckets[bucket_index] = ciphertext  # noqa: SLF001 - test hook

    def replay_bucket(self, bucket_index: int, old_ciphertext: bytes) -> None:
        """Replay a previously captured ciphertext (freshness attack)."""
        self.tamper_with_bucket(bucket_index, old_ciphertext)
