"""Known-answer vectors for the PRF, the keystream and both bucket ciphers.

The literals pin the exact pads and ciphertexts (as SHA-256 digests), so a
rewrite of the crypto layer that moves any byte DRAM would see fails here.
The pads stay defined as ``block(*seed, i)`` per 16-byte chunk, XORed byte
by byte; two tests below check that definition directly.
"""

import hashlib
import random

import pytest

from repro.core.bucket_codec import BucketCodec
from repro.core.config import ORAMConfig
from repro.core.types import Block
from repro.crypto.bucket_encryption import CounterBucketCipher, StrawmanBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.crypto.prf import Keystream, Prf

SHA256_KEYSTREAM = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "a9253dc8529dd214e5f22397888e78d3390daa47593e26f68c18f97fd7a3876b",
    15: "cf6fe1e9e661f67ca4410ffab89b1140b9940befac856229228f2ccd959eda40",
    16: "5bff7f3937f81e5bfdfea0e2503d792b19624c712ee4800a43841eb9eb5b6284",
    17: "4671b327c9b51f8c402e29545b56d2918cd1c866a2450ddd95df818cad0e0e0d",
    616: "6f8e9b78b4bd4e551ce584aa452d9db1f7c623d27bf6d06ea6aae5b346b145c5",
}
AES_KEYSTREAM_48 = "d9dc12e2e622064cf21deb68c203a992b55f7f59334a2900468f9b1ba6267e3e"
COUNTER_CIPHERTEXTS = (
    "a0f272edcfd151a497e93d67527ace396cc785aafb981b84286991ac3018d8ea",
    "1b29024263cb00c82df1c37b2978ea0ddc8e3971a22d523cd46910aafd7179cd",
)
STRAWMAN_CIPHERTEXT = "dd4f764862d0fb188dfde87d43b57e9422b066a09cefb9548a40a4da470517b5"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mixed_bucket() -> list[bytes]:
    """The Z=4 slot plaintexts of a bucket holding every payload kind."""
    codec = BucketCodec(ORAMConfig(working_set_blocks=64, z=4))
    return codec.encode_blocks(
        [
            Block(address=5, leaf=3, data=b"payload-bytes"),
            Block(address=9, leaf=1, data=-12345),
            Block(address=17, leaf=6, data=[1, 2, 3]),
        ]
    )


def sha256_keystream_digest(nbytes: int) -> str:
    return _digest(Prf(b"k" * 16).keystream(nbytes, 3, 9))


def aes_keystream_digest() -> str:
    return _digest(Prf(b"k" * 16, backend="aes").keystream(48, 3, 9))


def counter_ciphertext_digests() -> tuple[str, str]:
    cipher = CounterBucketCipher(ProcessorKey(seed=7))
    slots = mixed_bucket()
    return _digest(cipher.encrypt(11, slots)), _digest(cipher.encrypt(11, slots))


def strawman_ciphertext_digest() -> str:
    cipher = StrawmanBucketCipher(ProcessorKey(seed=7), rng=random.Random(5))
    return _digest(cipher.encrypt(2, mixed_bucket()))


@pytest.mark.parametrize("nbytes", sorted(SHA256_KEYSTREAM))
def test_sha256_keystream_known_answer(nbytes):
    assert sha256_keystream_digest(nbytes) == SHA256_KEYSTREAM[nbytes]


def test_aes_keystream_known_answer():
    assert aes_keystream_digest() == AES_KEYSTREAM_48


def test_keystream_chunks_are_blocks():
    for backend in ("sha256", "aes"):
        prf = Prf(b"k" * 16, backend=backend)
        assert prf.keystream(48, 3, 9) == b"".join(prf.block(3, 9, i) for i in range(3))


def test_apply_is_xor_with_keystream():
    prf = Prf(b"k" * 16)
    data = bytes(range(256)) * 3
    pad = prf.keystream(len(data), 4)
    assert Keystream(prf).apply(data, 4) == bytes(a ^ b for a, b in zip(data, pad))


def test_counter_cipher_known_answer():
    assert counter_ciphertext_digests() == COUNTER_CIPHERTEXTS


def test_strawman_cipher_known_answer():
    assert strawman_ciphertext_digest() == STRAWMAN_CIPHERTEXT
