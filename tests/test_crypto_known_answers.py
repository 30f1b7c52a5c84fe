"""Known-answer vectors for the PRF, the keystream and both bucket ciphers.

The literals pin the exact pads and ciphertexts (as SHA-256 digests), so a
rewrite of the crypto layer that moves any byte DRAM would see fails here.
The default pad is ``SHAKE128(key || seed)`` and the ``"aes"`` pad is
``block(*seed, i)`` per 16-byte chunk, both XORed byte by byte; tests below
state each definition directly, independent of ``Prf``'s code.
"""

import hashlib
import random
import struct

import pytest

from repro.core.bucket_codec import BucketCodec
from repro.core.config import ORAMConfig
from repro.core.types import Block
from repro.crypto.bucket_encryption import CounterBucketCipher, StrawmanBucketCipher
from repro.crypto.keys import ProcessorKey
from repro.crypto.prf import Keystream, Prf

SHAKE128_KEYSTREAM = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "2c624232cdd221771294dfbb310aca000a0df6ac8b66b696d90ef06fdefb64a3",
    15: "032d2fd8bf9bb4bff1bcd00675af17efc05e6a68ad0cf9c54accf3bfaf90256e",
    16: "5a21495995b8670607a55402af1fc490c82fd5a00f3834098baf65d7bd037dc0",
    17: "eec769c992f35170369c283e2dbbde072db1aee90741e6be06f9f5fde14c0519",
    616: "e42af415539ccf7ba817c79548a27c521eaa4c14961bb5e40b6b83c07f2399cc",
}
AES_KEYSTREAM_48 = "d9dc12e2e622064cf21deb68c203a992b55f7f59334a2900468f9b1ba6267e3e"
COUNTER_CIPHERTEXTS = (
    "90b335861ee6653139ec95ff81d19f492966b7af033747203eb20399d66df293",
    "3e96dc439e09e94ec4f8ec63fda2bbd03a529d762b6dbc285c9d561a6a086427",
)
STRAWMAN_CIPHERTEXT = "3506d6a351072da0b5c1e224893fb220759468499c7ba2618ea8a12ac30ef3c0"


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


def keystream_digest(nbytes: int) -> str:
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


@pytest.mark.parametrize("nbytes", sorted(SHAKE128_KEYSTREAM))
def test_sha256_keystream_known_answer(nbytes):
    """SHA-256 digests of the default (``shake128``) keystream."""
    assert keystream_digest(nbytes) == SHAKE128_KEYSTREAM[nbytes]


@pytest.mark.parametrize("seed", [(3,), (3, 9), (3, 9, 27)])
def test_shake128_pad_definition(seed):
    key = b"k" * 16
    prf = Prf(key)
    for nbytes in sorted(SHAKE128_KEYSTREAM):
        expected = hashlib.shake_128(key + struct.pack(f"<{len(seed)}Q", *seed)).digest(nbytes)
        assert prf.keystream(nbytes, *seed) == expected
    assert prf.block(*seed) == prf.keystream(16, *seed)


def test_aes_keystream_known_answer():
    assert aes_keystream_digest() == AES_KEYSTREAM_48


def test_keystream_chunks_are_blocks():
    prf = Prf(b"k" * 16, backend="aes")
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
