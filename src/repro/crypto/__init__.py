"""Cryptographic substrate for Path ORAM's randomized encryption.

The paper assumes a hardware AES-128 engine generating one-time pads.  This
package provides:

* :mod:`repro.crypto.aes` — a self-contained AES-128 block cipher, validated
  against the FIPS-197 test vectors, used where bit-exact AES behaviour is
  wanted.
* :mod:`repro.crypto.prf` — keyed pseudo-random functions and keystream
  generators.  The default keystream is one SHAKE-128 call over
  ``key || seed`` because it is much faster than pure-Python AES; ORAM
  behaviour depends only on the existence of a keyed PRF, not on which one.
* :mod:`repro.crypto.bucket_encryption` — the two bucket encryption schemes
  from Section 2.2 of the paper: the strawman per-block-key scheme and the
  counter-based (BucketCounter) scheme.
* :mod:`repro.crypto.keys` — processor key material.
"""

from repro.crypto.aes import AES128
from repro.crypto.bucket_encryption import (
    BucketCipher,
    CounterBucketCipher,
    StrawmanBucketCipher,
    counter_bucket_bits,
    strawman_bucket_bits,
)
from repro.crypto.keys import ProcessorKey
from repro.crypto.prf import Keystream, Prf

__all__ = [
    "AES128",
    "Prf",
    "Keystream",
    "ProcessorKey",
    "BucketCipher",
    "StrawmanBucketCipher",
    "CounterBucketCipher",
    "strawman_bucket_bits",
    "counter_bucket_bits",
]
