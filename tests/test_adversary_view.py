"""What an observer of DRAM sees after a real run stays pinned.

A seeded run of mixed reads and writes on the ``integrity`` stack must end
with pinned authentication-tree root hashes and raw path ciphertexts.  Any
change to the pads, the bucket framing or the slot codec moves these
digests, so a speed-up of those layers that keeps them is invisible to an
adversary watching memory.
"""

import hashlib
import random

import pytest

from repro.api import open_oram
from repro.backends import OramSpec
from repro.core.config import HierarchyConfig, ORAMConfig
from repro.core.types import Operation

ACCESSES = 2000

# protocol -> (root hash hex per ORAM, data ORAM first; SHA-256 of 8 raw paths)
PINS = {
    "flat": (
        ("e74261a09562adef9aa96f3ac33866ef57a942f2754868fb55c6683c9eb79a7b",),
        "7720c95a0c9bbb0d060098e3cb10b0ba7953e9e46e58a9a66b16c93f52f45b1b",
    ),
    "hierarchical": (
        (
            "700ce3e8897d86d409b604015dff3c392b556400c756b15928878af54ece9e5e",
            "0d6b3f4d82f7eea8ddd35b7ec12b847d689c852e827e7c09ae001ebb9d2553bf",
        ),
        "dc8b05b5624ddf2d896218a2206114954948aefbe9ec25668a6696ec54102a29",
    ),
}

#: SHA-256 of the same 8 raw paths after the same seeded flat workload on
#: ``storage="encrypted"``: the path primitives carry this stack too.
ENCRYPTED_PATHS = "7720c95a0c9bbb0d060098e3cb10b0ba7953e9e46e58a9a66b16c93f52f45b1b"


def _config(protocol: str) -> ORAMConfig | HierarchyConfig:
    data = ORAMConfig(working_set_blocks=256, z=4, block_bytes=64, stash_capacity=150)
    if protocol == "flat":
        return data
    return HierarchyConfig(
        data_oram=data,
        position_map_block_bytes=16,
        position_map_z=4,
        onchip_position_map_limit_bytes=64,
    )


def seeded_run(protocol: str, storage: str):
    """The seeded workload of mixed reads and writes; returns the ORAM."""
    oram = open_oram(
        OramSpec(protocol=protocol, storage=storage, key_seed=7), _config(protocol), seed=11
    )
    rng = random.Random(3)
    for step in range(ACCESSES):
        address = 1 + rng.randrange(256)
        if rng.random() < 0.5:
            oram.access(address, Operation.WRITE, data=step.to_bytes(4, "little") * 16)
        else:
            oram.access(address, Operation.READ)
    return oram


def raw_paths_digest(device, num_leaves: int) -> str:
    """SHA-256 over the raw ciphertexts of 8 evenly spaced paths."""
    digest = hashlib.sha256()
    for leaf in (i * num_leaves // 8 for i in range(8)):
        for ciphertext in device.raw_path(leaf):
            digest.update(len(ciphertext).to_bytes(4, "little") + ciphertext)
    return digest.hexdigest()


def adversary_view(protocol: str) -> tuple[tuple[str, ...], str]:
    """Run the seeded workload; return root hashes and a digest of 8 paths."""
    oram = seeded_run(protocol, "integrity")
    orams = oram.orams if protocol == "hierarchical" else (oram,)
    roots = tuple(level.storage.authenticator.root_hash.hex() for level in orams)
    return roots, raw_paths_digest(orams[0].storage.inner, orams[0].config.num_leaves)


@pytest.mark.parametrize("protocol", sorted(PINS))
def test_dram_bytes_after_run_are_pinned(protocol):
    assert adversary_view(protocol) == PINS[protocol]


def test_encrypted_stack_dram_bytes_are_pinned():
    oram = seeded_run("flat", "encrypted")
    assert raw_paths_digest(oram.storage, oram.config.num_leaves) == ENCRYPTED_PATHS
