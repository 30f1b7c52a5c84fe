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


def adversary_view(protocol: str) -> tuple[tuple[str, ...], str]:
    """Run the seeded workload; return root hashes and a digest of 8 paths."""
    oram = open_oram(
        OramSpec(protocol=protocol, storage="integrity", key_seed=7), _config(protocol), seed=11
    )
    rng = random.Random(3)
    for step in range(ACCESSES):
        address = 1 + rng.randrange(256)
        if rng.random() < 0.5:
            oram.access(address, Operation.WRITE, data=step.to_bytes(4, "little") * 16)
        else:
            oram.access(address, Operation.READ)
    orams = oram.orams if protocol == "hierarchical" else (oram,)
    roots = tuple(level.storage.authenticator.root_hash.hex() for level in orams)
    device = orams[0].storage.inner
    num_leaves = orams[0].config.num_leaves
    digest = hashlib.sha256()
    for leaf in (i * num_leaves // 8 for i in range(8)):
        for ciphertext in device.raw_path(leaf):
            digest.update(len(ciphertext).to_bytes(4, "little") + ciphertext)
    return roots, digest.hexdigest()


@pytest.mark.parametrize("protocol", sorted(PINS))
def test_dram_bytes_after_run_are_pinned(protocol):
    assert adversary_view(protocol) == PINS[protocol]
