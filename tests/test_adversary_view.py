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
        ("e1e33891db78dbacac4b909b0dee87aec7ef93d9eaa768810fce6f3d05b5000b",),
        "bcd87e9077992a29bdf337431cfd36dfc717845fb89d6995859ccaa58f6604c2",
    ),
    "hierarchical": (
        (
            "fd91f744179510b8a6a804f68333d089f586188716a5edddc3be93d27482c9ec",
            "8355837bd6ee2b767a43a921789c0eaf14835604b4280023888786d9db62bc50",
        ),
        "b441128bbd7cbd3d9554a5aefa2cff9cd0c2f922c24eb9a903aea86915f224d5",
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
