"""Configuration objects for single and hierarchical Path ORAMs.

:class:`ORAMConfig` captures the free parameters the paper's design-space
exploration sweeps over — bucket size ``Z``, block size ``B``, utilization,
stash capacity ``C``, the encryption scheme — and exposes every derived
quantity used in the paper's formulas (tree depth ``L``, bucket size ``M``,
the background-eviction threshold ``C - Z(L+1)``, on-chip storage, …).

:class:`HierarchyConfig` builds the recursive construction of Section 2.3:
given a data-ORAM configuration and a position-map block size, it derives
the chain of position-map ORAMs needed to shrink the final on-chip position
map below a target size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal

from repro.crypto.bucket_encryption import counter_bucket_bits, strawman_bucket_bits
from repro.errors import ConfigurationError

EncryptionScheme = Literal["counter", "strawman", "none"]

#: DRAM access granularity the paper pads buckets to (64 bytes).
DEFAULT_BUCKET_ALIGN_BYTES = 64


@dataclass(frozen=True)
class ORAMConfig:
    """Parameters of a single Path ORAM.

    Parameters
    ----------
    working_set_blocks:
        Number of valid (real) data blocks the ORAM must hold.
    utilization:
        Fraction of the ORAM's total block slots that hold valid data
        (Section 2.5.3 / Figure 8).  ``total_blocks`` is derived as
        ``working_set_blocks / utilization``.
    z:
        Blocks per bucket.
    block_bytes:
        Data block (cache line) size ``B`` in bytes.
    stash_capacity:
        Stash size ``C`` in blocks, or ``None`` for an unbounded stash
        (used by the Figure 3 failure-probability study).
    encryption:
        Which bucket encryption scheme sizes the bucket: ``"counter"``
        (Section 2.2.2, the default), ``"strawman"`` (Section 2.2.1) or
        ``"none"`` (plaintext buckets, functional simulations only —
        sized like ``"counter"`` so overhead numbers stay comparable).
    bucket_align_bytes:
        Buckets are padded up to a multiple of this (DRAM access
        granularity); 64 bytes in the paper.
    super_block_size:
        Number of adjacent blocks statically merged into one super block
        (Section 3.2); 1 disables super blocks.
    name:
        Optional label used in reports.
    """

    working_set_blocks: int
    utilization: float = 0.5
    z: int = 4
    block_bytes: int = 128
    stash_capacity: int | None = 200
    encryption: EncryptionScheme = "counter"
    bucket_align_bytes: int = DEFAULT_BUCKET_ALIGN_BYTES
    super_block_size: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.working_set_blocks < 1:
            raise ConfigurationError("working_set_blocks must be >= 1")
        if not 0.0 < self.utilization <= 1.0:
            raise ConfigurationError("utilization must be in (0, 1]")
        if self.z < 1:
            raise ConfigurationError("z must be >= 1")
        if self.block_bytes < 1:
            raise ConfigurationError("block_bytes must be >= 1")
        if self.bucket_align_bytes < 1:
            raise ConfigurationError("bucket_align_bytes must be >= 1")
        if self.super_block_size < 1:
            raise ConfigurationError("super_block_size must be >= 1")
        if self.encryption not in ("counter", "strawman", "none"):
            raise ConfigurationError(f"unknown encryption scheme: {self.encryption!r}")
        # Cache the derived tree geometry.  ORAMConfig is frozen, so the
        # expensive derived quantities (the tree-depth search in particular)
        # can be computed once; the simulation hot path reads them millions
        # of times per experiment.
        total_blocks = max(1, math.ceil(self.working_set_blocks / self.utilization))
        buckets_needed = math.ceil(total_blocks / self.z)
        level = 0
        while (1 << (level + 1)) - 1 < buckets_needed:
            level += 1
        object.__setattr__(self, "_total_blocks", total_blocks)
        object.__setattr__(self, "_levels", level)
        if self.stash_capacity is not None and self.stash_capacity < self.blocks_per_path:
            raise ConfigurationError(
                "stash_capacity must be at least Z*(L+1) "
                f"({self.blocks_per_path}) so the eviction threshold is non-negative"
            )

    def with_updates(self, **kwargs) -> "ORAMConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Derived tree geometry
    # ------------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        """Total block slots ``N`` in the ORAM (working set / utilization)."""
        return self._total_blocks

    @property
    def levels(self) -> int:
        """Tree depth ``L`` (the root is level 0, leaves are level L).

        The smallest ``L`` such that ``2^(L+1) - 1 >= ceil(N / Z)``,
        precomputed in ``__post_init__``.
        """
        return self._levels

    @property
    def num_levels(self) -> int:
        """Number of levels in the tree, ``L + 1``."""
        return self.levels + 1

    @property
    def num_leaves(self) -> int:
        """Number of leaves, ``2^L``."""
        return 1 << self.levels

    @property
    def num_buckets(self) -> int:
        """Number of buckets in the full binary tree, ``2^(L+1) - 1``."""
        return (1 << (self.levels + 1)) - 1

    @property
    def capacity_blocks(self) -> int:
        """Block slots actually available in the tree, ``Z * (2^(L+1)-1)``."""
        return self.z * self.num_buckets

    # ------------------------------------------------------------------
    # Bit widths
    # ------------------------------------------------------------------
    @property
    def leaf_bits(self) -> int:
        """Bits needed to store a leaf label (``L``, at least 1)."""
        return max(1, self.levels)

    @property
    def address_bits(self) -> int:
        """Bits needed to store a program address ``U = ceil(log2 N)``."""
        return max(1, math.ceil(math.log2(self.working_set_blocks + 1)))

    @property
    def block_bits(self) -> int:
        """Block payload size ``B`` in bits."""
        return self.block_bytes * 8

    @property
    def bucket_bits(self) -> int:
        """Encrypted bucket size ``M`` in bits before DRAM alignment."""
        if self.encryption == "strawman":
            return strawman_bucket_bits(self.z, self.leaf_bits, self.address_bits, self.block_bits)
        # "counter" and "none" are sized identically so functional
        # experiments report the same overheads as encrypted ones.
        return counter_bucket_bits(self.z, self.leaf_bits, self.address_bits, self.block_bits)

    @property
    def bucket_bytes(self) -> int:
        """Encrypted bucket size in bytes, padded to the DRAM granularity."""
        raw = math.ceil(self.bucket_bits / 8)
        align = self.bucket_align_bytes
        return math.ceil(raw / align) * align

    @property
    def padded_bucket_bits(self) -> int:
        """Encrypted bucket size ``M`` in bits after DRAM alignment."""
        return self.bucket_bytes * 8

    # ------------------------------------------------------------------
    # Path / stash quantities
    # ------------------------------------------------------------------
    @property
    def blocks_per_path(self) -> int:
        """Maximum real blocks on one path, ``Z (L + 1)``."""
        return self.z * (self.levels + 1)

    @property
    def path_bytes(self) -> int:
        """Bytes moved to read (or write) one full path."""
        return (self.levels + 1) * self.bucket_bytes

    @property
    def eviction_threshold(self) -> int | None:
        """Background eviction threshold ``C - Z(L+1)``, or ``None`` when
        the stash is unbounded."""
        if self.stash_capacity is None:
            return None
        return self.stash_capacity - self.blocks_per_path

    # ------------------------------------------------------------------
    # On-chip storage
    # ------------------------------------------------------------------
    @property
    def position_map_entries(self) -> int:
        """Number of position-map entries (one per super block group)."""
        return math.ceil(self.working_set_blocks / self.super_block_size)

    @property
    def position_map_bits(self) -> int:
        """Size of this ORAM's position map in bits."""
        return self.position_map_entries * self.leaf_bits

    @property
    def stash_bits(self) -> int:
        """On-chip stash storage in bits, ``C (L + U + B)``."""
        capacity = self.stash_capacity if self.stash_capacity is not None else 0
        return capacity * (self.leaf_bits + self.address_bits + self.block_bits)

    def describe(self) -> str:
        """One-line human-readable summary."""
        label = self.name or "ORAM"
        return (
            f"{label}: Z={self.z}, B={self.block_bytes}B, L={self.levels}, "
            f"N={self.total_blocks} blocks ({self.utilization:.0%} util), "
            f"bucket={self.bucket_bytes}B, stash={self.stash_capacity}"
        )


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of a hierarchical (recursive) Path ORAM.

    Parameters
    ----------
    data_oram:
        Configuration of ``ORAM_1``, the data ORAM.
    position_map_block_bytes:
        Block size of every position-map ORAM (Section 3.3.3).
    position_map_z:
        Bucket size ``Z`` of the position-map ORAMs.
    position_map_stash_capacity:
        Stash capacity of each position-map ORAM.
    position_map_utilization:
        Utilization of the position-map ORAMs.
    onchip_position_map_limit_bytes:
        Recursion stops once the outermost position map fits in this many
        bytes of on-chip storage (200 KB in the paper).
    position_map_encryption:
        Encryption scheme for position-map ORAMs.
    compressed_position_map:
        Pack the Freecursive-style compressed label layout into each
        position-map block: instead of ``k`` independent ``L_child``-bit
        leaf labels, the block stores one shared base label plus per-child
        offsets of roughly half the bits, so about twice as many children
        fit per block and the recursive chain gets shallower.  The
        functional simulation keeps exact integer labels either way (the
        compression is a *geometry* model, like ``encryption="none"``
        blocks being sized as if counter-encrypted); only the derived
        ``labels_per_position_block`` fan-out — and with it chain depth —
        changes.
    name:
        Optional label used in reports.
    """

    data_oram: ORAMConfig
    position_map_block_bytes: int = 32
    position_map_z: int = 3
    position_map_stash_capacity: int | None = 200
    position_map_utilization: float = 0.5
    onchip_position_map_limit_bytes: int = 200 * 1024
    position_map_encryption: EncryptionScheme = "counter"
    compressed_position_map: bool = False
    name: str = ""
    _max_orams: int = field(default=16, repr=False)

    def __post_init__(self) -> None:
        if self.position_map_block_bytes < 1:
            raise ConfigurationError("position_map_block_bytes must be >= 1")
        if self.position_map_z < 1:
            raise ConfigurationError("position_map_z must be >= 1")
        if self.onchip_position_map_limit_bytes < 1:
            raise ConfigurationError("onchip_position_map_limit_bytes must be >= 1")

    def labels_per_position_block(self, child: ORAMConfig) -> int:
        """How many leaf labels of ``child`` fit in one position-map block.

        Uncompressed: ``k = floor(B_pmap / L_child)``.  With
        ``compressed_position_map`` the block instead holds one full
        ``L_child``-bit base label plus ``ceil(L_child / 2)``-bit offsets
        (the Freecursive compressed-PosMap layout), so
        ``k = 1 + floor((B_pmap - L_child) / ceil(L_child / 2))`` children
        pack per block when that beats the plain layout.
        """
        block_bits = self.position_map_block_bytes * 8
        k = block_bits // child.leaf_bits
        if self.compressed_position_map:
            offset_bits = (child.leaf_bits + 1) // 2
            if block_bits > child.leaf_bits:
                k = max(k, 1 + (block_bits - child.leaf_bits) // offset_bits)
        if k < 1:
            raise ConfigurationError(
                "position-map block size too small to hold a single leaf label "
                f"({self.position_map_block_bytes} bytes vs {child.leaf_bits} bits)"
            )
        return k

    @property
    def oram_configs(self) -> tuple[ORAMConfig, ...]:
        """The chain of ORAM configurations, data ORAM first.

        ``ORAM_{h+1}`` stores ``ORAM_h``'s position map; recursion stops
        once the outermost position map fits on chip.
        """
        configs: list[ORAMConfig] = [self.data_oram]
        while len(configs) < self._max_orams:
            outermost = configs[-1]
            if outermost.position_map_bits <= self.onchip_position_map_limit_bytes * 8:
                break
            k = self.labels_per_position_block(outermost)
            entries = outermost.position_map_entries
            next_blocks = max(1, math.ceil(entries / k))
            configs.append(
                ORAMConfig(
                    working_set_blocks=next_blocks,
                    utilization=self.position_map_utilization,
                    z=self.position_map_z,
                    block_bytes=self.position_map_block_bytes,
                    stash_capacity=self.position_map_stash_capacity,
                    encryption=self.position_map_encryption,
                    bucket_align_bytes=self.data_oram.bucket_align_bytes,
                    name=f"pmap{len(configs)}",
                )
            )
        return tuple(configs)

    @property
    def num_orams(self) -> int:
        """Number of ORAMs in the hierarchy (``H``)."""
        return len(self.oram_configs)

    @property
    def onchip_position_map_bits(self) -> int:
        """Size of the final (on-chip) position map in bits."""
        return self.oram_configs[-1].position_map_bits

    @property
    def onchip_stash_bits(self) -> int:
        """Total stash storage across the hierarchy in bits."""
        return sum(cfg.stash_bits for cfg in self.oram_configs)

    def describe(self) -> str:
        """Multi-line human-readable summary of the hierarchy."""
        lines = [self.name or "Hierarchical ORAM"]
        for index, cfg in enumerate(self.oram_configs, start=1):
            lines.append(f"  ORAM{index}: {cfg.describe()}")
        lines.append(
            f"  on-chip position map: {self.onchip_position_map_bits / 8 / 1024:.1f} KB, "
            f"stash total: {self.onchip_stash_bits / 8 / 1024:.1f} KB"
        )
        return "\n".join(lines)
