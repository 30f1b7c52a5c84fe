"""Reproduction of Path ORAM design space exploration (Ren et al., ISCA 2013).

The top-level package re-exports the **stable public API facade**
(:mod:`repro.api`): configuration types, :func:`open_oram` construction,
the experiment runner, the serving layer and the typed error hierarchy —
see ``repro.api`` for the curated surface and the README's public-API
reference table.  Application code should import from here (or from
``repro.api``); the subpackages below are implementation layers that stay
free to refactor:

``repro.core``
    Path ORAM itself: configuration, the tree, the stash, the position map,
    background eviction, super blocks and the hierarchical (recursive)
    construction, plus analytic overhead and storage models.

``repro.crypto``
    The randomized-encryption substrate: a pure-Python AES-128, PRF
    keystreams, and the strawman / counter-based bucket encryption schemes.

``repro.integrity``
    Integrity verification: the strawman Merkle tree and the ORAM-mirrored
    authentication tree with child-valid flags.

``repro.dram``
    A DDR3-like DRAM timing model and the naive / subtree placements of the
    ORAM tree onto it.

``repro.processor``
    A trace-driven in-order processor model with exclusive L1/L2 caches and
    pluggable memory back-ends (plain DRAM or Path ORAM).

``repro.workloads``
    Synthetic and SPEC-like memory-trace generators.

``repro.attacks``
    The common-path-length (CPL) attack used to demonstrate that naive
    eviction schemes leak.

``repro.analysis``
    Design-space sweep drivers and result formatting used by the benchmark
    harness.

``repro.runner``
    The unified experiment runner: grids of independent simulation points
    executed serially or on a process pool with bit-identical results.

``repro.backends``
    The backend/scenario registry: named storage stacks and protocol
    variants every driver builds its ORAMs through.

``repro.serve``
    ORAM-as-a-service: the async multi-tenant serving layer with the
    deterministic batch scheduler and the closed-loop load generator.
"""

from repro.api import *  # noqa: F403 - the facade is the public surface
from repro.api import __all__ as _api_all
from repro.backends import build_interface, build_oram  # legacy aliases

__version__ = "5.0.0"

__all__ = list(_api_all) + ["build_oram", "build_interface", "__version__"]
