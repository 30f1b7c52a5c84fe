"""Background eviction policies (Section 3.1).

Path ORAM fails when its stash overflows.  The paper's fix is *background
eviction*: once the stash holds more than ``C - Z(L+1)`` blocks, the ORAM
stops serving real requests and issues dummy accesses — reads of a uniformly
random path, written straight back with no remapping — until the stash
drains below the threshold.  Dummy accesses are indistinguishable from real
ones, so the scheme leaks nothing (Section 3.1.2).

Also implemented is the *insecure* block-remapping scheme of Section 3.1.3
(evict by re-accessing a random stash block, which remaps it).  It avoids
livelock but correlates consecutive paths; the CPL attack in
:mod:`repro.attacks.cpl` detects it, reproducing Figure 4.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.path_oram import PathORAM


class EvictionPolicy(ABC):
    """Decides what to do after each real access to keep the stash bounded."""

    @abstractmethod
    def after_access(self, oram: "PathORAM") -> int:
        """Run evictions as needed; return the number of dummy accesses issued."""


def _resolve_threshold(oram: "PathORAM") -> int | None:
    """The ORAM's eviction threshold, or ``None`` for an unbounded stash.

    PathORAM caches the threshold; duck-typed ORAMs (tests) that only carry
    a configuration fall back to the config's derived value.
    """
    threshold = getattr(oram, "eviction_threshold", None)
    if threshold is None:
        threshold = oram.config.eviction_threshold
    return threshold


class NoEviction(EvictionPolicy):
    """Never evict.

    Used with an unbounded stash for the Figure 3 failure-probability study,
    or with a bounded stash to observe genuine Path ORAM failure
    (:class:`~repro.errors.StashOverflowError`).
    """

    def after_access(self, oram: "PathORAM") -> int:
        return 0


class BackgroundEviction(EvictionPolicy):
    """The paper's provably secure dummy-access eviction scheme.

    Parameters
    ----------
    livelock_limit:
        Safety cap on consecutive dummy accesses per trigger.  The paper
        shows livelock probability is astronomically small for realistic
        parameters; the cap exists so that pathological test configurations
        fail loudly instead of hanging.  :attr:`dummy_budget` caps dummies
        across calls: each call may issue ``min(livelock_limit, remaining
        budget)`` before it raises and subtracts what it issued (the sweeps
        budget each chunk, then clear it).
    """

    _dummy_budget: int | None = None

    def __init__(self, livelock_limit: int = 100_000) -> None:
        self.livelock_limit = livelock_limit

    @property
    def livelock_limit(self) -> int:
        return self._livelock_limit

    @livelock_limit.setter
    def livelock_limit(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError("livelock_limit must be >= 1")
        self._livelock_limit = limit

    @property
    def dummy_budget(self) -> int | None:
        return self._dummy_budget

    @dummy_budget.setter
    def dummy_budget(self, budget: int | None) -> None:
        if budget is not None and budget < 1:
            raise ConfigurationError("dummy_budget must be >= 1 or None")
        self._dummy_budget = budget

    def after_access(self, oram: "PathORAM") -> int:
        threshold = _resolve_threshold(oram)
        if threshold is None:
            return 0
        budget = self._dummy_budget
        limit = self._livelock_limit if budget is None else min(budget, self._livelock_limit)
        issued = 0
        while oram.stash_occupancy > threshold:
            oram.dummy_access()
            issued += 1
            if issued > limit:
                raise ReproError(
                    "background eviction livelock: "
                    f"{issued} dummy accesses without draining the stash"
                )
        if budget is not None:
            self._dummy_budget = budget - issued
        return issued


class InsecureBlockRemapEviction(EvictionPolicy):
    """The insecure eviction scheme of Section 3.1.3 (for the CPL attack).

    When the stash exceeds the threshold, a random block *currently in the
    stash* is accessed (and therefore remapped).  Blocks gradually escape
    congested paths so livelock cannot occur, but the accessed path is now
    correlated with the previous access — exactly what the common-path-length
    attack exploits.
    """

    def __init__(self, rng: random.Random | None = None, livelock_limit: int = 100_000) -> None:
        if livelock_limit < 1:
            raise ConfigurationError("livelock_limit must be >= 1")
        self._rng = rng if rng is not None else random.Random()
        self._livelock_limit = livelock_limit

    def after_access(self, oram: "PathORAM") -> int:
        threshold = _resolve_threshold(oram)
        if threshold is None:
            return 0
        issued = 0
        while oram.stash_occupancy > threshold:
            addresses = oram.stash_addresses()
            if not addresses:
                break
            victim = self._rng.choice(addresses)
            oram.remap_access(victim)
            issued += 1
            if issued > self._livelock_limit:
                raise ReproError("insecure eviction failed to drain the stash")
        return issued
