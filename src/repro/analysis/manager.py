"""Shared analysis results: compute once per function, reuse everywhere.

Every consumer of a dataflow analysis used to run the solver itself --
CSE computed its own dominator tree, DCE its own observability closure,
and each lint rule re-solved nullness or range from scratch, so the same
facts were derived three or four times per compilation.  *The ART of
Sharing Points-to Analysis* (Halalingaiah et al.) makes the case that
safely reusing analysis results across passes and compilations is where
industrial compile-time goes; this module is that idea for the SafeTSA
pipeline.

:class:`AnalysisManager` caches analysis results per ``(analysis,
function)`` pair.  Consumers call :meth:`AnalysisManager.get`; the pass
manager invalidates after every pass that does not declare the analysis
preserved (see :class:`repro.driver.passes.Pass`).  A pass whose
statistics show it changed nothing implicitly preserves everything.

The registry is open: :func:`register_analysis` adds a new analysis
under a name, mirroring the lint-rule registry.  Built-in analyses:

=============  ====================================================
``domtree``    :func:`repro.ssa.dominators.compute_dominators`
``observable`` :func:`repro.analysis.liveness.observable_values`
``liveness``   :func:`repro.analysis.liveness.analyze_liveness`
``nullness``   :func:`repro.analysis.nullness.analyze_nullness`
``range``      :func:`repro.analysis.range.analyze_ranges`
=============  ====================================================

The manager is thread-safe for callers working on disjoint functions:
the lock only guards the shared cache dictionary and the hit/computed
counters.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.ssa.ir import Function

#: analysis name -> solver(function); see :func:`register_analysis`.
ANALYSES: dict[str, Callable[[Function], object]] = {}


def register_analysis(name: str, solver: Optional[Callable] = None):
    """Register ``solver`` under ``name`` (usable as a decorator)."""
    def register(fn):
        ANALYSES[name] = fn
        return fn
    if solver is not None:
        return register(solver)
    return register


@register_analysis("domtree")
def _domtree(function: Function):
    from repro.ssa.dominators import compute_dominators
    return compute_dominators(function)


@register_analysis("observable")
def _observable(function: Function):
    from repro.analysis.liveness import observable_values
    return observable_values(function)


@register_analysis("liveness")
def _liveness(function: Function):
    from repro.analysis.liveness import analyze_liveness
    return analyze_liveness(function)


@register_analysis("nullness")
def _nullness(function: Function):
    from repro.analysis.nullness import analyze_nullness
    return analyze_nullness(function)


@register_analysis("range")
def _range(function: Function):
    from repro.analysis.range import analyze_ranges
    return analyze_ranges(function)


@register_analysis("loops")
def _loops(function: Function):
    from repro.analysis.loops import find_loops
    return find_loops(function)


class AnalysisManager:
    """Per-function cache of analysis results with hit accounting.

    Results are keyed by function *identity*: a manager outlives any
    number of modules, and two functions never alias.  The functions
    themselves are pinned so an ``id()`` can never be recycled while its
    cache entries are alive.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[str, int], object] = {}
        self._pinned: dict[int, Function] = {}
        self._lock = threading.Lock()
        self.computed = 0
        self.hits = 0
        self.invalidations = 0
        #: analysis name -> {"computed": n, "hits": n}
        self.per_analysis: dict[str, dict[str, int]] = {}

    # -- lookup ---------------------------------------------------------

    def get(self, name: str, function: Function):
        """The ``name`` analysis result for ``function``, cached."""
        solver = ANALYSES.get(name)
        if solver is None:
            raise KeyError(
                f"unknown analysis {name!r}; known: {sorted(ANALYSES)}")
        key = (name, id(function))
        with self._lock:
            if key in self._cache:
                self.hits += 1
                self._account(name)["hits"] += 1
                return self._cache[key]
        # compute outside the lock: concurrent callers own disjoint
        # functions, so no two threads ever solve the same problem
        value = solver(function)
        with self._lock:
            self._cache[key] = value
            self._pinned[id(function)] = function
            self.computed += 1
            self._account(name)["computed"] += 1
        return value

    def cached(self, name: str, function: Function):
        """The cached result, or None without computing anything."""
        return self._cache.get((name, id(function)))

    def _account(self, name: str) -> dict:
        stats = self.per_analysis.get(name)
        if stats is None:
            stats = self.per_analysis[name] = {"computed": 0, "hits": 0}
        return stats

    # -- invalidation ---------------------------------------------------

    def invalidate(self, function: Function,
                   preserved: frozenset = frozenset()) -> None:
        """Drop ``function``'s results except the ``preserved`` names."""
        target = id(function)
        with self._lock:
            stale = [key for key in self._cache
                     if key[1] == target and key[0] not in preserved]
            for key in stale:
                del self._cache[key]
                self.invalidations += 1
            if not any(key[1] == target for key in self._cache):
                self._pinned.pop(target, None)

    def invalidate_all(self) -> None:
        with self._lock:
            self.invalidations += len(self._cache)
            self._cache.clear()
            self._pinned.clear()

    # -- accounting -----------------------------------------------------

    @property
    def consumers_per_computed(self) -> float:
        """Average number of consumers each computed result served."""
        if not self.computed:
            return 0.0
        return (self.hits + self.computed) / self.computed

    def stats(self) -> dict:
        return {
            "computed": self.computed,
            "hits": self.hits,
            "invalidations": self.invalidations,
            "consumers_per_computed": round(
                self.consumers_per_computed, 3),
            "per_analysis": {
                name: dict(counts)
                for name, counts in sorted(self.per_analysis.items())},
        }
