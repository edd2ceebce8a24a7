"""The :class:`AnalysisManager`: lazy, cached, invalidation-aware analyses.

Every transform in the repo needs some subset of the same three facts —
liveness, dominance, loop nesting — and before this layer existed each
one recomputed them ad hoc (the splitting schemes, SSA construction and
LICM each ran their own liveness fixed point).  Following the argument of Tavares et al. (*Parameterized
Construction of Program Representations for Sparse Dataflow Analyses*),
analysis construction is a shared service: a pass asks the manager, the
manager computes at most once, and a pass that mutates the function
reports what it *preserved* so only the stale entries are dropped.

The protocol:

* an :class:`Analysis` names a fact and knows how to compute it (possibly
  in terms of other analyses — ``loops`` pulls ``dominance`` through the
  manager, so the two always share one CFG walk);
* :meth:`AnalysisManager.get` serves the cache or computes and records
  which happened (``analysis.computed.*`` / ``analysis.reused.*``
  counters on a :class:`~repro.obs.MetricsRegistry`);
* after running, a pass hands the manager a :class:`PreservedAnalyses`
  and :meth:`AnalysisManager.invalidate` evicts everything not in it.

Cached objects may be *maintained* instead of invalidated when a cheaper
update exists: the allocator's coalescer renames the cached
:class:`~repro.analysis.LivenessInfo` bitsets in place
(:meth:`~repro.analysis.LivenessInfo.rename`) rather than re-running the
fixed point, exactly as in PR 1 — the manager simply keeps serving the
maintained object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..analysis import (CodeDelta, DominanceInfo, LivenessInfo,
                        LivenessUpdateStats, LoopInfo, compute_dominance,
                        compute_liveness, compute_loops)
from ..ir import Function
from ..obs import MetricsRegistry


@dataclass(frozen=True)
class Analysis:
    """A named, manager-computable analysis."""

    name: str
    compute: Callable[[Function, "AnalysisManager"], Any]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Analysis({self.name})"


LIVENESS = Analysis("liveness", lambda fn, am: compute_liveness(fn))
DOMINANCE = Analysis("dominance", lambda fn, am: compute_dominance(fn))
LOOPS = Analysis("loops", lambda fn, am: compute_loops(fn, am.dominance()))

ALL_ANALYSES: tuple[Analysis, ...] = (LIVENESS, DOMINANCE, LOOPS)
ANALYSES_BY_NAME: dict[str, Analysis] = {a.name: a for a in ALL_ANALYSES}

#: analyses that depend only on the CFG's block/edge shape, not on the
#: instructions inside blocks — preserved by any transform that neither
#: adds/removes blocks nor rewrites terminators
CFG_ANALYSES = frozenset({"dominance", "loops"})


class PreservedAnalyses:
    """What a pass left valid: ``all()``, ``none()``, or a named subset.

    Immutable; combine with ``&`` (a sequence of passes preserves the
    intersection of what each one preserves).
    """

    __slots__ = ("_all", "_names")

    def __init__(self, names: frozenset[str], preserve_all: bool = False):
        self._all = preserve_all
        self._names = names

    @classmethod
    def all(cls) -> "PreservedAnalyses":
        """The pass changed nothing the cache can see."""
        return _ALL

    @classmethod
    def none(cls) -> "PreservedAnalyses":
        """Conservative default: every cached analysis is stale."""
        return _NONE

    @classmethod
    def of(cls, *names: str) -> "PreservedAnalyses":
        unknown = set(names) - set(ANALYSES_BY_NAME)
        if unknown:
            raise ValueError(f"unknown analyses: {sorted(unknown)}")
        return cls(frozenset(names))

    @classmethod
    def cfg(cls) -> "PreservedAnalyses":
        """Shape-only preservation: dominance and loops."""
        return _CFG

    def preserves(self, name: str) -> bool:
        return self._all or name in self._names

    def __and__(self, other: "PreservedAnalyses") -> "PreservedAnalyses":
        if self._all:
            return other
        if other._all:
            return self
        return PreservedAnalyses(self._names & other._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreservedAnalyses):
            return NotImplemented
        return (self._all, self._names) == (other._all, other._names)

    def __hash__(self) -> int:
        return hash((self._all, self._names))

    def describe(self) -> str:
        """Human-readable form for ``repro passes``."""
        if self._all:
            return "all"
        if not self._names:
            return "none"
        return ", ".join(sorted(self._names))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PreservedAnalyses({self.describe()})"


_ALL = PreservedAnalyses(frozenset(ANALYSES_BY_NAME), preserve_all=True)
_NONE = PreservedAnalyses(frozenset())
_CFG = PreservedAnalyses(CFG_ANALYSES)


class AnalysisManager:
    """Per-function analysis cache with hit/miss accounting.

    One manager serves one :class:`~repro.ir.Function` for the duration
    of a pipeline (or one ``allocate`` call).  Analyses are computed on
    first request and served from cache until a pass's
    :class:`PreservedAnalyses` evicts them.
    """

    def __init__(self, fn: Function,
                 metrics: MetricsRegistry | None = None) -> None:
        self.fn = fn
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._cache: dict[str, Any] = {}

    # -- retrieval ------------------------------------------------------------

    def get(self, analysis: Analysis) -> Any:
        value = self._cache.get(analysis.name)
        if value is not None:
            self.metrics.counter(f"analysis.reused.{analysis.name}").inc()
            return value
        value = analysis.compute(self.fn, self)
        self._cache[analysis.name] = value
        self.metrics.counter(f"analysis.computed.{analysis.name}").inc()
        return value

    def cached(self, analysis: Analysis) -> bool:
        return analysis.name in self._cache

    # typed conveniences, one per registered analysis
    def liveness(self) -> LivenessInfo:
        return self.get(LIVENESS)

    def dominance(self) -> DominanceInfo:
        return self.get(DOMINANCE)

    def loops(self) -> LoopInfo:
        return self.get(LOOPS)

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, preserved: PreservedAnalyses) -> None:
        """Evict every cached analysis *preserved* does not cover."""
        for name in list(self._cache):
            if not preserved.preserves(name):
                del self._cache[name]

    def invalidate_all(self) -> None:
        self._cache.clear()

    # -- incremental maintenance ----------------------------------------------

    def update(self, delta: CodeDelta,
               preserved: PreservedAnalyses | None = None
               ) -> LivenessUpdateStats | None:
        """Maintain the cache across an instruction-level edit.

        The third cache outcome, alongside compute and reuse: analyses
        with an incremental updater — currently liveness, via
        :meth:`~repro.analysis.LivenessInfo.apply_delta` — are patched
        in place and keep serving requests; everything else follows the
        invalidation protocol against *preserved* (default: the CFG
        shape analyses, since a :class:`~repro.analysis.CodeDelta` by
        contract never changes block/edge structure).

        Emits ``analysis.updated.liveness`` plus the
        ``analysis.incremental.*`` reconciliation counters (blocks
        re-analyzed vs. total).  Returns the update stats when a cached
        liveness was patched, else ``None``.
        """
        if preserved is None:
            preserved = PreservedAnalyses.cfg()
        stats: LivenessUpdateStats | None = None
        live = self._cache.get("liveness")
        if live is not None:
            stats = live.apply_delta(delta)
            metrics = self.metrics
            metrics.counter("analysis.updated.liveness").inc()
            metrics.counter("analysis.incremental.blocks_reanalyzed").inc(
                stats.blocks_reanalyzed)
            metrics.counter("analysis.incremental.blocks_total").inc(
                stats.blocks_total)
        for name in list(self._cache):
            if name == "liveness" and stats is not None:
                continue
            if not preserved.preserves(name):
                del self._cache[name]
        return stats

    # -- accounting -----------------------------------------------------------

    def n_computed(self, name: str | None = None) -> int:
        """Fixed points actually run (for *name*, or in total)."""
        return self._count("analysis.computed", name)

    def n_reused(self, name: str | None = None) -> int:
        """Requests served from cache (for *name*, or in total)."""
        return self._count("analysis.reused", name)

    def n_updated(self, name: str | None = None) -> int:
        """Cached entries patched in place by :meth:`update`."""
        return self._count("analysis.updated", name)

    def _count(self, prefix: str, name: str | None) -> int:
        if name is not None:
            return self.metrics.counter(f"{prefix}.{name}").value
        return sum(value for key, value in self.metrics.counters().items()
                   if key.startswith(prefix + "."))
