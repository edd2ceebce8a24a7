"""The allocation-experiment engine: dedup → cache → supervised fan-out.

Every experiment harness (Table 1, Table 2, the ablations, the register
sweep, the benchmark suite, the CLI) submits
:class:`~repro.engine.request.ExperimentRequest` batches here instead of
calling ``allocate`` in its own loop.  ``run_many`` then

1. **keys** each request by content hash and deduplicates the batch —
   overlapping harnesses (the huge-machine baselines, the shared
   standard-machine runs) collapse to one execution;
2. serves **hits** from the in-process memo and, for cacheable
   requests, the persistent on-disk :class:`~repro.engine.cache.
   ResultCache` (whose checksummed envelope quarantines corrupt
   entries as misses);
3. executes the **misses** under the :mod:`~repro.engine.supervisor` —
   in-process, or fanned out over the engine's persistent pool of
   supervised ``spawn`` workers when ``jobs > 1`` — with per-attempt
   timeouts, bounded retries, and quarantine of poison requests.
   Cacheable results are flushed to disk *as they arrive*, so an
   interrupt mid-batch loses nothing already computed.

Results come back in request order.  Surviving requests are
:class:`~repro.engine.request.AllocationSummary` values — and (PR 1's
determinism) bit-identical whichever path produced them; only the live
``timing`` field differs, and it is never cached.  Requests the
supervisor gave up on come back as typed
:class:`~repro.engine.supervisor.ExperimentFailure` values so harnesses
render partial tables instead of aborting (single-request call sites
use :meth:`ExperimentEngine.run`, which raises
:class:`~repro.engine.supervisor.ExperimentError` instead).
"""

from __future__ import annotations

import os
import pathlib
import threading
import time
import weakref
from dataclasses import dataclass, field

from ..obs.metrics import Histogram
from ..obs.span import Span
from .cache import ResultCache
from .faults import FaultPlan
from .request import AllocationSummary, ExperimentRequest, request_key
from .supervisor import (EngineStats, ExperimentFailure, RequestObservation,
                         SupervisorConfig, WorkerPool, expect_summary,
                         run_supervised)


@dataclass
class ExperimentEngine:
    """A request executor with memoization, disk cache and supervision.

    Args:
        jobs: worker processes for cache misses (default:
            ``os.cpu_count()``).  ``1`` executes in-process; ``N > 1``
            builds one :class:`~repro.engine.supervisor.WorkerPool` of
            ``N`` workers that lives as long as the engine (workers
            spawn on first use, and the pool is closed when the engine
            is collected).  Ignored when *pool* is given.
        cache_dir: where cacheable summaries persist (default:
            ``benchmarks/results/cache/``, overridable with
            ``$REPRO_CACHE_DIR``).
        use_cache: disable to bypass the persistent cache entirely
            (the in-process memo still deduplicates within a run).
        supervisor: failure policy — per-attempt timeout, retry
            budget, backoff, in-process fallback threshold.
        fault_plan: deterministic fault injection for the chaos suite
            (never set in production paths).
        pool: a caller-built worker pool to run every batch on, even
            with ``jobs=1`` — the allocation server attaches its warm
            pool this way.  The caller owns it and must ``close()`` it.
            Concurrent ``run_many`` calls share the pool either way.
    """

    jobs: int | None = None
    cache_dir: pathlib.Path | str | None = None
    use_cache: bool = True
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    fault_plan: FaultPlan | None = None
    pool: WorkerPool | None = None
    stats: EngineStats = field(default_factory=EngineStats)

    def __post_init__(self) -> None:
        if self.jobs is None:
            self.jobs = os.cpu_count() or 1
        if self.pool is None and self.jobs > 1:
            self.pool = WorkerPool(self.jobs, self.fault_plan)
            weakref.finalize(self, self.pool.close)
        self.cache = ResultCache(self.cache_dir) if self.use_cache else None
        self._memo: dict[str, AllocationSummary] = {}
        #: quarantined failures, in delivery order, engine lifetime
        self.failures: list[ExperimentFailure] = []
        #: requests per ``run_many`` call, and workers used by each call
        #: that executed something (1 = in-process)
        self._batch_size = Histogram("engine.batch_size")
        self._fanout = Histogram("engine.fanout")
        #: serializes the bookkeeping of concurrent ``run_many`` calls;
        #: their pool fan-outs run outside it
        self._lock = threading.Lock()

    def run(self, request: ExperimentRequest) -> AllocationSummary:
        """Execute (or recall) one request; raises
        :class:`~repro.engine.supervisor.ExperimentError` if the
        supervisor quarantined it."""
        return expect_summary(self.run_many([request])[0])

    def run_many(self, requests: list[ExperimentRequest],
                 observations: dict[str, RequestObservation] | None = None,
                 deadlines: dict[str, float] | None = None,
                 ) -> list[AllocationSummary | ExperimentFailure]:
        """Execute (or recall) a batch; results align with *requests*.

        Each call counts into :attr:`stats` and the ``engine.batch_size``
        / ``engine.fanout`` histograms of :meth:`metrics`.  Cacheable
        results are flushed to the persistent cache as they complete,
        so a ``KeyboardInterrupt`` mid-batch terminates the in-flight
        workers promptly without losing finished work.

        *observations*, when given, is filled with one
        :class:`RequestObservation` per unique request key — the
        provenance (memo/cache/executed/failed), attempt count and
        attempt span trees the allocation server stitches into
        per-request traces.  ``None`` (the default) records nothing.

        *deadlines* maps request keys to absolute ``time.monotonic``
        deadlines; misses whose deadline has passed are answered
        ``DeadlineExpired`` without executing (hits are always served —
        a memo lookup is cheaper than checking the clock).
        """
        keyed = [(request_key(r), r) for r in requests]
        resolved: dict[str, AllocationSummary | ExperimentFailure] = {}
        misses: dict[str, ExperimentRequest] = {}
        with self._lock:
            self.stats.batches += 1
            self.stats.requests += len(keyed)
            self._batch_size.observe(len(keyed))
            for key, request in keyed:
                if key in resolved or key in misses:
                    self.stats.deduplicated += 1
                    continue
                # non-cacheable (timing) requests are deduplicated within
                # this batch but never replayed from memo or disk — their
                # wall-clock data must be measured live every call
                if request.cacheable:
                    summary = self._memo.get(key)
                    if summary is not None:
                        self.stats.memo_hits += 1
                        if observations is not None:
                            observations[key] = RequestObservation(
                                source="memo")
                        resolved[key] = summary
                        continue
                    if self.cache is not None:
                        summary = self.cache.get(key)
                        if summary is not None:
                            self.stats.cache_hits += 1
                            if observations is not None:
                                observations[key] = RequestObservation(
                                    source="cache")
                            self._memo[key] = summary
                            resolved[key] = summary
                            continue
                misses[key] = request
            if misses:
                self._fanout.observe(min(self.pool.size, len(misses))
                                     if self.pool is not None else 1)

        if misses:
            resolved.update(self._execute(misses, observations, deadlines))

        return [resolved[key] for key, _ in keyed]

    def _execute(self, misses: dict[str, ExperimentRequest],
                 observations: dict[str, RequestObservation] | None,
                 deadlines: dict[str, float] | None,
                 ) -> dict[str, AllocationSummary | ExperimentFailure]:
        """Run cache misses under supervision."""

        def on_result(key: str,
                      outcome: AllocationSummary | ExperimentFailure
                      ) -> None:
            # flush incrementally: completed work survives interrupts
            with self._lock:
                if isinstance(outcome, ExperimentFailure):
                    self.failures.append(outcome)
                elif misses[key].cacheable:
                    if self.cache is not None:
                        put_start = time.monotonic()
                        self.cache.put(key, outcome)
                        put_end = time.monotonic()
                        if observations is not None:
                            record = observations[key]
                            record.cache_put_s = put_end - put_start
                            record.spans.append(Span(
                                "cache_put", start=put_start, end=put_end))
                    self._memo[key] = outcome

        delta = EngineStats()
        try:
            return run_supervised(
                list(misses.items()), self.pool, config=self.supervisor,
                plan=self.fault_plan, on_result=on_result,
                deadlines=deadlines, stats=delta,
                observations=observations)
        finally:
            with self._lock:
                self.stats.add(delta)

    def metrics(self) -> "MetricsRegistry":
        """The engine's lifetime stats as a metrics registry.

        Counters under ``engine.*`` absorb :class:`EngineStats` — the
        hit/miss provenance, ``engine.batches``, the fault ledger
        (``engine.retries``, ``engine.timeouts``,
        ``engine.worker_crashes``, ``engine.quarantined``,
        ``engine.fallback_serial``) and the cache-integrity counters
        (``engine.cache_corrupt``, ``engine.cache_quarantined``,
        ``engine.cache_write_errors``); ``engine.batch_size`` and
        ``engine.fanout`` histograms cover the per-:meth:`run_many`
        batch shapes.
        """
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
        with self._lock:
            registry.absorb_dataclass(self.stats, "engine")
            for shape in (self._batch_size, self._fanout):
                if shape.count:
                    registry.histogram(shape.name).merge(shape)
        if self.cache is not None:
            registry.counter("engine.cache_corrupt").inc(
                self.cache.stats.corrupt)
            registry.counter("engine.cache_quarantined").inc(
                self.cache.stats.quarantined)
            registry.counter("engine.cache_write_errors").inc(
                self.cache.stats.write_errors)
            registry.counter("engine.cache_quarantine_races").inc(
                self.cache.stats.quarantine_races)
        return registry


_DEFAULT_ENGINE: ExperimentEngine | None = None


def default_engine() -> ExperimentEngine:
    """The process-wide fallback engine of the experiment harnesses.

    Serial and memo-only: library calls that do not pass an engine get
    request deduplication within the process but no persistent state —
    test runs stay hermetic.  The CLI and the benchmark evidence
    construct explicit engines with the pool and the disk cache.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine(jobs=1, use_cache=False)
    return _DEFAULT_ENGINE
