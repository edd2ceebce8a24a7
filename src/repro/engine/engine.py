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
   serially in-process, or fanned out over supervised ``spawn``
   workers when ``jobs > 1`` — with per-attempt timeouts, bounded
   retries, and quarantine of poison requests.  Cacheable results are
   flushed to disk *as they arrive*, so an interrupt mid-batch loses
   nothing already computed.

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
from dataclasses import dataclass, field

from ..obs.span import Span
from .cache import ResultCache
from .faults import FaultPlan
from .request import AllocationSummary, ExperimentRequest, request_key
from .supervisor import (ExperimentFailure, SupervisorConfig, WorkerPool,
                         expect_summary, run_supervised)


@dataclass
class RequestObservation:
    """Provenance and timing of one request within a ``run_many`` call.

    Filled when the caller passes ``observations`` to :meth:`
    ExperimentEngine.run_many` — the allocation server uses these to
    stitch per-request traces and to stamp access-log lines.

    Attributes:
        source: where the answer came from — ``memo`` / ``cache`` /
            ``executed`` / ``failed`` (``dedup`` is invisible here: a
            duplicate key resolves to the same observation object).
        attempts: execution attempts made (0 for hits).
        spans: one ``attempt`` span per attempt (retries are siblings),
            in the engine process's ``time.monotonic`` clock, plus a
            ``cache_put`` span when the result was flushed to disk.
    """

    source: str = "executed"
    attempts: int = 0
    spans: list[Span] = field(default_factory=list)
    #: seconds spent writing the summary to the persistent cache
    cache_put_s: float = 0.0

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class EngineStats:
    """Where the answers of one engine's lifetime came from — plus the
    fault ledger of everything that went wrong along the way."""

    requests: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    #: requests quarantined as :class:`ExperimentFailure`
    failed: int = 0
    #: re-executions scheduled after a failed attempt
    retries: int = 0
    #: attempts killed for exceeding the per-attempt timeout
    timeouts: int = 0
    #: worker processes observed dead while holding a request
    worker_crashes: int = 0
    #: requests that exhausted the retry budget
    quarantined: int = 0
    #: requests answered ``DeadlineExpired`` instead of executing
    expired: int = 0
    #: worker spawns that failed
    spawn_failures: int = 0
    #: batches that degraded to serial in-process execution
    fallback_serial: int = 0
    #: worker processes spawned across every batch — bounded by the
    #: pool size (plus crash replacements) when a warm pool is attached
    worker_spawns: int = 0
    #: dispatches served by an already-live pool worker
    workers_reused: int = 0


@dataclass
class BatchStats:
    """One ``run_many`` call: where its answers came from and how wide
    the miss execution fanned out (0 workers = nothing executed)."""

    requests: int = 0
    deduplicated: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    #: pool processes used for the misses (1 = in-process serial)
    workers: int = 0


@dataclass
class ExperimentEngine:
    """A request executor with memoization, disk cache and supervision.

    Args:
        jobs: worker processes for cache misses (default:
            ``os.cpu_count()``); ``1`` executes in-process.
        cache_dir: where cacheable summaries persist (default:
            ``benchmarks/results/cache/``, overridable with
            ``$REPRO_CACHE_DIR``).
        use_cache: disable to bypass the persistent cache entirely
            (the in-process memo still deduplicates within a run).
        supervisor: failure policy — per-attempt timeout, retry
            budget, backoff, serial-fallback threshold.
        fault_plan: deterministic fault injection for the chaos suite
            (never set in production paths).
        pool: a persistent :class:`~repro.engine.supervisor.WorkerPool`
            shared across every ``run_many`` call.  Without one, each
            batch spins up (and tears down) its own ephemeral pool; a
            long-running caller — the allocation server — attaches a
            warm pool so steady-state batches reuse live workers.  The
            caller owns the pool and must ``close()`` it.
            Concurrent ``run_many`` calls share it.
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
        self.cache = ResultCache(self.cache_dir) if self.use_cache else None
        self._memo: dict[str, AllocationSummary] = {}
        #: quarantined failures, in delivery order, engine lifetime
        self.failures: list[ExperimentFailure] = []
        #: per-``run_many`` provenance, in call order (the bench
        #: harnesses used to infer hit rates from wall-clock deltas;
        #: now the engine records them)
        self.batches: list[BatchStats] = []
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

        Each call appends a :class:`BatchStats` entry to
        :attr:`batches` recording the batch's hit/miss provenance and
        pool fan-out.  Cacheable results are flushed to the persistent
        cache as they complete, so a ``KeyboardInterrupt`` mid-batch
        terminates the workers promptly without losing finished work.

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
        batch = BatchStats(requests=len(keyed))
        resolved: dict[str, AllocationSummary | ExperimentFailure] = {}
        misses: dict[str, ExperimentRequest] = {}
        with self._lock:
            self.batches.append(batch)
            self.stats.requests += len(keyed)
            for key, request in keyed:
                if key in resolved or key in misses:
                    self.stats.deduplicated += 1
                    batch.deduplicated += 1
                    continue
                # non-cacheable (timing) requests are deduplicated within
                # this batch but never replayed from memo or disk — their
                # wall-clock data must be measured live every call
                if request.cacheable:
                    summary = self._memo.get(key)
                    if summary is not None:
                        self.stats.memo_hits += 1
                        batch.memo_hits += 1
                        if observations is not None:
                            observations[key] = RequestObservation(
                                source="memo")
                        resolved[key] = summary
                        continue
                    if self.cache is not None:
                        summary = self.cache.get(key)
                        if summary is not None:
                            self.stats.cache_hits += 1
                            batch.cache_hits += 1
                            if observations is not None:
                                observations[key] = RequestObservation(
                                    source="cache")
                            self._memo[key] = summary
                            resolved[key] = summary
                            continue
                misses[key] = request

        if misses:
            outcomes, batch.workers = self._execute(
                misses, batch, observations, deadlines)
            resolved.update(outcomes)

        return [resolved[key] for key, _ in keyed]

    def _execute(self, misses: dict[str, ExperimentRequest],
                 batch: BatchStats,
                 observations: dict[str, RequestObservation]
                 | None = None,
                 deadlines: dict[str, float] | None = None,
                 ) -> tuple[dict[str, AllocationSummary
                                 | ExperimentFailure], int]:
        """Run cache misses under supervision; returns outcomes plus the
        fan-out width used."""
        assert self.jobs is not None
        if self.pool is not None:
            workers = min(self.pool.size, len(misses))
        else:
            workers = min(self.jobs, len(misses))

        cache_puts: dict[str, tuple[float, float]] = {}

        def on_result(key: str,
                      outcome: AllocationSummary | ExperimentFailure
                      ) -> None:
            # flush incrementally: completed work survives interrupts
            with self._lock:
                if isinstance(outcome, AllocationSummary):
                    self.stats.executed += 1
                    batch.executed += 1
                    if misses[key].cacheable:
                        if self.cache is not None:
                            put_start = time.monotonic()
                            self.cache.put(key, outcome)
                            cache_puts[key] = (put_start, time.monotonic())
                        self._memo[key] = outcome
                else:
                    self.stats.failed += 1
                    batch.failed += 1
                    self.failures.append(outcome)

        outcomes, sstats = run_supervised(
            list(misses.items()), workers, config=self.supervisor,
            plan=self.fault_plan, on_result=on_result, pool=self.pool,
            deadlines=deadlines)
        if observations is not None:
            for key, outcome in outcomes.items():
                record = RequestObservation(
                    source="executed"
                    if isinstance(outcome, AllocationSummary)
                    else "failed")
                attempt = sstats.observations.get(key)
                if attempt is not None:
                    record.attempts = attempt.attempts
                    record.spans = list(attempt.spans)
                put = cache_puts.get(key)
                if put is not None:
                    record.cache_put_s = put[1] - put[0]
                    record.spans.append(
                        Span("cache_put", start=put[0], end=put[1]))
                observations[key] = record
        with self._lock:
            self.stats.retries += sstats.retries
            self.stats.timeouts += sstats.timeouts
            self.stats.worker_crashes += sstats.worker_crashes
            self.stats.quarantined += sstats.quarantined
            self.stats.expired += sstats.expired
            self.stats.spawn_failures += sstats.spawn_failures
            self.stats.fallback_serial += sstats.fallback_serial
            self.stats.worker_spawns += sstats.worker_spawns
            self.stats.workers_reused += sstats.workers_reused
        return outcomes, max(1, workers)

    def metrics(self) -> "MetricsRegistry":
        """The engine's lifetime stats as a metrics registry.

        Counters under ``engine.*`` absorb :class:`EngineStats` — the
        hit/miss provenance plus the fault ledger (``engine.retries``,
        ``engine.timeouts``, ``engine.worker_crashes``,
        ``engine.quarantined``, ``engine.fallback_serial``) and the
        cache-integrity counters (``engine.cache_corrupt``,
        ``engine.cache_quarantined``, ``engine.cache_write_errors``);
        ``engine.batch_size`` and ``engine.fanout`` histograms cover
        the per-:meth:`run_many` batch shapes.
        """
        from ..obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.absorb_dataclass(self.stats, "engine")
        if self.cache is not None:
            registry.counter("engine.cache_corrupt").inc(
                self.cache.stats.corrupt)
            registry.counter("engine.cache_quarantined").inc(
                self.cache.stats.quarantined)
            registry.counter("engine.cache_write_errors").inc(
                self.cache.stats.write_errors)
            registry.counter("engine.cache_quarantine_races").inc(
                self.cache.stats.quarantine_races)
        registry.counter("engine.batches").inc(len(self.batches))
        for batch in self.batches:
            registry.histogram("engine.batch_size").observe(batch.requests)
            if batch.workers:
                registry.histogram("engine.fanout").observe(batch.workers)
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
