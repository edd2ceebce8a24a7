"""Supervised execution: timeouts, crash detection, retry, quarantine.

``ExperimentEngine`` used to fan cache misses out with a bare
``pool.map`` — one worker segfault, OOM kill, or pathological-CFG hang
lost the entire batch.  This module replaces the pool with a
*supervisor* over long-lived ``spawn`` worker processes:

* each request is dispatched **individually** over a pipe, so the
  supervisor always knows which request a worker is holding;
* a configurable **per-attempt timeout** catches hangs — the worker is
  killed and the request retried elsewhere;
* **worker death** (the process sentinel fires while a request is in
  flight) is detected per request, not per batch;
* failed attempts are **retried with exponential backoff** up to a
  bounded budget, after which the request is declared poison and
  **quarantined** as a typed :class:`ExperimentFailure` — surviving
  requests still come back as normal summaries, so harnesses render
  partial tables instead of aborting;
* when the pool itself is unhealthy (``max_spawn_failures`` consecutive
  worker spawns fail) the supervisor **degrades to in-process
  execution** and finishes the batch without workers.

Worker processes live in a :class:`WorkerPool` that outlives the
batch: the engine (or the allocation server) builds one and hands it to
every batch, so steady-state traffic reuses live workers instead of
paying interpreter spawn and import cost per ``run_many``.  A batch
given no pool runs its attempts in-process, through the same retry,
quarantine and expiry loop as pooled attempts.

Results are delivered to the caller *as they arrive* via ``on_result``
(the engine uses this to flush the persistent cache incrementally), so
a ``KeyboardInterrupt`` mid-batch terminates the in-flight workers
promptly and loses nothing that already completed.

Determinism note: the allocator is deterministic, so a retried request
returns a byte-identical summary no matter which worker (or the
in-process fallback) produced it — the chaos suite in
``tests/engine/test_chaos.py`` asserts exactly that.

Fault-injection points (``engine/faults.py``) are threaded through both
the worker loop and the supervisor so the recovery paths are provable;
with no plan installed they cost one ``is None`` check per request.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait

from ..obs.span import (Span, Tracer, clamp_span, shift_span,
                        span_from_payload, span_to_payload)
from .faults import CRASH, CRASH_EXIT_CODE, HANG, RAISE, FaultPlan, \
    InjectedFault
from .request import AllocationSummary, ExperimentRequest


@dataclass(frozen=True)
class SupervisorConfig:
    """Failure-handling policy for one engine.

    Attributes:
        timeout: per-attempt wall-clock limit in seconds (``None`` — no
            limit).  Enforced only for pooled execution; an in-process
            attempt cannot kill itself.  The clock starts once the
            worker has signalled readiness, so interpreter spawn and
            import cost never count against the request.
        max_attempts: total attempts per request before it is
            quarantined (1 = no retries).
        backoff: base retry delay; attempt *n* is delayed
            ``backoff * 2**(n-1)`` seconds.
        max_spawn_failures: consecutive worker-spawn failures tolerated
            before the supervisor degrades to in-process execution.
    """

    timeout: float | None = None
    max_attempts: int = 3
    backoff: float = 0.05
    max_spawn_failures: int = 3


@dataclass
class ExperimentFailure:
    """A request the supervisor gave up on (typed, renderable).

    Harnesses receive these *in place of* an ``AllocationSummary`` and
    must render partial results around them.

    Attributes:
        key: the request's content hash.
        request: the poison request itself.
        error_class: exception class name of the final attempt
            (``WorkerCrash`` / ``Timeout`` for non-exception fates).
        message: human-readable detail of the final attempt.
        attempts: how many attempts ran (== the configured budget when
            quarantined; a request whose deadline killed it mid-attempt
            counts that attempt).
        worker_fate: how the last worker ended — ``crashed`` (process
            died), ``killed`` (timeout), ``exception`` (clean error
            reply), ``in-process`` (no worker), or ``expired``.
        attempt_errors: one line per failed attempt, oldest first.
    """

    key: str
    request: ExperimentRequest
    error_class: str
    message: str
    attempts: int
    worker_fate: str
    attempt_errors: list[str] = field(default_factory=list)

    @property
    def function_name(self) -> str:
        """The routine name, recovered from the request's ILOC header."""
        first = self.request.ir_text.split("\n", 1)[0].split()
        return first[1] if len(first) >= 2 else "?"

    def describe(self) -> str:
        return (f"{self.function_name}: {self.error_class} after "
                f"{self.attempts} attempt(s) [{self.worker_fate}] — "
                f"{self.message}")


class ExperimentError(RuntimeError):
    """Raised by single-request call sites that cannot render partials."""

    def __init__(self, failure: ExperimentFailure):
        super().__init__(failure.describe())
        self.failure = failure


def expect_summary(outcome: "AllocationSummary | ExperimentFailure"
                   ) -> AllocationSummary:
    """Unwrap an engine outcome, raising on a failure."""
    if isinstance(outcome, ExperimentFailure):
        raise ExperimentError(outcome)
    return outcome


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
            A pooled attempt carries ``spawn`` / ``handshake`` children
            when its dispatch paid them; every attempt carries the
            ``exec`` subtree of the execution itself.
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
    fault ledger of everything that went wrong along the way.  The
    supervisor counts one batch into a fresh instance, which the engine
    folds into its lifetime ledger with :meth:`add`."""

    requests: int = 0
    #: ``run_many`` calls
    batches: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    #: requests quarantined or expired as :class:`ExperimentFailure`
    failed: int = 0
    #: re-executions scheduled after a failed attempt
    retries: int = 0
    #: attempts killed for exceeding the per-attempt timeout
    timeouts: int = 0
    #: worker processes observed dead while holding a request
    worker_crashes: int = 0
    #: requests that exhausted the retry budget
    quarantined: int = 0
    #: requests answered ``DeadlineExpired`` instead of executing (or
    #: killed mid-attempt when their deadline passed)
    expired: int = 0
    #: worker spawns that failed
    spawn_failures: int = 0
    #: batches that degraded to in-process execution
    fallback_serial: int = 0
    #: worker processes spawned — bounded by the pool size (plus crash
    #: replacements) over the pool's life
    worker_spawns: int = 0
    #: dispatches served by an already-live pool worker
    workers_reused: int = 0

    def add(self, delta: "EngineStats") -> None:
        """Fold another ledger (one batch's) into this one."""
        for counter in dataclasses.fields(self):
            setattr(self, counter.name, getattr(self, counter.name)
                    + getattr(delta, counter.name))


def _attempt(request: ExperimentRequest, number: int,
             action: str | None
             ) -> tuple[AllocationSummary | Exception, Span]:
    """Run attempt *number* of *request* under an ``exec`` span; returns
    the summary (or the exception it raised) and the span tree.  An
    injected ``crash`` or ``raise`` *action* raises
    :class:`InjectedFault` — a worker has already exited on ``crash``,
    so only the in-process path sees it here."""
    from .executor import execute_request

    tracer = Tracer(clock=time.monotonic)
    outcome: AllocationSummary | Exception
    try:
        with tracer.span("exec"):
            if action in (CRASH, RAISE):
                raise InjectedFault(f"injected {action} (attempt {number})")
            outcome = execute_request(request, tracer=tracer)
    except Exception as exc:  # crashes bypass this; see sentinel
        outcome = exc
    return outcome, tracer.roots[0]


def worker_main(conn, plan: FaultPlan | None = None) -> None:
    """The worker process loop: recv request, execute, send result.

    Module-level so it pickles by reference under ``spawn``.  The
    worker pays its import cost up front and announces ``("ready",)``
    before serving — the supervisor starts attempt deadlines at that
    signal, so a slow interpreter spawn is never mistaken for a hung
    request.  Replies are ``("ok", key, summary, exec_spans, clock)``
    or ``("err", key, class, message, exec_spans, clock)`` — the
    payload carries the worker-side execution span tree
    (:func:`~repro.obs.span.span_to_payload` form, worker
    ``time.monotonic`` clock) plus the worker's clock reading at send
    time, so the supervisor can rebase the tree into its own timeline;
    anything else the supervisor learns from the process sentinel.
    """
    from . import executor  # noqa: F401 - pay the import before "ready"

    try:
        conn.send(("ready",))
    except OSError:
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        key, request, attempt = msg
        action = plan.worker_action(key, attempt) if plan is not None \
            else None
        if action == CRASH:
            os._exit(CRASH_EXIT_CODE)
        if action == HANG:
            time.sleep(plan.hang_seconds)
        outcome, span = _attempt(request, attempt, action)
        if isinstance(outcome, Exception):
            reply = ("err", key, type(outcome).__name__, str(outcome),
                     span_to_payload(span), time.monotonic())
        else:
            reply = ("ok", key, outcome, span_to_payload(span),
                     time.monotonic())
        try:
            conn.send(reply)
        except OSError:
            return


@dataclass
class _Attempt:
    key: str
    request: ExperimentRequest
    number: int          # 1-based
    ready_at: float = 0.0
    #: the open ``attempt`` span, created when the attempt starts;
    #: ``None`` while it has not run
    span: Span | None = None


class _Worker:
    """One supervised child process plus its command pipe."""

    __slots__ = ("process", "conn", "ready")

    def __init__(self, ctx, plan: FaultPlan | None):
        #: set once the worker's ``("ready",)`` announcement is read;
        #: attempt deadlines only run against ready workers
        self.ready = False
        parent, child = ctx.Pipe()
        try:
            self.process = ctx.Process(target=worker_main,
                                       args=(child, plan), daemon=True)
            self.process.start()
        except BaseException:
            parent.close()
            child.close()
            raise
        child.close()
        self.conn = parent

    @property
    def sentinel(self):
        return self.process.sentinel

    def kill(self) -> None:
        """Terminate promptly; escalate to SIGKILL if needed."""
        try:
            self.process.terminate()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5)
        self.close()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


@dataclass
class PoolStats:
    """Lifetime accounting for one :class:`WorkerPool`."""

    #: worker processes successfully spawned
    spawned: int = 0
    #: dispatches served by a worker that already existed
    reused: int = 0
    #: spawn attempts the OS refused
    spawn_failures: int = 0
    #: leased workers that were killed instead of returned (crash,
    #: timeout, shutdown reclaim)
    discarded: int = 0


class WorkerPool:
    """A reusable pool of supervised ``spawn`` worker processes.

    The pool owns process creation and idle reuse; a per-batch
    :class:`_Supervisor` borrows workers through :meth:`acquire` /
    :meth:`release` and the pool keeps healthy workers alive between
    batches.  This is the allocation server's warm-pool core: the first
    batch pays up to ``size`` interpreter spawns, every later batch
    leases already-live workers (``stats.reused``) and spawns only to
    replace workers lost to crashes or timeout kills.

    Thread-safe: the allocation server runs up to ``size`` batches at
    once, and their supervisors lease from this one pool.
    """

    def __init__(self, size: int, plan: FaultPlan | None = None):
        self.size = max(1, size)
        self.plan = plan
        self.ctx = multiprocessing.get_context("spawn")
        self.idle: list[_Worker] = []
        self.leased = 0
        self.stats = PoolStats()
        self.consecutive_spawn_failures = 0
        self.closed = False
        self._spawn_attempts = 0
        #: guards the lease state; notified whenever a lease ends
        self._lease_ended = threading.Condition()

    def acquire(self) -> _Worker | None:
        """Lease an idle worker, spawning one if the pool is under its
        size; ``None`` means every worker is leased.  A refused spawn
        is counted (check :attr:`consecutive_spawn_failures` for pool
        health) and raises :class:`OSError`."""
        with self._lease_ended:
            while self.idle:
                worker = self.idle.pop()
                if worker.process.is_alive():
                    self.leased += 1
                    self.stats.reused += 1
                    return worker
                worker.kill()   # died while idle: reap and replace below
            if self.leased >= self.size:
                return None
            self._spawn_attempts += 1
            try:
                if self.plan is not None \
                        and self._spawn_attempts <= self.plan.spawn_failures:
                    raise OSError("injected spawn failure")
                worker = _Worker(self.ctx, self.plan)
            except OSError:
                self.stats.spawn_failures += 1
                self.consecutive_spawn_failures += 1
                raise
            self.consecutive_spawn_failures = 0
            self.stats.spawned += 1
            self.leased += 1
            return worker

    def wait_for_lease(self, timeout: float | None) -> None:
        """Block until :meth:`acquire` could lease a worker, or until
        *timeout* seconds pass."""
        with self._lease_ended:
            self._lease_ended.wait_for(
                lambda: self.idle or self.leased < self.size, timeout)

    def release(self, worker: _Worker) -> None:
        """Return a healthy leased worker for reuse."""
        with self._lease_ended:
            self.leased -= 1
            if self.closed:
                worker.kill()
            else:
                self.idle.append(worker)
            self._lease_ended.notify_all()

    def discard(self, worker: _Worker) -> None:
        """Account for a leased worker the caller killed (or found
        dead); the pool will spawn a replacement on demand."""
        with self._lease_ended:
            self.leased -= 1
            self.stats.discarded += 1
            self._lease_ended.notify_all()

    def close(self) -> None:
        """Kill every idle worker; later releases kill instead of
        re-idling.  Safe to call more than once."""
        with self._lease_ended:
            self.closed = True
            for worker in self.idle:
                worker.kill()
            self.idle.clear()


class _Supervisor:
    """The event loop: dispatch, watch, retry, quarantine, degrade.

    Attempts run on leased *pool* workers, or in-process when *pool* is
    ``None`` (requested, or after the pool degraded); either way a
    failed attempt goes through the same retry/backoff/quarantine path.
    """

    def __init__(self, config: SupervisorConfig, pool: WorkerPool | None,
                 plan: FaultPlan | None, on_result,
                 deadlines: dict[str, float], stats: EngineStats,
                 observations: dict[str, RequestObservation]):
        self.config = config
        self.pool = pool
        self.plan = plan
        self.on_result = on_result
        self.deadlines = deadlines
        self.stats = stats
        self.observations = observations
        self.results: dict[str, AllocationSummary | ExperimentFailure] = {}
        self.history: dict[str, list[str]] = {}
        self.runnable: deque[_Attempt] = deque()
        self.delayed: list[_Attempt] = []
        self.busy: dict[_Worker, tuple[_Attempt, float | None]] = {}
        self.outstanding = 0
        self.delivered = 0

    # -- driving ---------------------------------------------------------------

    def run(self, items: list[tuple[str, ExperimentRequest]]
            ) -> dict[str, AllocationSummary | ExperimentFailure]:
        for key, request in items:
            self.runnable.append(_Attempt(key, request, 1))
            self.history[key] = []
        self.outstanding = len(items)
        try:
            while self.outstanding:
                self._promote(time.monotonic())
                self._fill()
                self._wait()
        finally:
            self._shutdown()
        return self.results

    def _promote(self, now: float) -> None:
        """Move backoff-delayed retries whose time has come."""
        due = [a for a in self.delayed if a.ready_at <= now]
        if due:
            self.delayed = [a for a in self.delayed if a.ready_at > now]
            for attempt in sorted(due, key=lambda a: a.ready_at):
                self.runnable.append(attempt)

    def _attempt_deadline(self, key: str,
                          armed_at: float | None) -> float | None:
        """When an attempt on *key* must end: the per-attempt timeout
        counted from *armed_at* (``None`` while the worker is still
        starting), capped by the request's end-to-end deadline, which
        binds from dispatch regardless."""
        request_end = self.deadlines.get(key)
        if armed_at is None or self.config.timeout is None:
            return request_end
        attempt_end = armed_at + self.config.timeout
        return attempt_end if request_end is None \
            else min(attempt_end, request_end)

    def _expire(self, attempt: _Attempt) -> None:
        """Answer a request whose end-to-end deadline passed before (or
        during) this attempt — a definitive ``DeadlineExpired``, never
        retried: the requester has already stopped waiting."""
        self.stats.expired += 1
        self.history[attempt.key].append(
            f"attempt {attempt.number}: DeadlineExpired: end-to-end "
            f"deadline passed [expired]")
        # an attempt the deadline killed mid-run counts; one that never
        # started does not
        ran = attempt.span is not None
        self._deliver(attempt.key, ExperimentFailure(
            key=attempt.key, request=attempt.request,
            error_class="DeadlineExpired",
            message="end-to-end deadline passed before completion",
            attempts=attempt.number if ran else attempt.number - 1,
            worker_fate="expired",
            attempt_errors=list(self.history[attempt.key])))

    def _fill(self) -> None:
        """Start runnable attempts on pool workers (idle or spawned),
        or in-process when there is no pool."""
        while self.runnable:
            now = time.monotonic()
            deadline = self.deadlines.get(self.runnable[0].key)
            if deadline is not None and now >= deadline:
                self._expire(self.runnable.popleft())
                continue
            if self.pool is None:
                self._run_in_process(self.runnable.popleft())
                continue
            try:
                worker = self.pool.acquire()
            except OSError:
                self.stats.spawn_failures += 1
                if self.pool.consecutive_spawn_failures \
                        >= self.config.max_spawn_failures:
                    # the pool is unhealthy: finish the batch in-process
                    self.stats.fallback_serial += 1
                    self._reclaim_busy()
                    self.pool = None
                    continue
                break
            if worker is None:  # other batches lease every worker
                break
            # a fresh spawn announces "ready" only once it has imported
            if worker.ready:
                self.stats.workers_reused += 1
            else:
                self.stats.worker_spawns += 1
            self._dispatch(worker, self.runnable.popleft(), now)

    def _dispatch(self, worker: _Worker, attempt: _Attempt,
                  acquire_started: float) -> None:
        now = time.monotonic()
        # a freshly spawned worker is still importing; its attempt
        # timeout is armed when the ready announcement arrives
        # (_on_message)
        deadline = self._attempt_deadline(
            attempt.key, now if worker.ready else None)
        span = Span("attempt", {"number": attempt.number},
                    start=acquire_started)
        if not worker.ready:
            # acquire() paid an interpreter spawn for this dispatch
            span.children.append(
                Span("spawn", start=acquire_started, end=now))
            # closed when the worker's ready announcement arrives
            span.children.append(Span("handshake", start=now, end=now))
        attempt.span = span
        self.busy[worker] = (attempt, deadline)
        try:
            worker.conn.send((attempt.key, attempt.request, attempt.number))
        except OSError:
            self._on_crash(worker)

    def _run_in_process(self, attempt: _Attempt) -> None:
        """Run one attempt in this process.  It cannot be timed out, so
        injected ``hang`` faults are ignored; ``crash``/``raise``
        faults surface as :class:`InjectedFault`."""
        action = self.plan.worker_action(attempt.key, attempt.number) \
            if self.plan is not None else None
        attempt.span = Span("attempt", {"number": attempt.number},
                            start=time.monotonic())
        outcome, exec_span = _attempt(attempt.request, attempt.number,
                                      action)
        if isinstance(outcome, Exception):
            self._close_attempt(attempt, time.monotonic(), "exception",
                                exec_span)
            self._failed_attempt(attempt, type(outcome).__name__,
                                 str(outcome), fate="in-process")
        else:
            self._close_attempt(attempt, time.monotonic(), "ok", exec_span)
            self._deliver(attempt.key, outcome)

    def _close_attempt(self, attempt: _Attempt, now: float, outcome: str,
                       exec_span: Span | None = None,
                       worker_clock: float | None = None) -> None:
        """Finish the attempt's span: stamp the outcome, graft the
        ``exec`` subtree (rebased from *worker_clock* when it ran in a
        worker), record the observation."""
        span = attempt.span
        span.end = now
        span.attrs["outcome"] = outcome
        if exec_span is not None:
            if worker_clock is not None:
                # align the worker's send-time with our receive-time;
                # the residual transport delay is clamped away below
                shift_span(exec_span, now - worker_clock)
            clamp_span(exec_span, span.start, span.end)
            span.children.append(exec_span)
        observation = self.observations.setdefault(
            attempt.key, RequestObservation())
        observation.attempts += 1
        observation.spans.append(span)

    def _wait(self) -> None:
        """Block until a result, a corpse, a deadline, or a retry is due."""
        now = time.monotonic()
        wakeups = [d for _, d in self.busy.values() if d is not None]
        wakeups += [a.ready_at for a in self.delayed]
        timeout = max(0.0, min(wakeups) - now) if wakeups else None
        if not self.busy:
            if self.runnable:
                # other batches lease every worker: wait for one
                self.pool.wait_for_lease(timeout)
            elif timeout:
                time.sleep(timeout)
            return
        objs: list = []
        for worker in self.busy:
            objs.append(worker.conn)
            objs.append(worker.sentinel)
        ready = set(connection_wait(objs, timeout))
        for worker in list(self.busy):
            if worker not in self.busy:
                continue
            if worker.conn in ready:
                self._on_message(worker)
            elif worker.sentinel in ready:
                self._on_crash(worker)
        now = time.monotonic()
        for worker, (_, deadline) in list(self.busy.items()):
            if deadline is not None and now >= deadline:
                self._on_timeout(worker)

    # -- outcomes --------------------------------------------------------------

    def _on_message(self, worker: _Worker) -> None:
        attempt, _ = self.busy.pop(worker)
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            self._crashed(worker, attempt)
            return
        now = time.monotonic()
        if msg[0] == "ready":
            # spawn + import finished: the attempt deadline starts now
            worker.ready = True
            handshake = attempt.span.child("handshake")
            if handshake is not None:
                handshake.end = now
            self.busy[worker] = (attempt,
                                 self._attempt_deadline(attempt.key, now))
            return
        self.pool.release(worker)
        if msg[0] == "ok":
            self._close_attempt(attempt, now, "ok",
                                span_from_payload(msg[3]), msg[4])
            self._deliver(msg[1], msg[2])
        else:
            _, _key, error_class, message, exec_payload, clock = msg
            self._close_attempt(attempt, now, "exception",
                                span_from_payload(exec_payload), clock)
            self._failed_attempt(attempt, error_class, message,
                                 fate="exception")

    def _on_crash(self, worker: _Worker) -> None:
        attempt, _ = self.busy.pop(worker)
        # the worker may have replied *and then* died — don't lose the
        # result, and don't re-execute a completed request
        while worker.conn.poll(0):
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                break
            if msg is not None and msg[0] == "ready":
                continue  # a reply may still be queued behind it
            if msg is not None and msg[0] == "ok":
                self.stats.worker_crashes += 1
                worker.close()
                self.pool.discard(worker)
                self._close_attempt(attempt, time.monotonic(), "ok",
                                    span_from_payload(msg[3]), msg[4])
                self._deliver(msg[1], msg[2])
                return
            break
        self._crashed(worker, attempt)

    def _crashed(self, worker: _Worker, attempt: _Attempt) -> None:
        # reap first: exitcode is None until the dead child is joined
        worker.process.join(timeout=5)
        code = worker.process.exitcode
        worker.kill()
        self.pool.discard(worker)
        self.stats.worker_crashes += 1
        self._close_attempt(attempt, time.monotonic(), "crashed")
        self._failed_attempt(attempt, "WorkerCrash",
                             f"worker process died (exit code {code})",
                             fate="crashed")

    def _on_timeout(self, worker: _Worker) -> None:
        attempt, _ = self.busy.pop(worker)
        worker.kill()
        self.pool.discard(worker)
        now = time.monotonic()
        key_deadline = self.deadlines.get(attempt.key)
        if key_deadline is not None and now >= key_deadline:
            # the *request's* deadline fired, not the attempt budget:
            # kill the worker but answer expired, never retry
            self._close_attempt(attempt, now, "expired")
            self._expire(attempt)
            return
        self.stats.timeouts += 1
        self._close_attempt(attempt, now, "killed")
        self._failed_attempt(
            attempt, "Timeout",
            f"no result within {self.config.timeout:.4g}s", fate="killed")

    def _failed_attempt(self, attempt: _Attempt, error_class: str,
                        message: str, fate: str) -> None:
        self.history[attempt.key].append(
            f"attempt {attempt.number}: {error_class}: {message} [{fate}]")
        if attempt.number >= self.config.max_attempts:
            self.stats.quarantined += 1
            self._deliver(attempt.key, ExperimentFailure(
                key=attempt.key, request=attempt.request,
                error_class=error_class, message=message,
                attempts=attempt.number, worker_fate=fate,
                attempt_errors=list(self.history[attempt.key])))
            return
        self.stats.retries += 1
        delay = self.config.backoff * (2 ** (attempt.number - 1))
        self.delayed.append(_Attempt(attempt.key, attempt.request,
                                     attempt.number + 1,
                                     time.monotonic() + delay))

    def _deliver(self, key: str,
                 outcome: AllocationSummary | ExperimentFailure) -> None:
        self.results[key] = outcome
        self.outstanding -= 1
        self.delivered += 1
        observation = self.observations.setdefault(key,
                                                   RequestObservation())
        if isinstance(outcome, AllocationSummary):
            self.stats.executed += 1
            observation.source = "executed"
        else:
            self.stats.failed += 1
            observation.source = "failed"
        if self.on_result is not None:
            self.on_result(key, outcome)
        if self.plan is not None \
                and self.plan.interrupt_after is not None \
                and self.delivered >= self.plan.interrupt_after:
            raise KeyboardInterrupt

    # -- teardown --------------------------------------------------------------

    def _reclaim_busy(self) -> None:
        """Take in-flight requests back (uncharged) before going
        in-process."""
        for worker, (attempt, _) in list(self.busy.items()):
            worker.kill()
            self.pool.discard(worker)
            attempt.span = None
            self.runnable.appendleft(attempt)
        self.busy.clear()

    def _shutdown(self) -> None:
        """Kill in-flight workers promptly (also the KeyboardInterrupt
        path); idle workers stay in the pool, warm for the next batch."""
        for worker in list(self.busy):
            worker.kill()
            self.pool.discard(worker)
        self.busy.clear()


def run_supervised(items: list[tuple[str, ExperimentRequest]],
                   pool: WorkerPool | None = None,
                   config: SupervisorConfig | None = None,
                   plan: FaultPlan | None = None,
                   on_result=None,
                   deadlines: dict[str, float] | None = None,
                   stats: EngineStats | None = None,
                   observations: dict[str, RequestObservation]
                   | None = None,
                   ) -> dict[str, AllocationSummary | ExperimentFailure]:
    """Execute *items* (``(key, request)`` pairs, unique keys) under
    supervision; returns per-key outcomes.

    Attempts run on *pool*'s workers, which outlive the batch; with no
    pool they run in-process (no timeout enforcement) with the same
    retry/quarantine semantics.  ``on_result(key, outcome)`` fires as
    each outcome lands — before the batch finishes, and before any
    ``KeyboardInterrupt`` unwinds.

    *deadlines* maps request keys to absolute ``time.monotonic``
    deadlines (this process's clock).  A request whose deadline passes
    before dispatch is answered ``DeadlineExpired`` without executing;
    one whose deadline fires mid-attempt has its worker killed and is
    answered ``DeadlineExpired`` with no retry — the requester has
    already stopped waiting, so more attempts only burn the pool.

    The batch's fault accounting is counted into *stats* as it happens,
    and one :class:`RequestObservation` per key (attempt count and
    ``attempt`` spans, ``source`` set on delivery) into *observations*.
    """
    supervisor = _Supervisor(
        config or SupervisorConfig(), pool, plan, on_result,
        deadlines or {}, stats if stats is not None else EngineStats(),
        observations if observations is not None else {})
    return supervisor.run(items)
