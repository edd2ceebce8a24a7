"""The supervised executor: retries, timeouts, quarantine, fallback."""

import gc
import multiprocessing
import pickle
import time

import pytest

from repro.engine import (ExperimentEngine, ExperimentError,
                          ExperimentFailure, ExperimentRequest, FaultPlan,
                          SupervisorConfig, request_key)
from repro.ir import function_to_text
from repro.machine import machine_with

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


def requests(n: int) -> list[ExperimentRequest]:
    return [ExperimentRequest(ir_text=LOOP_TEXT,
                              machine=machine_with(4, 4), args=(i,))
            for i in range(n)]


def engine(jobs: int, plan: FaultPlan | None = None,
           **config) -> ExperimentEngine:
    config.setdefault("backoff", 0.01)
    return ExperimentEngine(jobs=jobs, use_cache=False, fault_plan=plan,
                            supervisor=SupervisorConfig(**config))


class TestRetry:
    def test_transient_exception_is_retried(self):
        reqs = requests(4)
        key = request_key(reqs[2])
        plan = FaultPlan(worker_faults={(key, 1): "raise"})
        e = engine(2, plan)
        out = e.run_many(reqs)
        assert all(not isinstance(o, ExperimentFailure) for o in out)
        assert e.stats.retries == 1
        assert e.stats.failed == 0

    def test_transient_crash_is_retried(self):
        reqs = requests(4)
        key = request_key(reqs[0])
        plan = FaultPlan(worker_faults={(key, 1): "crash"})
        e = engine(2, plan)
        out = e.run_many(reqs)
        assert all(not isinstance(o, ExperimentFailure) for o in out)
        assert e.stats.worker_crashes == 1
        assert e.stats.retries == 1

    def test_retried_result_is_byte_identical(self):
        reqs = requests(3)
        baseline = ExperimentEngine(jobs=1, use_cache=False).run_many(reqs)
        key = request_key(reqs[1])
        plan = FaultPlan(worker_faults={(key, 1): "crash"})
        out = engine(2, plan).run_many(reqs)
        assert [pickle.dumps(o.without_timing()) for o in out] \
            == [pickle.dumps(o.without_timing()) for o in baseline]


class TestQuarantine:
    def test_poison_exhausts_exactly_the_budget(self):
        reqs = requests(4)
        poison = request_key(reqs[3])
        plan = FaultPlan(poison=frozenset({poison}))
        e = engine(2, plan, max_attempts=2)
        out = e.run_many(reqs)
        failure = out[3]
        assert isinstance(failure, ExperimentFailure)
        assert failure.attempts == 2
        assert len(failure.attempt_errors) == 2
        assert failure.error_class == "WorkerCrash"
        assert failure.worker_fate == "crashed"
        assert failure.function_name == "loop1"
        assert e.stats.quarantined == 1
        assert e.stats.failed == 1
        assert e.stats.worker_crashes == 2
        # the failure is also on the engine's lifetime ledger
        assert e.failures == [failure]
        # ... and the other requests still succeeded
        assert all(not isinstance(o, ExperimentFailure) for o in out[:3])

    def test_run_raises_typed_error(self):
        req = requests(1)[0]
        plan = FaultPlan(poison=frozenset({request_key(req)}))
        e = engine(2, plan, max_attempts=2)
        with pytest.raises(ExperimentError) as excinfo:
            e.run(req)
        assert excinfo.value.failure.attempts == 2

    def test_serial_in_process_quarantine(self):
        """jobs=1 never spawns; injected faults travel the in-process
        path and quarantine with the ``in-process`` fate."""
        reqs = requests(3)
        poison = request_key(reqs[1])
        plan = FaultPlan(poison=frozenset({poison}))
        e = engine(1, plan, max_attempts=3)
        out = e.run_many(reqs)
        failure = out[1]
        assert isinstance(failure, ExperimentFailure)
        assert failure.worker_fate == "in-process"
        assert failure.attempts == 3
        assert e.stats.retries == 2
        assert not isinstance(out[0], ExperimentFailure)
        assert not isinstance(out[2], ExperimentFailure)


class TestExecutionPaths:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "pooled"])
    def test_paths_account_alike(self, jobs):
        """In-process and pooled attempts share one retry loop: the
        same fault plan yields the same ledger."""
        reqs = requests(4)
        transient, poison = request_key(reqs[1]), request_key(reqs[3])
        plan = FaultPlan(worker_faults={
            (transient, 1): "raise",
            **{(poison, n): "raise" for n in (1, 2, 3)}})
        e = engine(jobs, plan, max_attempts=3)
        out = e.run_many(reqs)
        assert (e.stats.retries, e.stats.quarantined, e.stats.failed,
                e.stats.executed) == (1 + 2, 1, 1, 3)
        failure = out[3]
        assert isinstance(failure, ExperimentFailure)
        assert failure.error_class == "InjectedFault"
        assert failure.attempts == 3 == len(failure.attempt_errors)
        assert all(not isinstance(o, ExperimentFailure) for o in out[:3])


class TestDeadline:
    def test_expiry_mid_attempt_counts_the_killed_attempt(self):
        reqs = requests(3)
        key = request_key(reqs[2])
        plan = FaultPlan(worker_faults={(key, 1): "hang"},
                         hang_seconds=30.0)
        e = engine(2, plan)
        e.run_many(reqs[:2])  # warm both workers: no spawn in the way
        observations = {}
        failure, = e.run_many([reqs[2]], observations=observations,
                              deadlines={key: time.monotonic() + 0.5})
        assert isinstance(failure, ExperimentFailure)
        assert failure.error_class == "DeadlineExpired"
        assert failure.attempts == 1 == observations[key].attempts
        assert len(failure.attempt_errors) == 1
        assert e.stats.expired == 1 and e.stats.retries == 0


class TestTimeout:
    def test_hung_worker_is_killed_and_retried(self):
        reqs = requests(3)
        key = request_key(reqs[1])
        plan = FaultPlan(worker_faults={(key, 1): "hang"},
                         hang_seconds=30.0)
        e = engine(2, plan, timeout=0.5)
        out = e.run_many(reqs)
        assert all(not isinstance(o, ExperimentFailure) for o in out)
        assert e.stats.timeouts == 1
        assert e.stats.retries == 1


class TestFallback:
    def test_spawn_failures_degrade_to_serial(self):
        reqs = requests(5)
        plan = FaultPlan(spawn_failures=3)
        e = engine(2, plan, max_spawn_failures=3)
        out = e.run_many(reqs)
        assert all(not isinstance(o, ExperimentFailure) for o in out)
        assert e.stats.spawn_failures == 3
        assert e.stats.fallback_serial == 1
        assert e.stats.executed == 5

    def test_transient_spawn_failure_recovers(self):
        reqs = requests(4)
        plan = FaultPlan(spawn_failures=1)
        e = engine(2, plan, max_spawn_failures=3)
        out = e.run_many(reqs)
        assert all(not isinstance(o, ExperimentFailure) for o in out)
        assert e.stats.spawn_failures == 1
        assert e.stats.fallback_serial == 0


class TestInterrupt:
    def test_interrupt_terminates_promptly_and_keeps_results(self, tmp_path):
        reqs = requests(8)
        plan = FaultPlan(interrupt_after=4)
        e = ExperimentEngine(jobs=2, cache_dir=tmp_path, fault_plan=plan,
                             supervisor=SupervisorConfig(backoff=0.01))
        with pytest.raises(KeyboardInterrupt):
            e.run_many(reqs)
        # completed results were flushed to the cache before the unwind
        assert len(e.cache) >= 4
        # the supervisor's finally-block reaped every in-flight worker;
        # the idle ones belong to the engine's pool and die with it
        assert e.pool.leased == 0
        del e
        gc.collect()
        assert multiprocessing.active_children() == []
        # a rerun serves the flushed results as disk hits
        e2 = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        e2.run_many(reqs)
        assert e2.stats.cache_hits >= 4


class TestMetrics:
    def test_fault_counters_surface_in_registry(self):
        reqs = requests(4)
        poison = request_key(reqs[0])
        key = request_key(reqs[1])
        plan = FaultPlan(worker_faults={(key, 1): "raise"},
                         poison=frozenset({poison}))
        e = engine(2, plan, max_attempts=2)
        e.run_many(reqs)
        counters = e.metrics().counters()
        assert counters["engine.retries"] == e.stats.retries
        assert counters["engine.timeouts"] == 0
        assert counters["engine.worker_crashes"] == 2
        assert counters["engine.quarantined"] == 1
        assert counters["engine.failed"] == 1
        assert counters["engine.fallback_serial"] == 0
