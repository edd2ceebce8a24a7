"""The persistent :class:`WorkerPool`: warm reuse across batches."""

import concurrent.futures
import gc
import pickle

import pytest

from repro.engine import (EngineStats, ExperimentEngine, ExperimentFailure,
                          ExperimentRequest, WorkerPool, request_key,
                          run_supervised)
from repro.ir import function_to_text
from repro.machine import machine_with

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


def requests(n: int, base: int = 0) -> list[ExperimentRequest]:
    return [ExperimentRequest(ir_text=LOOP_TEXT,
                              machine=machine_with(4, 4), args=(base + i,))
            for i in range(n)]


def items(reqs):
    return [(request_key(r), r) for r in reqs]


@pytest.fixture
def pool():
    p = WorkerPool(1)
    yield p
    p.close()


class TestWarmReuse:
    def test_pool_survives_batches_and_spawns_once(self, pool):
        stats1, stats2 = EngineStats(), EngineStats()
        run_supervised(items(requests(2)), pool, stats=stats1)
        assert pool.stats.spawned == 1
        assert stats1.worker_spawns == 1
        run_supervised(items(requests(2, base=2)), pool, stats=stats2)
        # steady state: the second batch reuses the live worker
        assert pool.stats.spawned == 1
        assert stats2.worker_spawns == 0
        assert stats2.workers_reused >= 1
        assert len(pool.idle) == 1

    def test_engine_routes_batches_through_attached_pool(self, pool):
        engine = ExperimentEngine(jobs=1, use_cache=False, pool=pool)
        baseline = ExperimentEngine(jobs=1, use_cache=False)
        reqs = requests(2)
        out = [engine.run(r) for r in reqs]
        expected = [baseline.run(r) for r in reqs]
        assert [pickle.dumps(o.without_timing()) for o in out] \
            == [pickle.dumps(o.without_timing()) for o in expected]
        # even single-request batches execute on the (warm) pool
        assert engine.stats.worker_spawns == 1
        assert engine.stats.workers_reused >= 1
        fanout = engine.metrics().histograms()["engine.fanout"]
        assert fanout["count"] == 2 and fanout["max"] == 1

    def test_dead_idle_worker_is_reaped_and_replaced(self, pool):
        run_supervised(items(requests(1)), pool)
        worker = pool.idle[0]
        worker.process.terminate()
        worker.process.join(timeout=10)
        stats = EngineStats()
        out = run_supervised(items(requests(1, base=1)), pool, stats=stats)
        assert all(not isinstance(o, ExperimentFailure)
                   for o in out.values())
        assert pool.stats.spawned == 2
        assert stats.worker_spawns == 1


class TestEngineOwnedPool:
    def test_one_pool_serves_every_batch(self):
        engine = ExperimentEngine(jobs=2, use_cache=False)
        for base in (0, 2, 4):
            engine.run_many(requests(2, base=base))
        assert engine.stats.executed == 6
        # the pool outlives each batch: later batches reuse its workers
        assert engine.stats.worker_spawns <= 2
        assert engine.pool.stats.spawned <= 2

    def test_collected_engine_closes_its_pool(self):
        engine = ExperimentEngine(jobs=2, use_cache=False)
        engine.run_many(requests(2))
        workers = list(engine.pool.idle)
        assert workers and all(w.process.is_alive() for w in workers)
        del engine
        gc.collect()
        assert not any(w.process.is_alive() for w in workers)

    def test_caller_pool_stays_open(self, pool):
        engine = ExperimentEngine(jobs=2, use_cache=False, pool=pool)
        engine.run_many(requests(1))
        del engine
        gc.collect()
        assert not pool.closed
        assert pool.idle[0].process.is_alive()


class TestConcurrentBatches:
    def test_batches_share_the_pool_and_wait_for_a_lease(self, pool):
        # two threads drive one single-worker engine: the batch that
        # finds the worker leased waits for it instead of spawning more
        engine = ExperimentEngine(jobs=1, use_cache=False, pool=pool)
        baseline = ExperimentEngine(jobs=1, use_cache=False)
        batches = [requests(3), requests(3, base=3)]
        with concurrent.futures.ThreadPoolExecutor(2) as threads:
            outs = list(threads.map(engine.run_many, batches))
        for out, reqs in zip(outs, batches):
            assert [pickle.dumps(o.without_timing()) for o in out] \
                == [pickle.dumps(baseline.run(r).without_timing())
                    for r in reqs]
        assert pool.stats.spawned == 1
        assert pool.leased == 0
        assert engine.stats.executed == 6
        assert engine.stats.worker_spawns + engine.stats.workers_reused \
            == 6
        assert engine.stats.batches == 2


class TestLifecycle:
    def test_close_kills_idle_workers(self, pool):
        run_supervised(items(requests(1)), pool)
        worker = pool.idle[0]
        assert worker.process.is_alive()
        pool.close()
        assert pool.idle == []
        assert not worker.process.is_alive()

    def test_release_after_close_kills_instead_of_idling(self, pool):
        worker = pool.acquire()
        assert worker is not None
        pool.close()
        pool.release(worker)
        assert pool.idle == []
        assert not worker.process.is_alive()
