"""The allocation-experiment engine: keying, caching, fan-out."""

import dataclasses
import pickle

import pytest

from repro.benchsuite import KERNELS_BY_NAME
from repro.engine import (AllocationSummary, ExperimentEngine,
                          ExperimentRequest, ResultCache, execute_request,
                          request_key)
from repro.experiments import baseline_request, kernel_request
from repro.ir import function_to_text
from repro.machine import machine_with, standard_machine
from repro.remat import RenumberMode

ZEROIN = KERNELS_BY_NAME["zeroin"]
ADAPT = KERNELS_BY_NAME["adapt"]


def req(kernel=ZEROIN, machine=None, mode=RenumberMode.REMAT, **kw):
    return kernel_request(kernel, machine or standard_machine(), mode, **kw)


def payload(summary: AllocationSummary) -> tuple:
    """Everything deterministic about a summary (timing excluded)."""
    return (summary.key, summary.function_name, summary.int_regs,
            summary.float_regs, summary.mode, summary.stats,
            summary.rounds, summary.code_size, summary.allocated_size,
            summary.counts, summary.steps, summary.output)


class TestRequestKey:
    def test_stable(self):
        assert request_key(req()) == request_key(req())

    def test_sensitive_to_content(self):
        base = request_key(req())
        assert request_key(req(kernel=ADAPT)) != base
        assert request_key(req(machine=machine_with(8, 8))) != base
        assert request_key(req(mode=RenumberMode.CHAITIN)) != base
        assert request_key(req(optimize_first=True)) != base
        assert request_key(req(biased=False)) != base
        assert request_key(req(lookahead=False)) != base
        assert request_key(req(coalesce_splits=False)) != base
        assert request_key(req(optimistic=False)) != base
        assert request_key(req(scheme="around-all-loops")) != base
        assert request_key(req(run=False)) != base
        assert request_key(
            dataclasses.replace(req(), args=(99,))) != base

    def test_ignores_cost_model_and_machine_name(self):
        """Summaries store raw counts, so the key covers only register
        counts — one huge-machine baseline serves every cost model."""
        a = req(machine=machine_with(16, 16))
        b = req(machine=standard_machine())  # different name, same regs
        c = req(machine=dataclasses.replace(standard_machine(),
                                            load_cost=7))
        assert request_key(a) == request_key(b) == request_key(c)

    def test_ignores_timing_only_fields(self):
        assert request_key(req(repeats=5, cacheable=False)) \
            == request_key(req())


class TestExecutor:
    def test_summary_matches_direct_allocation(self):
        summary = execute_request(req(kernel=ADAPT,
                                      machine=machine_with(8, 8)))
        assert summary.function_name == "adapt"
        assert summary.counts and summary.steps
        assert summary.output is not None
        assert summary.rounds >= 1
        assert summary.timing is not None
        assert len(summary.timing.samples) == 1

    def test_repeats_produce_samples(self):
        summary = execute_request(req(run=False, repeats=3,
                                      cacheable=False))
        assert summary.timing is not None
        assert len(summary.timing.samples) == 3
        assert summary.counts is None

    def test_scheme_request_equals_direct_scheme_run(self):
        from repro.interp import run_function
        from repro.regalloc import allocate
        from repro.regalloc.splitting import SCHEMES

        scheme = SCHEMES["around-all-loops"]
        summary = execute_request(req(kernel=ADAPT,
                                      machine=machine_with(8, 8),
                                      mode=scheme.mode,
                                      scheme=scheme.name))
        res = allocate(ADAPT.compile(), machine=machine_with(8, 8),
                       mode=scheme.mode, pre_split=scheme.pre_split)
        run = run_function(res.function, args=list(ADAPT.args))
        assert summary.counts == dict(run.counts)
        assert summary.output == tuple(run.output)

    def test_deterministic(self):
        a, b = execute_request(req()), execute_request(req())
        assert payload(a) == payload(b)


class TestResultCache:
    def test_roundtrip_strips_timing(self, tmp_path):
        cache = ResultCache(tmp_path)
        request = req()
        summary = execute_request(request)
        assert summary.timing is not None
        cache.put(summary.key, summary)
        loaded = cache.get(summary.key)
        assert loaded is not None
        assert loaded.timing is None       # wall-clock never persists
        assert payload(loaded) == payload(summary)
        assert len(cache) == 1

    def test_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "f" * 64
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        summary = execute_request(req())
        other = "a" * 64
        (tmp_path / f"{other}.pkl").write_bytes(
            pickle.dumps(summary.without_timing()))
        assert cache.get(other) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        summary = execute_request(req())
        cache.put(summary.key, summary)
        assert cache.clear() == 1
        assert len(cache) == 0


class TestEngine:
    def test_batch_deduplicates(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        a, b = engine.run_many([req(), req()])
        assert payload(a) == payload(b)
        assert engine.stats.executed == 1
        assert engine.stats.deduplicated == 1

    def test_memo_hit_within_engine(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run(req())
        engine.run(req())
        assert engine.stats.executed == 1
        assert engine.stats.memo_hits == 1

    def test_disk_hit_across_engines(self, tmp_path):
        first = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        cold = first.run(req())
        second = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        warm = second.run(req())
        assert second.stats.cache_hits == 1
        assert second.stats.executed == 0
        assert payload(warm) == payload(cold)

    def test_no_cache_engine_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = ExperimentEngine(jobs=1, use_cache=False)
        engine.run(req())
        assert list(tmp_path.iterdir()) == []

    def test_timing_requests_bypass_the_cache(self, tmp_path):
        """Table 2's guarantee: non-cacheable requests are executed
        live on every call — never persisted, never memoized."""
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        request = req(run=False, repeats=1, cacheable=False)
        engine.run(request)
        engine.run(request)
        assert engine.stats.executed == 2
        assert engine.stats.memo_hits == 0
        assert list(tmp_path.iterdir()) == []
        # a fresh engine over the same directory also re-executes
        other = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        summary = other.run(request)
        assert other.stats.executed == 1
        assert summary.timing is not None

    def test_baseline_shared_across_cost_models(self, tmp_path):
        """The huge-machine baseline of Table 1 / ablation / sweep is
        one cache entry regardless of the pricing machine."""
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run_many([baseline_request(ZEROIN),
                         baseline_request(ZEROIN)])
        assert engine.stats.executed == 1

    def test_results_order_matches_requests(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        requests = [req(kernel=ADAPT), req(), req(kernel=ADAPT)]
        out = engine.run_many(requests)
        assert [s.function_name for s in out] == ["adapt", "zeroin",
                                                 "adapt"]


class TestParallel:
    def test_parallel_equals_serial(self, tmp_path):
        """jobs=2 fan-out returns bit-identical summaries (minus the
        live wall-clock samples) in the same order as jobs=1."""
        requests = [req(), req(kernel=ADAPT),
                    req(kernel=ADAPT, machine=machine_with(8, 8)),
                    req(kernel=ADAPT, mode=RenumberMode.CHAITIN)]
        serial = ExperimentEngine(jobs=1, use_cache=False)
        parallel = ExperimentEngine(jobs=2,
                                    cache_dir=tmp_path / "par")
        expect = serial.run_many(requests)
        got = parallel.run_many(requests)
        assert [payload(s) for s in got] == [payload(s) for s in expect]

    def test_parallel_writes_back_to_cache(self, tmp_path):
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path)
        engine.run_many([req(), req(kernel=ADAPT)])
        assert len(ResultCache(tmp_path)) == 2


def test_ir_text_round_trips_for_every_kernel():
    """The request's canonical serialization is faithful: parsing the
    printed text reproduces the exact text (the engine's keying and the
    executor both depend on this)."""
    from repro.benchsuite import ALL_KERNELS
    from repro.ir import parse_function

    for kernel in ALL_KERNELS:
        text = function_to_text(kernel.compile())
        assert function_to_text(parse_function(text)) == text


class TestBatchStats:
    def test_each_run_many_appends_a_batch(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run_many([req(), req(), req(kernel=ADAPT)])
        assert engine.stats.batches == 1
        assert engine.stats.requests == 3
        assert engine.stats.deduplicated == 1
        assert engine.stats.executed == 2
        engine.run_many([req()])
        assert engine.stats.batches == 2
        assert engine.stats.requests == 4
        assert engine.stats.memo_hits == 1
        assert engine.stats.executed == 2
        histograms = engine.metrics().histograms()
        assert histograms["engine.batch_size"]["count"] == 2
        assert histograms["engine.batch_size"]["total"] == 4
        # the in-process batch executed on one "worker"; the all-hit
        # batch fanned out to none
        assert histograms["engine.fanout"]["count"] == 1
        assert histograms["engine.fanout"]["max"] == 1

    def test_cache_hits_counted_per_batch(self, tmp_path):
        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        warm.run(req())
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run(req())
        assert engine.stats.cache_hits == 1
        assert engine.stats.executed == 0
        assert "engine.fanout" not in engine.metrics().histograms()

    def test_parallel_fanout_recorded(self, tmp_path):
        engine = ExperimentEngine(jobs=2, cache_dir=tmp_path)
        engine.run_many([req(), req(kernel=ADAPT)])
        fanout = engine.metrics().histograms()["engine.fanout"]
        assert fanout["count"] == 1
        assert fanout["max"] == 2

    def test_metrics_registry_view(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run_many([req(), req()])
        engine.run_many([req()])
        counters = engine.metrics().counters()
        assert counters["engine.requests"] == 3
        assert counters["engine.deduplicated"] == 1
        assert counters["engine.memo_hits"] == 1
        assert counters["engine.executed"] == 1
        assert counters["engine.batches"] == 2
        histograms = engine.metrics().histograms()
        assert histograms["engine.batch_size"]["count"] == 2
        assert histograms["engine.batch_size"]["max"] == 2
        # only the batch that executed something observed a fan-out
        assert histograms["engine.fanout"]["count"] == 1


class TestClonTiming:
    def test_timing_samples_carry_clone_time(self):
        summary = execute_request(req(run=False, cacheable=False))
        sample = summary.timing.samples[0]
        assert sample.clone >= 0.0
        # the clone copy is real work, so on any real clock it is > 0
        assert sample.clone > 0.0
        assert sample.total > sample.clone
