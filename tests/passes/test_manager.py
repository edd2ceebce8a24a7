"""Unit tests for the AnalysisManager and PreservedAnalyses protocol."""

import pytest

from repro.analysis import DominanceInfo, LivenessInfo, LoopInfo
from repro.obs import MetricsRegistry
from repro.passes import (ALL_ANALYSES, ANALYSES_BY_NAME, CFG_ANALYSES,
                          DOMINANCE, LIVENESS, LOOPS, AnalysisManager,
                          PreservedAnalyses)

from ..helpers import nested_loops, single_loop


class TestLazyCaching:
    def test_computes_once_then_reuses(self):
        am = AnalysisManager(single_loop())
        first = am.liveness()
        second = am.liveness()
        assert first is second
        assert am.n_computed("liveness") == 1
        assert am.n_reused("liveness") == 1

    def test_typed_conveniences_return_typed_objects(self):
        am = AnalysisManager(nested_loops())
        assert isinstance(am.liveness(), LivenessInfo)
        assert isinstance(am.dominance(), DominanceInfo)
        assert isinstance(am.loops(), LoopInfo)

    def test_loops_pull_dominance_through_the_manager(self):
        # computing loops computes dominance as a dependency — exactly
        # once, shared with later direct dominance requests
        am = AnalysisManager(nested_loops())
        am.loops()
        assert am.cached(DOMINANCE)
        am.dominance()
        assert am.n_computed("dominance") == 1
        assert am.n_reused("dominance") == 1

    def test_cached_reports_presence_without_computing(self):
        am = AnalysisManager(single_loop())
        assert not am.cached(LIVENESS)
        am.liveness()
        assert am.cached(LIVENESS)
        assert am.n_computed() == 1

    def test_counters_flow_into_shared_registry(self):
        registry = MetricsRegistry()
        am = AnalysisManager(single_loop(), metrics=registry)
        am.liveness()
        am.liveness()
        assert registry.counter("analysis.computed.liveness").value == 1
        assert registry.counter("analysis.reused.liveness").value == 1


class TestInvalidation:
    def test_cfg_preservation_keeps_shape_drops_liveness(self):
        am = AnalysisManager(nested_loops())
        am.liveness(), am.dominance(), am.loops()
        am.invalidate(PreservedAnalyses.cfg())
        assert not am.cached(LIVENESS)
        assert am.cached(DOMINANCE) and am.cached(LOOPS)

    def test_none_preserved_drops_everything(self):
        am = AnalysisManager(nested_loops())
        am.liveness(), am.loops()
        am.invalidate(PreservedAnalyses.none())
        for analysis in ALL_ANALYSES:
            assert not am.cached(analysis)

    def test_all_preserved_drops_nothing(self):
        am = AnalysisManager(nested_loops())
        am.liveness(), am.loops()
        before = am.n_computed()
        am.invalidate(PreservedAnalyses.all())
        am.liveness(), am.loops()
        assert am.n_computed() == before

    def test_invalidate_all(self):
        am = AnalysisManager(single_loop())
        am.liveness()
        am.invalidate_all()
        assert not am.cached(LIVENESS)
        am.liveness()
        assert am.n_computed("liveness") == 2


class TestPreservedAnalyses:
    def test_of_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown analyses"):
            PreservedAnalyses.of("liveness", "typo")

    def test_of_accepts_every_registered_name(self):
        preserved = PreservedAnalyses.of(*ANALYSES_BY_NAME)
        for name in ANALYSES_BY_NAME:
            assert preserved.preserves(name)

    def test_cfg_names_are_shape_only(self):
        assert CFG_ANALYSES == {"dominance", "loops"}
        cfg = PreservedAnalyses.cfg()
        assert cfg.preserves("dominance")
        assert cfg.preserves("loops")
        assert not cfg.preserves("liveness")

    def test_intersection(self):
        a = PreservedAnalyses.of("dominance", "liveness")
        b = PreservedAnalyses.cfg()
        both = a & b
        assert both.preserves("dominance")
        assert not both.preserves("liveness")
        assert (PreservedAnalyses.all() & a) == a
        assert (a & PreservedAnalyses.all()) == a
        assert (a & PreservedAnalyses.none()) == PreservedAnalyses.none()

    def test_describe(self):
        assert PreservedAnalyses.all().describe() == "all"
        assert PreservedAnalyses.none().describe() == "none"
        assert PreservedAnalyses.of("loops", "dominance").describe() == \
            "dominance, loops"

    def test_all_is_not_merely_every_name(self):
        # all() means "nothing changed", which must survive even if new
        # analyses are registered later — distinct from naming them all
        every = PreservedAnalyses.of(*ANALYSES_BY_NAME)
        assert PreservedAnalyses.all() != every


class TestRegistry:
    def test_three_analyses_registered(self):
        assert {a.name for a in ALL_ANALYSES} == {
            "liveness", "dominance", "loops"}
        for analysis in (LIVENESS, DOMINANCE, LOOPS):
            assert ANALYSES_BY_NAME[analysis.name] is analysis
