"""Tests for the Section 6 splitting schemes."""

import pytest

from repro.benchsuite import KERNELS_BY_NAME
from repro.interp import run_function
from repro.ir import Opcode
from repro.machine import machine_with
from repro.regalloc import allocate
from repro.regalloc.splitting import (SCHEMES, split_around_all_loops,
                                      split_around_outer_loops,
                                      split_around_unused_loops)
from repro.analysis import compute_dominance, compute_loops
from repro.passes import AnalysisManager

from ..helpers import figure1_fragment, nested_loops


def prepared(fn):
    fn.remove_unreachable_blocks()
    fn.split_critical_edges()
    dom = compute_dominance(fn)
    loops = compute_loops(fn, dom)
    return fn, dom, loops


def count_splits(fn):
    return sum(1 for _b, i in fn.instructions() if i.is_split)


class TestPreSplitHooks:
    def test_around_all_loops_inserts_splits(self):
        fn, dom, loops = prepared(nested_loops())
        split_around_all_loops(fn, dom, loops, am=AnalysisManager(fn))
        assert count_splits(fn) > 0

    def test_outer_only_inserts_fewer(self):
        fn_all, dom, loops = prepared(nested_loops())
        split_around_all_loops(fn_all, dom, loops,
                               am=AnalysisManager(fn_all))
        fn_outer, dom2, loops2 = prepared(nested_loops())
        split_around_outer_loops(fn_outer, dom2, loops2,
                                 am=AnalysisManager(fn_outer))
        assert count_splits(fn_outer) <= count_splits(fn_all)

    def test_unused_loops_targets_live_through_regs(self):
        # in figure1, y is live through loop 2 but unreferenced there
        fn, dom, loops = prepared(figure1_fragment())
        split_around_unused_loops(fn, dom, loops, am=AnalysisManager(fn))
        assert count_splits(fn) >= 1

    def test_hooks_preserve_semantics_pre_allocation(self):
        for hook in (split_around_all_loops, split_around_outer_loops,
                     split_around_unused_loops):
            fn, dom, loops = prepared(nested_loops())
            expected = run_function(nested_loops(), args=[5]).output
            hook(fn, dom, loops, am=AnalysisManager(fn))
            assert run_function(fn, args=[5]).output == expected, hook


class TestSchemeRegistry:
    def test_all_five_paper_schemes_present(self):
        assert {"around-all-loops", "around-outer-loops",
                "around-unused-loops", "at-phis",
                "forward-reverse-df"} <= set(SCHEMES)

    def test_baselines_present(self):
        assert "chaitin" in SCHEMES and "remat" in SCHEMES

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_scheme_preserves_kernel_semantics(self, name):
        scheme = SCHEMES[name]
        kernel = KERNELS_BY_NAME["repvid"]
        expected = run_function(kernel.compile(),
                                args=list(kernel.args)).output
        result = allocate(kernel.compile(), machine=machine_with(8, 8),
                          mode=scheme.mode, pre_split=scheme.pre_split)
        run = run_function(result.function, args=list(kernel.args))
        assert run.output == expected

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_scheme_on_pressured_figure1(self, name):
        from repro.benchsuite import figure1_pressured
        scheme = SCHEMES[name]
        fn = figure1_pressured()
        expected = run_function(fn.clone(), args=[9]).output
        result = allocate(fn, machine=machine_with(4, 2),
                          mode=scheme.mode, pre_split=scheme.pre_split)
        assert run_function(result.function, args=[9]).output == expected
