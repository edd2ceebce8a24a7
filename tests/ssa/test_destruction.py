"""Tests for SSA destruction through the renumber phase.

:func:`~repro.regalloc.run_renumber` under ``CHAITIN`` unions every φ
web (no copies) and under ``SPLIT_ALL`` places a split on every φ
operand; both leave the function φ-free and semantically unchanged.
"""

import pytest

from repro.interp import run_function
from repro.ir import Opcode, verify_function
from repro.regalloc import run_renumber
from repro.remat import RenumberMode
from repro.ssa import construct_ssa

from ..helpers import ALL_SHAPES, if_in_loop, single_loop


def roundtrip(shape, mode):
    fn = shape()
    expected = run_function(fn.clone(), args=[6]).output
    fn.split_critical_edges()
    result = run_renumber(fn, mode).result
    verify_function(fn)   # no φs allowed anymore
    assert run_function(fn, args=[6]).output == expected
    return fn, result


class TestUnionDestruction:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_semantics_preserved(self, shape):
        fn, result = roundtrip(shape, RenumberMode.CHAITIN)
        assert result.n_splits_inserted == 0

    def test_no_copies_added(self):
        fn = single_loop()
        copies_before = sum(1 for _b, i in fn.instructions() if i.is_copy)
        fn.split_critical_edges()
        run_renumber(fn, RenumberMode.CHAITIN)
        copies_after = sum(1 for _b, i in fn.instructions() if i.is_copy)
        assert copies_after <= copies_before


class TestCopyDestruction:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_semantics_preserved(self, shape):
        fn, result = roundtrip(shape, RenumberMode.SPLIT_ALL)
        assert result.n_splits_inserted >= 0

    def test_copy_per_phi_operand(self):
        fn = if_in_loop()
        fn.split_critical_edges()
        # renumber builds its φs internally; count them on a copy
        probe = fn.clone()
        construct_ssa(probe)
        n_operands = sum(len(phi.srcs)
                         for blk in probe.blocks for phi in blk.phis())
        result = run_renumber(fn, RenumberMode.SPLIT_ALL).result
        assert n_operands > 0
        assert result.n_splits_inserted == n_operands

    def test_no_phis_survive(self):
        fn, _result = roundtrip(if_in_loop, RenumberMode.SPLIT_ALL)
        assert all(i.opcode is not Opcode.PHI
                   for _b, i in fn.instructions())
