"""Tests for live-variable analysis."""

import pytest

from repro.analysis import RegIndex, block_use_def, compute_liveness
from repro.ir import IRBuilder, Reg

from ..helpers import ALL_SHAPES, naive_live_in, single_loop


class TestUseDef:
    def test_use_before_def_is_upward_exposed(self):
        b = IRBuilder("f")
        x = b.function.new_reg(Reg.vint(0).rclass)
        y = b.addi(x, 1)       # uses x (upward exposed), defs y
        z = b.addi(y, 1)       # uses y (already defined here), defs z
        b.ret()
        use, defs = block_use_def(b.function.entry.instructions)
        assert x in use and y not in use
        assert {y, z} <= defs

    def test_def_then_use_not_exposed(self):
        b = IRBuilder("f")
        x = b.ldi(1)
        y = b.addi(x, 1)
        b.ret()
        use, defs = block_use_def(b.function.entry.instructions)
        assert use == set()
        assert x in defs and y in defs


class TestLiveness:
    def test_loop_variable_live_around_backedge(self):
        fn = single_loop()
        live = compute_liveness(fn)
        # the induction variable is the copy_to target in entry; find it as
        # the register used by cmp_lt in head
        cmp_inst = fn.block("head").instructions[0]
        iv = cmp_inst.srcs[0]
        assert iv in live.live_in("head")
        assert iv in live.live_out("body")
        assert iv in live.live_in("exit")

    def test_dead_after_last_use(self):
        fn = single_loop()
        live = compute_liveness(fn)
        # the cmp result is consumed by the cbr inside head, dead outside
        cmp_dest = fn.block("head").instructions[0].dest
        assert cmp_dest not in live.live_out("head")
        assert cmp_dest not in live.live_in("head")

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_matches_naive_liveness(self, shape):
        fn = shape()
        live = compute_liveness(fn)
        reference = naive_live_in(fn)
        for label in fn.reverse_postorder():
            assert live.live_in(label) == reference[label], (fn.name, label)

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_nothing_live_into_entry_except_params(self, shape):
        """Well-formed functions define every register before use, so no
        register is live into the entry block."""
        fn = shape()
        live = compute_liveness(fn)
        assert live.live_in(fn.entry.label) == set()


class TestScanBlock:
    def test_point_liveness_matches_block_boundaries(self):
        fn = single_loop()
        live = compute_liveness(fn)
        for blk in fn.blocks:
            if not blk.instructions:
                continue
            _inst, at_top = next(iter(live.scan_block(blk.label)))
            assert at_top == live.live_in(blk.label)

    def test_point_liveness_after_def(self):
        b = IRBuilder("f")
        x = b.ldi(1)
        y = b.addi(x, 2)
        b.out(y)
        b.ret()
        fn = b.finish()
        live = compute_liveness(fn)
        points = [at for _inst, at in live.scan_block("entry")]
        # before the addi, x is live; after it (before out), only y
        assert x in points[1]
        assert y in points[2] and x not in points[2]

    def test_scan_yields_every_instruction_in_order(self):
        fn = single_loop()
        live = compute_liveness(fn)
        for blk in fn.blocks:
            insts = [inst for inst, _at in live.scan_block(blk.label)]
            assert insts == blk.instructions

    def test_bit_variant_agrees_with_set_variant(self):
        fn = single_loop()
        live = compute_liveness(fn)
        for blk in fn.blocks:
            for (i1, at), (i2, bits) in zip(live.scan_block(blk.label),
                                            live.scan_block_bits(blk.label)):
                assert i1 is i2
                assert live.index.to_set(bits) == at


class TestRegIndexViews:
    def test_roundtrip_through_bitsets(self):
        fn = single_loop()
        index = RegIndex.for_function(fn)
        regs = fn.all_regs()
        assert index.to_set(index.from_set(regs)) == regs
        assert len(index) == len(regs)

    def test_liveness_bits_match_sets(self):
        fn = single_loop()
        live = compute_liveness(fn)
        for blk in fn.blocks:
            assert live.index.to_set(
                live.live_in_bits(blk.label)) == live.live_in(blk.label)
            assert live.index.to_set(
                live.live_out_bits(blk.label)) == live.live_out(blk.label)
