"""Integration tests for the complete optimistic allocator (Figure 2)."""

import pytest

from repro.benchsuite.figures import figure1_function, figure1_pressured
from repro.interp import run_function
from repro.ir import CountClass, Opcode, RegClass, verify_function
from repro.machine import (huge_machine, machine_with, standard_machine,
                           tiny_machine)
from repro.regalloc import AllocationError, allocate
from repro.remat import RenumberMode

from ..helpers import ALL_SHAPES, if_in_loop, nested_loops


def cycles(run, machine):
    return machine.cycles(run.counts)


class TestEndToEnd:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    @pytest.mark.parametrize("mode", list(RenumberMode))
    def test_semantic_equivalence_under_pressure(self, shape, mode):
        fn = shape()
        expected = run_function(fn.clone(), args=[6]).output
        result = allocate(fn, machine=tiny_machine(4, 4), mode=mode)
        assert run_function(result.function, args=[6]).output == expected

    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_output_uses_only_physical_registers(self, shape):
        result = allocate(shape(), machine=standard_machine())
        verify_function(result.function, require_physical=True,
                        max_int_reg=16, max_float_reg=16)

    def test_huge_machine_never_spills(self):
        for shape in ALL_SHAPES:
            result = allocate(shape(), machine=huge_machine())
            assert result.stats.n_spilled_ranges == 0
            assert result.rounds == 1

    def test_no_phis_or_virtuals_remain(self):
        result = allocate(if_in_loop(), machine=tiny_machine(4, 4))
        for _blk, inst in result.function.instructions():
            assert inst.opcode is not Opcode.PHI
            for r in inst.regs():
                assert r.physical

    def test_clone_leaves_input_untouched(self):
        fn = nested_loops()
        before = str(fn)
        allocate(fn, machine=tiny_machine(4, 4))
        assert str(fn) == before

    def test_in_place_mode(self):
        fn = nested_loops()
        result = allocate(fn, machine=standard_machine(), clone=False)
        assert result.function is fn

    def test_too_small_file_raises(self):
        with pytest.raises(AllocationError):
            allocate(nested_loops(), machine=machine_with(1, 1),
                     max_rounds=6)


class TestPaperBehavior:
    """The claims of Sections 3-5 on the running example."""

    def test_new_beats_old_on_figure1(self):
        """Table 1's headline: the rematerializing allocator produces
        cheaper spill code than Chaitin's scheme on multi-valued live
        ranges."""
        machine = machine_with(4, 2)
        fn = figure1_pressured()
        expected = run_function(fn.clone(), args=[12]).output
        runs = {}
        for mode in (RenumberMode.CHAITIN, RenumberMode.REMAT):
            result = allocate(fn, machine=machine, mode=mode)
            run = run_function(result.function, args=[12])
            assert run.output == expected
            runs[mode] = run
        old = cycles(runs[RenumberMode.CHAITIN], machine)
        new = cycles(runs[RenumberMode.REMAT], machine)
        assert new < old

    def test_pattern_fewer_loads_more_immediates(self):
        """'we see a pattern of fewer load instructions and more
        load-immediates' (Section 5.3; our lsd falls in the addi class)."""
        machine = machine_with(4, 2)
        fn = figure1_pressured()
        runs = {}
        for mode in (RenumberMode.CHAITIN, RenumberMode.REMAT):
            result = allocate(fn, machine=machine, mode=mode)
            runs[mode] = run_function(result.function, args=[12])
        old, new = runs[RenumberMode.CHAITIN], runs[RenumberMode.REMAT]
        assert new.count(CountClass.LOAD) < old.count(CountClass.LOAD)
        assert (new.count(CountClass.ADDI) + new.count(CountClass.LDI)
                > old.count(CountClass.ADDI) + old.count(CountClass.LDI))

    def test_remat_splits_are_isolated_and_spilled_cheaply(self):
        machine = machine_with(4, 2)
        result = allocate(figure1_pressured(), machine=machine,
                          mode=RenumberMode.REMAT)
        assert result.stats.n_splits_inserted >= 1
        assert result.stats.n_remat_spills >= 1

    def test_no_spill_means_modes_agree(self):
        """With ample registers both allocators emit equally-costly code."""
        machine = standard_machine()
        fn = figure1_function()
        runs = {}
        for mode in (RenumberMode.CHAITIN, RenumberMode.REMAT):
            result = allocate(fn, machine=machine, mode=mode)
            runs[mode] = run_function(result.function, args=[9])
        assert (cycles(runs[RenumberMode.CHAITIN], machine)
                == cycles(runs[RenumberMode.REMAT], machine))


class TestPhaseStructure:
    """Figure 2: the driver's phase order and Table 2's shape."""

    def test_round_times_recorded(self):
        result = allocate(figure1_pressured(), machine=machine_with(4, 2))
        assert result.rounds >= 2            # spilling forces iteration
        for times in result.round_times:
            assert times.renumber >= 0 and times.build >= 0
        # only the non-final rounds have a spill phase
        assert result.round_times[-1].spill == 0.0
        assert all(t.spill > 0 for t in result.round_times[:-1])

    def test_cfa_measured_once(self):
        result = allocate(nested_loops(), machine=standard_machine())
        assert result.cfa_time > 0

    def test_remat_mode_spends_more_in_renumber(self):
        """Table 2: 'the cost of renumber is higher for the New
        allocator'. Checked structurally: REMAT does strictly more work
        (propagation), so its first-round renumber handles tags."""
        fn = nested_loops()
        old = allocate(fn, machine=standard_machine(),
                       mode=RenumberMode.CHAITIN)
        new = allocate(fn, machine=standard_machine(),
                       mode=RenumberMode.REMAT)
        # timing noise makes a direct comparison flaky at this size; both
        # must at least be recorded
        assert old.round_times[0].renumber > 0
        assert new.round_times[0].renumber > 0


class TestHeuristicToggles:
    """Ablations of Sections 4.2-4.3 heuristics."""

    def test_biasing_removes_split_copies(self):
        machine = machine_with(4, 2)
        fn = figure1_pressured()
        expected = run_function(fn.clone(), args=[12]).output
        biased = allocate(fn, machine=machine, mode=RenumberMode.REMAT,
                          biased=True)
        unbiased = allocate(fn, machine=machine, mode=RenumberMode.REMAT,
                            biased=False)
        run_b = run_function(biased.function, args=[12])
        run_u = run_function(unbiased.function, args=[12])
        assert run_b.output == expected and run_u.output == expected
        assert (run_b.count(CountClass.COPY)
                <= run_u.count(CountClass.COPY))

    def test_all_toggle_combinations_stay_correct(self):
        machine = machine_with(4, 2)
        fn = figure1_pressured()
        expected = run_function(fn.clone(), args=[12]).output
        for biased in (True, False):
            for lookahead in (True, False):
                for csplits in (True, False):
                    result = allocate(fn, machine=machine,
                                      mode=RenumberMode.REMAT,
                                      biased=biased, lookahead=lookahead,
                                      coalesce_splits=csplits)
                    run = run_function(result.function, args=[12])
                    assert run.output == expected, (biased, lookahead,
                                                    csplits)


class TestAnalysisAccounting:
    """The AnalysisManager satellite: per-allocation analysis recomputes
    are bounded and pre-split schemes reuse their hook's fixed point."""

    def _kernel(self):
        from repro.benchsuite import KERNELS_BY_NAME

        return KERNELS_BY_NAME["fehl"].compile()

    def test_one_liveness_fixed_point_per_ssa_and_build(self):
        # without incremental maintenance: exactly two liveness fixed
        # points per round (SSA pruning + interference build) and
        # nothing else — the build-coalesce loop's rebuilds all ride
        # the cached/maintained object
        result = allocate(self._kernel(), machine=machine_with(8, 8),
                          mode=RenumberMode.REMAT, incremental=False)
        stats = result.stats
        assert stats.n_rounds > 1  # 8+8 forces spilling on fehl
        assert stats.n_liveness_computed == 2 * stats.n_rounds
        assert stats.n_liveness_updates == 0

    def test_incremental_saves_one_fixed_point_per_spill_round(self):
        # with incremental maintenance (the default) the patched
        # liveness survives spill insertion, so every round ≥ 2 serves
        # SSA pruning from cache: rounds + 1 fixed points total, one
        # update per spill round, and each update re-analyzed only a
        # subset of the blocks
        result = allocate(self._kernel(), machine=machine_with(8, 8),
                          mode=RenumberMode.REMAT)
        stats = result.stats
        assert stats.n_rounds > 1
        assert stats.n_liveness_computed == stats.n_rounds + 1
        assert stats.n_liveness_updates == stats.n_rounds - 1
        assert (stats.n_incremental_blocks_reanalyzed
                <= stats.n_incremental_blocks_total)

    def test_incremental_and_strict_agree_on_output(self):
        from repro.ir import function_to_text

        kwargs = dict(machine=machine_with(8, 8), mode=RenumberMode.REMAT)
        inc = allocate(self._kernel(), **kwargs)
        strict = allocate(self._kernel(), incremental=False, **kwargs)
        assert (function_to_text(inc.function)
                == function_to_text(strict.function))

    def test_verify_incremental_mode(self):
        result = allocate(self._kernel(), machine=machine_with(8, 8),
                          mode=RenumberMode.REMAT, verify_incremental=True)
        assert result.stats.n_liveness_updates == result.stats.n_rounds - 1

    def test_cfg_analyses_computed_once_for_whole_allocation(self):
        result = allocate(self._kernel(), machine=machine_with(8, 8),
                          mode=RenumberMode.REMAT)
        stats = result.stats
        # total = liveness share + dominance + loops, regardless of rounds
        assert stats.n_analyses_computed == stats.n_liveness_computed + 2

    def test_pre_split_scheme_reuses_hook_liveness(self):
        from repro.regalloc.splitting import SCHEMES

        scheme = SCHEMES["around-all-loops"]
        result = allocate(self._kernel(), machine=machine_with(8, 8),
                          mode=scheme.mode, pre_split=scheme.pre_split,
                          incremental=False)
        stats = result.stats
        # the hook's fixed point is the first round's SSA-construction
        # liveness: still two computes per round (not 2*rounds + 1, the
        # pre-refactor count), with the sharing visible as a reuse
        assert stats.n_liveness_computed == 2 * stats.n_rounds
        assert stats.n_analyses_reused >= 2

    def test_verify_rounds_mode(self):
        result = allocate(self._kernel(), machine=machine_with(8, 8),
                          mode=RenumberMode.REMAT, verify_rounds=True)
        assert result.stats.n_rounds > 1
