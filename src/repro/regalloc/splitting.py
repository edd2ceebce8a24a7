"""Alternative splitting schemes (Section 6 of the paper).

Beyond tag-driven splitting, the paper experimented with

1. splitting all live ranges around all loops,
2. splitting all live ranges around outer loops,
3. splitting live ranges around the outermost loop where they are neither
   used nor defined,
4. splitting along the forward dominance frontiers (at all φ-nodes), and
5. splitting based on both forward and reverse dominance frontiers.

"Each scheme had several major successes; each had several equally
dramatic failures."  The ablation harness reproduces that mixed verdict.

Schemes 1–3 and the reverse-frontier part of 5 are implemented as
*pre-split hooks*: before renumber runs, ``split r r`` instructions are
inserted at the chosen region boundaries.  Renaming turns each into a
fresh SSA value, so the tag machinery and the conservative-coalesce /
biased-coloring cleanup treat these extra seams exactly like the φ-derived
ones.  Scheme 4 is :data:`~repro.remat.RenumberMode.SPLIT_ALL`.

Hooks take the allocator's round :class:`~repro.passes.AnalysisManager`
(``am``) and source liveness through it, so the hook's liveness fixed
point is shared with the first renumber's SSA construction instead of
being recomputed twice on an unchanged function.  Splitting ``r`` only where ``r`` is live leaves
every block-boundary live set unchanged, so the hooks *preserve*
liveness (the invalidation property tests check this against fresh
recomputes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..analysis import DominanceInfo, LoopInfo
from ..ir import Function, Instruction, Opcode, Reg, RegClass
from ..passes import AnalysisManager
from ..remat import RenumberMode

PreSplitHook = Callable[[Function, DominanceInfo, LoopInfo, AnalysisManager],
                        None]


def _split_instruction(reg: Reg) -> Instruction:
    opcode = Opcode.SPLIT if reg.rclass is RegClass.INT else Opcode.FSPLIT
    return Instruction(opcode, dests=(reg,), srcs=(reg,))


def _loop_boundary_splits(fn: Function, dom: DominanceInfo,
                          loops: LoopInfo,
                          want_loop,
                          want_reg,
                          am: AnalysisManager) -> int:
    """Insert ``split r r`` at the entries and exits of selected loops.

    *want_loop(loop)* selects loops; *want_reg(reg, loop)* selects which
    live registers to split there.  Returns the number of splits inserted.
    """
    liveness = am.liveness()
    preds = fn.predecessors_map()
    inserted = 0
    for loop in loops.loops.values():
        if not want_loop(loop):
            continue
        live_at_header = liveness.live_in(loop.header)
        entry_preds = [p for p in preds[loop.header]
                       if p not in loop.latches and p in dom.idom]
        for reg in sorted(live_at_header):
            if not want_reg(reg, loop):
                continue
            for pred in entry_preds:
                fn.block(pred).insert_before_terminator(
                    _split_instruction(reg))
                inserted += 1
        # exits: in-loop blocks with successors outside; after critical
        # edge splitting every such successor has this block as its only
        # predecessor, so a split at its top is on the exit edge alone
        for label in loop.body:
            for succ in fn.block(label).successors():
                if succ in loop.body:
                    continue
                for reg in sorted(liveness.live_in(succ)):
                    if not want_reg(reg, loop):
                        continue
                    fn.block(succ).instructions.insert(
                        0, _split_instruction(reg))
                    inserted += 1
    return inserted


def split_around_all_loops(fn: Function, dom: DominanceInfo,
                           loops: LoopInfo, am: AnalysisManager) -> None:
    """Scheme 1: every live range, every loop."""
    _loop_boundary_splits(fn, dom, loops,
                          want_loop=lambda loop: True,
                          want_reg=lambda reg, loop: True,
                          am=am)


def split_around_outer_loops(fn: Function, dom: DominanceInfo,
                             loops: LoopInfo, am: AnalysisManager) -> None:
    """Scheme 2: every live range, outermost loops only."""
    _loop_boundary_splits(fn, dom, loops,
                          want_loop=lambda loop: loop.parent is None,
                          want_reg=lambda reg, loop: True,
                          am=am)


def split_around_unused_loops(fn: Function, dom: DominanceInfo,
                              loops: LoopInfo, am: AnalysisManager) -> None:
    """Scheme 3: split a live range around the outermost loop where it is
    neither used nor defined (it is merely live through the loop)."""
    # registers referenced per loop body
    referenced: dict[str, set[Reg]] = {}
    for loop in loops.loops.values():
        regs: set[Reg] = set()
        for label in loop.body:
            for inst in fn.block(label).instructions:
                regs.update(inst.regs())
        referenced[loop.header] = regs

    def want_reg(reg: Reg, loop) -> bool:
        if reg in referenced[loop.header]:
            return False
        # outermost such loop: no enclosing loop may also avoid reg
        parent = loop.parent
        while parent is not None:
            if reg not in referenced[parent]:
                return False
            parent = loops.loops[parent].parent
        return True

    _loop_boundary_splits(fn, dom, loops,
                          want_loop=lambda loop: True,
                          want_reg=want_reg,
                          am=am)


def split_reverse_frontier(fn: Function, dom: DominanceInfo,
                           loops: LoopInfo, am: AnalysisManager) -> None:
    """The reverse-frontier half of scheme 5: a split for every live
    register at the entry of each branch target (the joins of the reverse
    CFG)."""
    liveness = am.liveness()
    for blk in list(fn.blocks):
        succs = blk.successors()
        if len(succs) < 2:
            continue
        for succ in succs:
            for reg in sorted(liveness.live_in(succ)):
                fn.block(succ).instructions.insert(
                    0, _split_instruction(reg))


@dataclass(frozen=True)
class SplittingScheme:
    """A Section 6 configuration: a renumber mode plus optional pre-split."""

    name: str
    mode: RenumberMode
    pre_split: PreSplitHook | None = None


#: the paper's five schemes plus the two baselines
SCHEMES: dict[str, SplittingScheme] = {
    "chaitin": SplittingScheme("chaitin", RenumberMode.CHAITIN),
    "remat": SplittingScheme("remat", RenumberMode.REMAT),
    "around-all-loops": SplittingScheme(
        "around-all-loops", RenumberMode.REMAT, split_around_all_loops),
    "around-outer-loops": SplittingScheme(
        "around-outer-loops", RenumberMode.REMAT, split_around_outer_loops),
    "around-unused-loops": SplittingScheme(
        "around-unused-loops", RenumberMode.REMAT,
        split_around_unused_loops),
    "at-phis": SplittingScheme("at-phis", RenumberMode.SPLIT_ALL),
    "forward-reverse-df": SplittingScheme(
        "forward-reverse-df", RenumberMode.SPLIT_ALL,
        split_reverse_frontier),
}
