"""Pluggable allocation strategies behind one shared driver.

:func:`~repro.regalloc.allocator.allocate` owns everything every
allocation discipline needs — cloning and CFG normalization, the
per-allocation :class:`~repro.passes.AnalysisManager`, the tracer's
span tree, :class:`AllocationStats`, remat-aware spill-code emission
and the final physical rewrite — and delegates the actual
color-or-spill loop to an :class:`AllocatorStrategy`:

* :class:`IteratedColoringStrategy` (``allocator="iterated"``) — the
  paper's Chaitin/Briggs loop, renumber → build/coalesce → costs →
  simplify/select → spill, moved here verbatim from ``allocate()``.
  Briggs vs. Chaitin is the existing ``optimistic`` flag.
* :class:`SSAStrategy` (``allocator="ssa"``) — spill everywhere under
  SSA (Bouchez–Darte–Rastello, PAPERS.md): maximal splitting makes
  every SSA value its own live range, per-block MAXLIVE
  (:mod:`repro.regalloc.maxlive`) decides colorability, whole ranges
  are spilled until pressure fits the register file, and a greedy walk
  down the dominance tree (:mod:`repro.regalloc.domtree_color`) then
  colors without simplify/select.  Spill emission, rematerialization
  tags and the analysis-manager plumbing are shared with the iterated
  strategy.

Both strategies emit the same span skeleton
(``round → renumber/build/costs/color/spill``), so
:class:`~repro.regalloc.allocator.RoundTimes`, Table 2 and the JSONL
trace exports work unchanged whichever discipline ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import compute_liveness, diff_liveness
from ..ir import Function, Reg, RegClass, verify_function
from ..machine import MachineDescription
from ..obs import MaxlivePressure, SpillDecision, SSASpillDecision, Tracer
from ..passes import AnalysisManager, PreservedAnalyses
from ..remat import RenumberMode
from .coalesce import build_coalesce_loop
from .domtree_color import color_dominance_tree
from .interference import build_interference_graph
from .maxlive import choose_spill_everywhere, compute_block_maxlive
from .renumber import run_renumber
from .select import find_partners, select
from .simplify import simplify
from .spillcode import SpillCodeStats, insert_spill_code
from .spillcost import compute_spill_costs

#: renumber and spill-code insertion rewrite instructions and register
#: names but never the CFG shape (edges were split up front), so the
#: round loop keeps dominance/loops across rounds and drops only
#: liveness
_CFG_ONLY = PreservedAnalyses.cfg()


class AllocationError(RuntimeError):
    """Raised when allocation cannot converge (register file too small)."""


@dataclass
class AllocationStats:
    """Aggregate counters for one allocation."""

    n_rounds: int = 0
    n_spilled_ranges: int = 0
    n_remat_spills: int = 0
    n_memory_spills: int = 0
    n_splits_inserted: int = 0
    n_copies_coalesced: int = 0
    n_splits_coalesced: int = 0
    n_identity_copies_removed: int = 0
    n_spill_slots: int = 0
    n_live_ranges_first_round: int = 0
    #: liveness fixed points computed (one per round) vs. reused across
    #: interference-graph rebuilds inside the build-coalesce loop
    n_liveness_cache_hits: int = 0
    n_liveness_cache_misses: int = 0
    #: widest register universe (bitset width in bits) seen in any round
    max_bitset_bits: int = 0
    #: AnalysisManager accounting for the whole allocation: fixed points
    #: actually run vs. requests served from the cache, plus the
    #: liveness share (the satellite metric — pre-split schemes reuse
    #: their hook's fixed point instead of recomputing it)
    n_analyses_computed: int = 0
    n_analyses_reused: int = 0
    n_liveness_computed: int = 0
    #: incremental-analysis accounting (the tentpole metric): liveness
    #: patches applied after spill rounds, and how much of the function
    #: they actually re-analyzed vs. its size — re-analyzed < total on
    #: every round is what makes rounds ≥ 2 cheaper than round 1
    n_liveness_updates: int = 0
    n_incremental_blocks_reanalyzed: int = 0
    n_incremental_blocks_total: int = 0
    #: interference-graph rebuild accounting inside the build–coalesce
    #: loops: from-scratch scans vs. merge-delta patches
    n_graph_builds: int = 0
    n_graph_patches: int = 0
    n_graph_blocks_rescanned: int = 0
    n_graph_edges_patched: int = 0


@dataclass
class AllocationContext:
    """Everything the shared driver prepares for a strategy's run.

    The strategy mutates ``work`` in place until every register is
    physical (or raises :class:`AllocationError`); the driver owns
    everything before (clone, CFG normalization, analysis manager) and
    after (slot/verification epilogue, result assembly).
    """

    fn: Function                    #: the caller's function (names only)
    work: Function                  #: the function being rewritten
    machine: MachineDescription
    mode: RenumberMode
    max_rounds: int
    biased: bool
    lookahead: bool
    coalesce_splits: bool
    optimistic: bool
    verify_rounds: bool
    incremental: bool
    verify_incremental: bool
    tracer: Tracer
    am: AnalysisManager
    dom: object
    loops: object
    stats: AllocationStats = field(default_factory=AllocationStats)


class AllocatorStrategy:
    """One allocation discipline: repeatedly color/spill ``ctx.work``
    until it colors, then rewrite it to physical registers."""

    #: the public name on the ``allocator=`` axis
    name = "?"

    def run(self, ctx: AllocationContext) -> None:
        raise NotImplementedError


class IteratedColoringStrategy(AllocatorStrategy):
    """The paper's iterated Chaitin/Briggs loop (Figure 2)."""

    name = "iterated"

    def run(self, ctx: AllocationContext) -> None:
        tracer, work, am, stats = ctx.tracer, ctx.work, ctx.am, ctx.stats
        machine = ctx.machine
        no_spill_regs: set[Reg] = set()

        for round_index in range(ctx.max_rounds):
            stats.n_rounds += 1
            with tracer.span("round", index=round_index):
                with tracer.span("renumber"):
                    outcome = run_renumber(work, ctx.mode, dom=ctx.dom,
                                           no_spill_regs=no_spill_regs,
                                           tracer=tracer, am=am)
                # renumber renames every register: liveness is stale,
                # the CFG analyses survive
                am.invalidate(_CFG_ONLY)
                if ctx.verify_rounds:
                    verify_function(work)
                stats.n_splits_inserted += outcome.result.n_splits_inserted
                if round_index == 0:
                    stats.n_live_ranges_first_round = len(
                        outcome.result.live_ranges)
                no_spill = outcome.no_spill

                # one liveness fixed point per round, shared by every
                # graph rebuild of the build-coalesce loop (coalescing
                # renames the manager's cached bitsets in place, which
                # keeps the entry valid); spill-code insertion ends the
                # round and invalidates it below
                with tracer.span("build"):
                    liveness = am.liveness()
                    graph, cstats = build_coalesce_loop(
                        work, machine, build_interference_graph,
                        no_spill=no_spill,
                        coalesce_splits=ctx.coalesce_splits,
                        liveness=liveness, tracer=tracer,
                        incremental=ctx.incremental,
                        verify_incremental=ctx.verify_incremental)
                stats.n_copies_coalesced += cstats.copies_removed
                stats.n_splits_coalesced += cstats.splits_removed
                stats.n_liveness_cache_hits += cstats.liveness_cache_hits
                stats.n_liveness_cache_misses += \
                    cstats.liveness_cache_misses
                stats.n_graph_builds += cstats.graph_builds
                stats.n_graph_patches += cstats.graph_patches
                stats.n_graph_blocks_rescanned += \
                    cstats.graph_blocks_rescanned
                stats.n_graph_edges_patched += cstats.graph_edges_patched
                if cstats.graph_patches:
                    metrics = am.metrics
                    metrics.counter(
                        "analysis.incremental.graph_patches").inc(
                            cstats.graph_patches)
                    metrics.counter(
                        "analysis.incremental.graph_blocks_rescanned").inc(
                            cstats.graph_blocks_rescanned)
                    metrics.counter(
                        "analysis.incremental.graph_edges_patched").inc(
                            cstats.graph_edges_patched)
                stats.max_bitset_bits = max(stats.max_bitset_bits,
                                            len(liveness.index))

                with tracer.span("costs"):
                    costs = compute_spill_costs(work, ctx.loops, machine,
                                                no_spill=no_spill,
                                                tracer=tracer)

                with tracer.span("color"):
                    order = simplify(graph, machine, costs,
                                     optimistic=ctx.optimistic,
                                     tracer=tracer)
                    partners = find_partners(work) if ctx.biased else None
                    chosen = select(graph, order, machine,
                                    partners=partners,
                                    lookahead=ctx.lookahead, tracer=tracer)
                    chosen.spilled.extend(order.pessimistic_spills)

                if not chosen.spilled:
                    _assign_physical(work, chosen.coloring, stats)
                    return

                if tracer.events_enabled:
                    pessimistic = set(order.pessimistic_spills)
                    for reg in chosen.spilled:
                        tracer.event(SpillDecision(
                            range=str(reg),
                            cost=costs.cost.get(reg, 0.0),
                            degree=graph.degree(reg),
                            remat_tag=(str(costs.remat[reg])
                                       if reg in costs.remat else None),
                            chosen_because=("pessimistic-simplify"
                                            if reg in pessimistic
                                            else "select-found-no-color")))

                spill_stats = _emit_spill_code(ctx, chosen.spilled, costs)
                no_spill_regs = no_spill | spill_stats.new_temps

        raise AllocationError(
            f"{ctx.fn.name}: no coloring after {ctx.max_rounds} rounds on "
            f"{machine.name} (k_int={machine.int_regs}, "
            f"k_float={machine.float_regs})")


class SSAStrategy(AllocatorStrategy):
    """Spill everywhere under SSA form (Bouchez–Darte–Rastello).

    Each round renumbers with maximal splitting
    (:attr:`RenumberMode.SPLIT_ALL` — every SSA value becomes its own
    live range, with split copies at predecessor ends standing in for
    the φs), then decides *by pressure alone*:

    1. per-block MAXLIVE; blocks over the register file feed
       :func:`~repro.regalloc.maxlive.choose_spill_everywhere`, whose
       victims are spilled this round and the loop retries — spilling
       is finished before coloring starts;
    2. once every point fits, one greedy walk down the dominance tree
       colors the ranges — no simplify, no select, no optimism needed;
    3. a final audit against the round's interference graph catches the
       multi-def wrinkles SSA destruction introduces (clashing ranges
       are respilled, keeping the strategy self-healing rather than
       trusting the chordal argument off-SSA).

    The ``mode`` knob is ignored — the splitting policy *is* the
    strategy — and the shared spill emission keeps Chaitin-style
    rematerialization: never-killed values respill as recomputation.
    """

    name = "ssa"

    def run(self, ctx: AllocationContext) -> None:
        tracer, work, am, stats = ctx.tracer, ctx.work, ctx.am, ctx.stats
        machine = ctx.machine
        no_spill_regs: set[Reg] = set()

        for round_index in range(ctx.max_rounds):
            stats.n_rounds += 1
            with tracer.span("round", index=round_index):
                with tracer.span("renumber"):
                    outcome = run_renumber(work, RenumberMode.SPLIT_ALL,
                                           dom=ctx.dom,
                                           no_spill_regs=no_spill_regs,
                                           tracer=tracer, am=am)
                am.invalidate(_CFG_ONLY)
                if ctx.verify_rounds:
                    verify_function(work)
                stats.n_splits_inserted += outcome.result.n_splits_inserted
                if round_index == 0:
                    stats.n_live_ranges_first_round = len(
                        outcome.result.live_ranges)
                no_spill = outcome.no_spill

                with tracer.span("build"):
                    liveness = am.liveness()
                    maxlive = compute_block_maxlive(work, liveness)
                stats.max_bitset_bits = max(stats.max_bitset_bits,
                                            len(liveness.index))
                if tracer.events_enabled:
                    for label, pressure in maxlive.items():
                        tracer.event(MaxlivePressure(
                            block=label,
                            int_pressure=pressure[RegClass.INT],
                            float_pressure=pressure[RegClass.FLOAT],
                            k_int=machine.int_regs,
                            k_float=machine.float_regs))

                with tracer.span("costs"):
                    costs = compute_spill_costs(work, ctx.loops, machine,
                                                no_spill=no_spill,
                                                tracer=tracer)

                with tracer.span("color"):
                    spilled = choose_spill_everywhere(
                        work, liveness, machine, costs, tracer=tracer)
                    if not spilled:
                        coloring, spilled = color_dominance_tree(
                            work, ctx.dom, liveness, machine,
                            tracer=tracer)
                        if not spilled:
                            spilled = _audit_coloring(
                                work, liveness, coloring, costs, tracer)
                        if tracer.events_enabled:
                            for reg in spilled:
                                tracer.event(SSASpillDecision(
                                    range=str(reg),
                                    cost=costs.cost.get(reg, 0.0),
                                    block="",
                                    pressure=0,
                                    k=machine.k(reg.rclass),
                                    remat_tag=(str(costs.remat[reg])
                                               if reg in costs.remat
                                               else None),
                                    chosen_because="uncolorable"))

                if not spilled:
                    _assign_physical(work, coloring, stats)
                    return

                spill_stats = _emit_spill_code(ctx, spilled, costs)
                no_spill_regs = no_spill | spill_stats.new_temps

        raise AllocationError(
            f"{ctx.fn.name}: no coloring after {ctx.max_rounds} rounds on "
            f"{machine.name} (k_int={machine.int_regs}, "
            f"k_float={machine.float_regs})")


def _audit_coloring(work: Function, liveness, coloring: dict[Reg, int],
                    costs, tracer) -> list[Reg]:
    """Cross-check a greedy coloring against the actual interference
    graph; returns the cheaper range of every same-color edge (empty
    when the coloring is sound, the common case)."""
    graph = build_interference_graph(work, liveness)
    clashing: set[Reg] = set()
    for reg, color in coloring.items():
        for other in sorted(graph.neighbors(reg), key=Reg.sort_key):
            if other in clashing or reg in clashing:
                continue
            if coloring.get(other) == color:
                victim = min(
                    (reg, other),
                    key=lambda r: (costs.cost.get(r, 0.0), r.sort_key()))
                clashing.add(victim)
    return sorted(clashing, key=Reg.sort_key)


def _emit_spill_code(ctx: AllocationContext, spilled: list[Reg],
                     costs) -> SpillCodeStats:
    """Insert this round's spill code and keep the cached analyses
    honest — the incremental patch-vs-invalidate dance both strategies
    share, byte-for-byte the round epilogue ``allocate()`` always ran."""
    tracer, work, am, stats = ctx.tracer, ctx.work, ctx.am, ctx.stats
    with tracer.span("spill"):
        spill_stats = insert_spill_code(work, spilled, costs)
    if ctx.incremental and spill_stats.delta is not None:
        # patch the cached liveness through the spill delta instead of
        # evicting it: the next round's renumber reads it for SSA
        # pruning as a cache hit, saving one whole-function fixed point
        # per round ≥ 2
        update = am.update(spill_stats.delta, _CFG_ONLY)
        if update is not None:
            stats.n_liveness_updates += 1
            stats.n_incremental_blocks_reanalyzed += \
                update.blocks_reanalyzed
            stats.n_incremental_blocks_total += update.blocks_total
            if ctx.verify_incremental:
                problems = diff_liveness(
                    am.liveness(), compute_liveness(work))
                if problems:
                    raise RuntimeError(
                        "incremental liveness update diverged "
                        f"from recompute on {ctx.fn.name}: "
                        + "; ".join(problems[:5]))
    else:
        am.invalidate(_CFG_ONLY)
    if ctx.verify_rounds:
        verify_function(work)
    stats.n_spilled_ranges += len(spilled)
    stats.n_remat_spills += spill_stats.n_remat_ranges
    stats.n_memory_spills += spill_stats.n_memory_ranges
    return spill_stats


def _assign_physical(fn: Function, coloring: dict[Reg, int],
                     stats: AllocationStats) -> None:
    """Rewrite live ranges to physical registers and drop identity copies.

    Biased coloring often gives split partners the same color; the split
    then becomes an identity copy and disappears here — the late removal
    of unproductive splits (Section 3.4).
    """
    mapping = {
        reg: Reg(reg.rclass, color, physical=True)
        for reg, color in coloring.items()
    }
    for blk in fn.blocks:
        new_instructions = []
        for inst in blk.instructions:
            inst.rewrite_regs(mapping)
            if inst.is_copy and inst.dest == inst.src:
                stats.n_identity_copies_removed += 1
                continue
            new_instructions.append(inst)
        blk.instructions = new_instructions


#: the registered strategies, keyed by their public ``allocator=`` name
ALLOCATOR_STRATEGIES: dict[str, type[AllocatorStrategy]] = {
    cls.name: cls for cls in (IteratedColoringStrategy, SSAStrategy)
}

#: the valid values of the ``allocator=`` axis, in registration order
ALLOCATOR_NAMES: tuple[str, ...] = tuple(ALLOCATOR_STRATEGIES)


def make_strategy(name: str) -> AllocatorStrategy:
    """The strategy registered as *name* (``iterated`` | ``ssa``)."""
    try:
        cls = ALLOCATOR_STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown allocator {name!r} "
            f"(one of {', '.join(ALLOCATOR_NAMES)})") from None
    return cls()
