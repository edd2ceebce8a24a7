"""Live-variable analysis over dense register bitsets.

Backward iterative data-flow over basic blocks.  The paper computes
liveness with a sparse data-flow evaluation graph [Choi–Cytron–Ferrante];
we use the classic worklist formulation, which computes the same fixed
point — but, like Chaitin's bit-matrix build, over *dense* bit vectors:
every register gets a small id from a :class:`~repro.analysis.RegIndex`
and each use/def/live-in/live-out set is one Python int, so a transfer
``use | (out & ~defs)`` is three machine-word-wide big-int operations
instead of thousands of hashed set inserts.

The set-based API (:meth:`LivenessInfo.live_in` / :meth:`live_out`
returning ``set[Reg]``) is kept as a thin, lazily-materialized view so
existing consumers (spill costs, splitting, SSA construction) are
unchanged; bitset consumers use ``live_in_bits`` / ``live_out_bits``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Function, Instruction, Reg
from .indexmap import RegIndex, iter_bits


@dataclass
class BlockLiveness:
    """use/def summaries and live-in/out sets for one block (a
    materialized view; the authoritative data are the bitsets held by
    :class:`LivenessInfo`)."""

    use: set[Reg]
    defs: set[Reg]
    live_in: set[Reg]
    live_out: set[Reg]


class LivenessInfo:
    """Liveness facts for one function, keyed by block label.

    Internally everything is a bitset over :attr:`index`; the classic
    set-of-``Reg`` views are built on demand and cached until the next
    :meth:`rename`.
    """

    __slots__ = ("fn", "index", "_use", "_defs", "_in", "_out", "_views")

    def __init__(self, fn: Function, index: RegIndex,
                 use: dict[str, int], defs: dict[str, int],
                 live_in: dict[str, int], live_out: dict[str, int]) -> None:
        self.fn = fn
        self.index = index
        self._use = use
        self._defs = defs
        self._in = live_in
        self._out = live_out
        self._views: dict[str, BlockLiveness] = {}

    # -- set views (the seed API) ----------------------------------------------

    @property
    def blocks(self) -> dict[str, BlockLiveness]:
        """Materialized per-block set views, one per known block."""
        return {label: self.block(label) for label in self._in}

    def block(self, label: str) -> BlockLiveness:
        view = self._views.get(label)
        if view is None:
            to_set = self.index.to_set
            view = BlockLiveness(use=to_set(self._use[label]),
                                 defs=to_set(self._defs[label]),
                                 live_in=to_set(self._in[label]),
                                 live_out=to_set(self._out[label]))
            self._views[label] = view
        return view

    def live_in(self, label: str) -> set[Reg]:
        return self.block(label).live_in

    def live_out(self, label: str) -> set[Reg]:
        return self.block(label).live_out

    # -- bitset accessors (the fast path) ---------------------------------------

    def live_in_bits(self, label: str) -> int:
        return self._in[label]

    def live_out_bits(self, label: str) -> int:
        return self._out[label]

    def use_bits(self, label: str) -> int:
        return self._use[label]

    def def_bits(self, label: str) -> int:
        return self._defs[label]

    # -- per-instruction scan ----------------------------------------------------

    def scan_block(self, label: str):
        """Yield ``(inst, live)`` for every instruction of block *label*
        in layout order, where *live* is the ``set[Reg]`` live immediately
        **before** the instruction.

        One backward pass over the block — linear in its length.
        """
        index = self.index
        for inst, bits in self.scan_block_bits(label):
            yield inst, index.to_set(bits)

    def scan_block_bits(self, label: str):
        """Like :meth:`scan_block` but yields ``(inst, bitset)``."""
        blk = self.fn.block(label)
        ensure = self.index.ensure
        live = self._out[label]
        before: list[int] = []
        for inst in reversed(blk.instructions):
            for d in inst.dests:
                live &= ~(1 << ensure(d))
            for s in inst.srcs:
                live |= 1 << ensure(s)
            before.append(live)
        before.reverse()
        return zip(blk.instructions, before)

    # -- cache maintenance (coalescing) ------------------------------------------

    def clone(self) -> "LivenessInfo":
        """An independent copy sharing the (append-only) index.

        The bitset rows are immutable ints, so copying the four tables
        decouples the clone from any later :meth:`rename` /
        :meth:`apply_delta` of the original — used by the benchmarks to
        time destructive updates repeatably and by tests to compare a
        patched copy against its pristine source.
        """
        return LivenessInfo(self.fn, self.index, dict(self._use),
                            dict(self._defs), dict(self._in),
                            dict(self._out))

    def rename(self, mapping: dict[Reg, Reg]) -> None:
        """Apply a register renaming (coalesce merges) to every cached
        bitset: each *gone* bit moves onto its representative's bit.

        Coalescing only merges names — the union live range is live
        exactly where either constituent was — so renaming the cached
        fixed point is equivalent to recomputing it on the rewritten
        code (up to the same conservative union ``InterferenceGraph.merge``
        applies), and costs one mask pass per block instead of a new
        fixed-point iteration.
        """
        index = self.index
        moves = {index.id(old): 1 << index.ensure(new)
                 for old, new in mapping.items()
                 if old in index and old != new}
        if not moves:
            return
        # one mask test per row; the per-bit translation loop runs only
        # over moved registers actually present in that row (a handful),
        # so a pass costs O(blocks) big-int ops, not O(moves * blocks)
        old_mask = 0
        for i in moves:
            old_mask |= 1 << i
        for table in (self._use, self._defs, self._in, self._out):
            for label, bits in table.items():
                hits = bits & old_mask
                if not hits:
                    continue
                new_bits = 0
                for i in iter_bits(hits):
                    new_bits |= moves[i]
                table[label] = (bits & ~old_mask) | new_bits
        self._views.clear()

    def apply_delta(self, delta) -> "LivenessUpdateStats":
        """Patch the cached fixed point after an edit described by a
        :class:`~repro.analysis.CodeDelta` (see :mod:`repro.analysis.delta`
        for the exactness contract).

        Four steps: clear the removed registers' bits from every row
        (they occur nowhere, so they are live nowhere — and clearing
        *first* is what lets the restarted worklist below stay exact: a
        decrease can stick at a greater fixed point around a loop);
        clear the *touched* registers' live-in/out bits the same way —
        their ranges may have shrunk (a deleted remat def is also a
        deleted use of its sources) and will regrow from their
        remaining use sites; recompute the dirty blocks' use/def
        summaries from their new instruction lists; re-run the worklist
        seeded with the dirty region plus the touched use sites so
        every genuine data-flow change propagates to the affected
        predecessors — and only to them.
        """
        from .delta import LivenessUpdateStats

        fn = self.fn
        index = self.index
        stats = LivenessUpdateStats(blocks_total=len(self._in))

        removed_mask = 0
        for reg in delta.removed_regs:
            i = index.get(reg)
            if i is not None:
                removed_mask |= 1 << i
        if removed_mask:
            keep = ~removed_mask
            for table in (self._use, self._defs, self._in, self._out):
                for label, bits in table.items():
                    if bits & removed_mask:
                        table[label] = bits & keep

        touched_mask = 0
        for reg in delta.touched_regs:
            i = index.get(reg)
            if i is not None:
                touched_mask |= 1 << i
        touched_mask &= ~removed_mask
        if touched_mask:
            # use/defs of clean blocks are unchanged facts; only the
            # fixed-point rows are cleared for regrowth
            keep = ~touched_mask
            for table in (self._in, self._out):
                for label, bits in table.items():
                    if bits & touched_mask:
                        table[label] = bits & keep

        for label in delta.dirty_blocks:
            if label not in self._in:
                raise ValueError(
                    f"dirty block {label!r} unknown to this liveness; "
                    "CFG edits need invalidation, not update()")
            u, d = _block_use_def_bits(fn.block(label).instructions, index)
            self._use[label] = u
            self._defs[label] = d

        seeds = set(delta.dirty_blocks)
        if touched_mask:
            seeds.update(label for label, bits in self._use.items()
                         if bits & touched_mask)
        if seeds:
            preds = fn.predecessors_map()
            use, defs = self._use, self._defs
            live_in, live_out = self._in, self._out
            # seed in postorder-ish position (reversed RPO) so backward
            # flow converges with few re-visits, exactly as the full
            # fixed point does
            worklist = [label for label in reversed(fn.reverse_postorder())
                        if label in seeds]
            in_list = set(worklist)
            seen: set[str] = set()
            while worklist:
                label = worklist.pop()
                in_list.discard(label)
                seen.add(label)
                stats.worklist_pops += 1
                out = 0
                for succ in fn.block(label).successors():
                    if succ in live_in:
                        out |= live_in[succ]
                new_in = use[label] | (out & ~defs[label])
                live_out[label] = out
                if new_in != live_in[label]:
                    live_in[label] = new_in
                    for p in preds[label]:
                        if p in live_in and p not in in_list:
                            worklist.append(p)
                            in_list.add(p)
            stats.blocks_reanalyzed = len(seen)
        self._views.clear()
        return stats


def block_use_def(instructions: list[Instruction]) -> tuple[set[Reg], set[Reg]]:
    """Upward-exposed uses and defs of a straight-line sequence."""
    use: set[Reg] = set()
    defs: set[Reg] = set()
    for inst in instructions:
        for src in inst.srcs:
            if src not in defs:
                use.add(src)
        defs.update(inst.dests)
    return use, defs


def _block_use_def_bits(instructions: list[Instruction],
                        index: RegIndex) -> tuple[int, int]:
    """Bitset variant of :func:`block_use_def` over *index*."""
    ensure = index.ensure
    use = 0
    defs = 0
    for inst in instructions:
        for src in inst.srcs:
            bit = 1 << ensure(src)
            if not defs & bit:
                use |= bit
        for d in inst.dests:
            defs |= 1 << ensure(d)
    return use, defs


def compute_liveness(fn: Function,
                     index: RegIndex | None = None) -> LivenessInfo:
    """Compute per-block liveness of all registers in *fn*.

    φ pseudo-instructions must not be present (liveness for SSA form is
    handled inside renumber, where φs are given copy semantics on edges).
    An existing *index* may be passed so the result shares dense ids with
    other analyses of the same round; otherwise one is built.
    """
    if index is None:
        index = RegIndex.for_function(fn)
    labels = fn.reverse_postorder()
    use: dict[str, int] = {}
    defs: dict[str, int] = {}
    live_in: dict[str, int] = {}
    live_out: dict[str, int] = {}
    for label in labels:
        u, d = _block_use_def_bits(fn.block(label).instructions, index)
        use[label] = u
        defs[label] = d
        live_in[label] = 0
        live_out[label] = 0

    preds = fn.predecessors_map()
    # Iterate to a fixed point, visiting blocks in postorder (reverse of
    # RPO) so information flows backward quickly.
    worklist = list(reversed(labels))
    in_list = set(worklist)
    while worklist:
        label = worklist.pop()
        in_list.discard(label)
        out = 0
        for succ in fn.block(label).successors():
            if succ in live_in:
                out |= live_in[succ]
        new_in = use[label] | (out & ~defs[label])
        live_out[label] = out
        if new_in != live_in[label]:
            live_in[label] = new_in
            for p in preds[label]:
                if p in live_in and p not in in_list:
                    worklist.append(p)
                    in_list.add(p)
    return LivenessInfo(fn, index, use, defs, live_in, live_out)
