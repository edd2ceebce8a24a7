"""Natural loops and loop-nesting depth.

Loop nesting depth drives the paper's spill-cost metric: each memory access
is weighted by ``10^d`` where *d* is the instruction's loop nesting depth
(Section 2, "Spill Costs").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Function
from .dominance import DominanceInfo, compute_dominance


@dataclass
class Loop:
    """One natural loop: its header, body (including the header) and the
    back-edge sources (latches)."""

    header: str
    body: set[str]
    latches: set[str] = field(default_factory=set)
    #: nesting depth of this loop (outermost = 1)
    depth: int = 1
    #: header of the innermost enclosing loop, if any
    parent: str | None = None


@dataclass
class LoopInfo:
    """All natural loops of a function plus per-block nesting depths."""

    loops: dict[str, Loop]
    depth: dict[str, int]

    def loop_of(self, label: str) -> Loop | None:
        """The innermost loop containing *label*, or ``None``."""
        best: Loop | None = None
        for loop in self.loops.values():
            if label in loop.body:
                if best is None or loop.depth > best.depth:
                    best = loop
        return best

    def blocks_at_depth(self, d: int) -> set[str]:
        return {label for label, dep in self.depth.items() if dep == d}


def find_back_edges(fn: Function,
                    dom: DominanceInfo) -> list[tuple[str, str]]:
    """Edges ``(u, v)`` where the target *v* dominates the source *u*."""
    edges = []
    for label in dom.rpo:
        for succ in fn.block(label).successors():
            if succ in dom.idom and dom.dominates(succ, label):
                edges.append((label, succ))
    return edges


def compute_loops(fn: Function,
                  dom: DominanceInfo | None = None) -> LoopInfo:
    """Find natural loops and compute per-block nesting depths.

    Loops sharing a header are merged (the standard natural-loop
    convention).  Depth of a block is the number of distinct loop bodies it
    belongs to; blocks outside any loop have depth 0.
    """
    if dom is None:
        dom = compute_dominance(fn)
    preds = fn.predecessors_map()

    loops: dict[str, Loop] = {}
    for latch, header in find_back_edges(fn, dom):
        loop = loops.setdefault(header, Loop(header=header, body={header}))
        loop.latches.add(latch)
        # walk backward from the latch, staying inside the region dominated
        # by the header
        stack = [latch]
        while stack:
            node = stack.pop()
            if node in loop.body:
                continue
            loop.body.add(node)
            for p in preds[node]:
                if p in dom.idom:
                    stack.append(p)

    depth: dict[str, int] = {label: 0 for label in dom.rpo}
    for loop in loops.values():
        for label in loop.body:
            depth[label] += 1
    for loop in loops.values():
        loop.depth = depth[loop.header]
        # innermost enclosing loop: smallest other body containing our header
        best: Loop | None = None
        for other in loops.values():
            if other is loop:
                continue
            if loop.header in other.body and loop.body != other.body:
                if best is None or len(other.body) < len(best.body):
                    best = other
        loop.parent = best.header if best is not None else None
    return LoopInfo(loops=loops, depth=depth)
