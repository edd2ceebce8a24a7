"""Code deltas: the contract between in-place edits and cached analyses.

The allocator's round loop edits the function in two places — coalescing
(pure renames, maintained by :meth:`LivenessInfo.rename`) and spill-code
insertion.  A spill round perturbs only the blocks that mention spilled
ranges, yet the seed recomputed the whole liveness fixed point from
scratch afterwards.  A :class:`CodeDelta` describes such an edit
precisely enough for :meth:`LivenessInfo.apply_delta` to patch the
cached bitsets instead: which blocks' instruction lists changed, which
registers vanished from the function, which were introduced.

Two producers emit deltas: spill-code insertion (spilled ranges vanish,
block-local temps appear) and the coalescer's per-pass correction
(``rename()`` moves bits exactly for pure renames, but a *deleted* copy
leaves its renamed use/def bits behind — the delta snaps those blocks
back to the truth).  Exactness rests on three properties of the edits
(checked by ``verify_incremental`` and the property suite):

* *removed* registers no longer occur anywhere — their liveness is the
  empty set, so clearing their bits from every row is the exact effect
  (clearing first matters: a decreasing change cannot be recovered by a
  worklist restarted from the old solution, which can stick at a
  greater fixed point around a loop);
* *touched* registers — survivors that occurred in a **deleted**
  instruction — are the only surviving registers whose liveness can
  change at all: deleting an instruction deletes a use of each source
  and a definition of each destination (a coalesced-away copy's
  representative; a remat def's sources, were the encoding to give
  never-killed opcodes register operands), so their ranges may shrink.
  The same stuck-cycle hazard applies, so their bits are cleared from
  every live-in/out row first and regrown from their remaining use
  sites.  Rewritten-in-place instructions keep every surviving operand,
  so they touch nothing;
* all other changes are confined to the dirty blocks, so recomputing
  those blocks' use/def summaries and re-running the worklist seeded
  with the dirty region plus the touched use sites reaches the new
  least fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import Reg


@dataclass(frozen=True)
class CodeDelta:
    """A summary of an in-place instruction-level edit.

    The CFG shape (blocks, edges, terminators) must be unchanged; edits
    that add or remove blocks need the full invalidation protocol.
    """

    #: labels of blocks whose instruction list changed
    dirty_blocks: frozenset[str]
    #: registers that no longer occur anywhere in the function
    removed_regs: frozenset[Reg]
    #: registers introduced by the edit (spill temps: block-local)
    added_regs: frozenset[Reg]
    #: surviving registers that occurred in a deleted instruction —
    #: the only ones whose liveness may have changed (shrunk)
    touched_regs: frozenset[Reg] = frozenset()

    @classmethod
    def of(cls, dirty_blocks=(), removed_regs=(), added_regs=(),
           touched_regs=()) -> "CodeDelta":
        return cls(frozenset(dirty_blocks), frozenset(removed_regs),
                   frozenset(added_regs), frozenset(touched_regs))

    @property
    def empty(self) -> bool:
        return not (self.dirty_blocks or self.removed_regs
                    or self.added_regs)


@dataclass
class LivenessUpdateStats:
    """What one :meth:`LivenessInfo.apply_delta` call did."""

    #: distinct blocks whose equations were re-evaluated at least once
    blocks_reanalyzed: int = 0
    #: blocks in the function (the denominator for the incremental win)
    blocks_total: int = 0
    #: raw worklist pops (a block revisited until convergence counts
    #: each time; the from-scratch comparison point is the full
    #: fixed point's pop count over every block)
    worklist_pops: int = 0


def diff_liveness(a, b) -> list[str]:
    """Human-readable mismatches between two liveness results (empty
    when they agree); the ``verify_incremental`` cross-check.

    Compared at the ``set[Reg]`` level, not as raw bitsets: a patched
    liveness appends spill temps to its existing :class:`RegIndex`
    while a from-scratch recompute builds a freshly sorted one, so
    identical facts may occupy permuted bit positions.
    """
    problems: list[str] = []
    labels_a = set(a._in)
    labels_b = set(b._in)
    if labels_a != labels_b:
        problems.append(f"block sets differ: {labels_a ^ labels_b}")
        return problems
    for label in sorted(labels_a):
        va, vb = a.block(label), b.block(label)
        for field in ("use", "defs", "live_in", "live_out"):
            sa, sb = getattr(va, field), getattr(vb, field)
            if sa != sb:
                problems.append(
                    f"{label}.{field}: only-patched={sorted(map(str, sa - sb))} "
                    f"only-fresh={sorted(map(str, sb - sa))}")
    return problems
