"""Control-flow and data-flow analyses over the ILOC IR."""

from .delta import CodeDelta, LivenessUpdateStats, diff_liveness
from .dominance import (DominanceInfo, compute_dominance,
                        iterated_dominance_frontier)
from .indexmap import RegIndex, iter_bits
from .liveness import (BlockLiveness, LivenessInfo, block_use_def,
                       compute_liveness)
from .loops import Loop, LoopInfo, compute_loops, find_back_edges

__all__ = [
    "BlockLiveness",
    "CodeDelta",
    "DominanceInfo",
    "Loop",
    "LoopInfo",
    "LivenessInfo",
    "LivenessUpdateStats",
    "RegIndex",
    "block_use_def",
    "compute_dominance",
    "compute_liveness",
    "compute_loops",
    "diff_liveness",
    "find_back_edges",
    "iter_bits",
    "iterated_dominance_frontier",
]
