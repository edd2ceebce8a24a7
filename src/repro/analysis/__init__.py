"""Control-flow and data-flow analyses over the ILOC IR."""

from .defuse import DefUse, Site, compute_def_use
from .delta import (CodeDelta, LivenessUpdateStats, diff_liveness,
                    liveness_sets_equal)
from .dominance import (DominanceInfo, compute_dominance,
                        iterated_dominance_frontier)
from .indexmap import RegIndex, iter_bits
from .liveness import (BlockLiveness, LivenessInfo, block_use_def,
                       compute_liveness)
from .loops import (Loop, LoopInfo, compute_loops, find_back_edges,
                    instruction_depths)
from .postdominance import (PostDominanceInfo, VIRTUAL_EXIT,
                            compute_postdominance)

__all__ = [
    "BlockLiveness",
    "CodeDelta",
    "DefUse",
    "DominanceInfo",
    "Loop",
    "LoopInfo",
    "LivenessInfo",
    "LivenessUpdateStats",
    "PostDominanceInfo",
    "RegIndex",
    "Site",
    "VIRTUAL_EXIT",
    "block_use_def",
    "compute_def_use",
    "compute_dominance",
    "compute_liveness",
    "compute_loops",
    "compute_postdominance",
    "diff_liveness",
    "find_back_edges",
    "instruction_depths",
    "iter_bits",
    "iterated_dominance_frontier",
    "liveness_sets_equal",
]
