"""Pass pipeline and cached analysis manager.

The compilation architecture every layer shares: the allocator's round
loop, the scalar optimizer and the experiment engine all source their
analyses (liveness, dominance, loops) from one
:class:`AnalysisManager` and express transforms as
:class:`~repro.passes.adapters.FunctionPass` objects driven by a
:class:`PassPipeline`.  See ``docs/architecture.md`` for the layering
and the invalidation contract.
"""

from .manager import (ALL_ANALYSES, ANALYSES_BY_NAME, Analysis,
                      AnalysisManager, CFG_ANALYSES, DOMINANCE, LIVENESS,
                      LOOPS, PreservedAnalyses)
from .pipeline import PassPipeline, PipelineReport
from .adapters import (DCEPass, FunctionPass, LICMPass, LVNPass,
                       PASS_REGISTRY, PreSplitPass, RenumberPass, make_pass)

__all__ = [
    "ALL_ANALYSES",
    "ANALYSES_BY_NAME",
    "Analysis",
    "AnalysisManager",
    "CFG_ANALYSES",
    "DCEPass",
    "DOMINANCE",
    "FunctionPass",
    "LICMPass",
    "LIVENESS",
    "LOOPS",
    "LVNPass",
    "PASS_REGISTRY",
    "PassPipeline",
    "PipelineReport",
    "PreSplitPass",
    "PreservedAnalyses",
    "RenumberPass",
    "make_pass",
]
