"""Pruned static single assignment form."""

from .construction import SSAError, SSAInfo, construct_ssa
from .ssa_graph import SSAGraph

__all__ = ["SSAError", "SSAGraph", "SSAInfo", "construct_ssa"]
