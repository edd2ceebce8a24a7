"""`FunctionPass` adapters over every existing transform.

A pass is anything with a ``name``, a *declared* ``preserves``
(:class:`~repro.passes.manager.PreservedAnalyses` — what the pass leaves
valid when it changes the function) and a ``run(fn, am)`` method that
returns the preservation that *actually* held (``all()`` when the pass
turned out to be a no-op, the declaration otherwise).  Adapters keep
their wrapped transform's stats/result object on the instance so callers
that need more than the function mutation (renumber outcomes, hoist
counts) can still reach it.

Transform modules are imported inside ``run`` bodies: the allocator and
the optimizer import this package for the manager, so importing them
back at module scope would be circular.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from ..ir import Function
from .manager import AnalysisManager, PreservedAnalyses


@runtime_checkable
class FunctionPass(Protocol):
    """The pass protocol the pipeline drives."""

    name: str
    #: declared invalidation contract, listed by ``repro passes``
    preserves: PreservedAnalyses

    def run(self, fn: Function, am: AnalysisManager) -> PreservedAnalyses:
        """Transform *fn* in place; return what stayed valid."""
        ...  # pragma: no cover - protocol


#: instruction-level rewrites keep the CFG shape, so dominance and
#: loops survive; liveness does not
_CFG_ONLY = PreservedAnalyses.cfg()
#: pre-splitting inserts ``split r r`` only where *r* is already live,
#: which leaves every block-boundary live set unchanged (checked against
#: fresh recomputes by tests/passes/test_invalidation.py)
_CFG_AND_LIVENESS = PreservedAnalyses.of("dominance", "loops", "liveness")


class DCEPass:
    """Dead-code elimination (:func:`repro.opt.eliminate_dead_code`)."""

    name = "dce"
    preserves = _CFG_ONLY

    def __init__(self) -> None:
        self.stats = None

    def run(self, fn: Function, am: AnalysisManager) -> PreservedAnalyses:
        from ..opt.dce import eliminate_dead_code

        self.stats = eliminate_dead_code(fn)
        if self.stats.removed == 0:
            return PreservedAnalyses.all()
        return self.preserves


class LVNPass:
    """Local value numbering (:func:`repro.opt.run_lvn`)."""

    name = "lvn"
    preserves = _CFG_ONLY

    def __init__(self) -> None:
        self.stats = None

    def run(self, fn: Function, am: AnalysisManager) -> PreservedAnalyses:
        from ..opt.lvn import run_lvn

        self.stats = run_lvn(fn)
        if self.stats.replaced == 0:
            return PreservedAnalyses.all()
        return self.preserves


class LICMPass:
    """Loop-invariant code motion (:func:`repro.opt.hoist_loop_invariants`).

    The transform threads the manager through its own fixed point
    (reusing loops/liveness between iterations and invalidating exactly
    when it hoists or creates a preheader), so by the time ``run``
    returns, the cache is already consistent — hence ``all()``.
    """

    name = "licm"
    preserves = PreservedAnalyses.none()

    def __init__(self) -> None:
        self.stats = None

    def run(self, fn: Function, am: AnalysisManager) -> PreservedAnalyses:
        from ..opt.licm import hoist_loop_invariants

        self.stats = hoist_loop_invariants(fn, am=am)
        return PreservedAnalyses.all()


class RenumberPass:
    """The allocator's full renumber phase
    (:func:`repro.regalloc.run_renumber`): SSA construction, tag
    propagation and splitting composed, φ-free on exit."""

    preserves = _CFG_ONLY

    def __init__(self, mode) -> None:
        self.mode = mode
        self.outcome = None
        self.name = f"renumber-{mode.value.replace('_', '-')}"

    def run(self, fn: Function, am: AnalysisManager) -> PreservedAnalyses:
        from ..regalloc.renumber import run_renumber

        self.outcome = run_renumber(fn, self.mode, am=am)
        return self.preserves


class PreSplitPass:
    """A Section 6 loop-splitting scheme's pre-split hook
    (:mod:`repro.regalloc.splitting`), manager-fed."""

    preserves = _CFG_AND_LIVENESS

    def __init__(self, scheme_name: str) -> None:
        from ..regalloc.splitting import SCHEMES

        self.scheme = SCHEMES[scheme_name]
        self.name = f"pre-split-{scheme_name}"

    def run(self, fn: Function, am: AnalysisManager) -> PreservedAnalyses:
        hook = self.scheme.pre_split
        if hook is not None:
            hook(fn, am.dominance(), am.loops(), am=am)
        return self.preserves


def _renumber_factory(mode_value: str) -> Callable[[], FunctionPass]:
    def make() -> FunctionPass:
        from ..remat import RenumberMode

        return RenumberPass(RenumberMode(mode_value))

    return make


def _registry() -> dict[str, Callable[[], FunctionPass]]:
    reg: dict[str, Callable[[], Any]] = {
        "dce": DCEPass,
        "lvn": LVNPass,
        "licm": LICMPass,
    }
    for mode_value in ("chaitin", "remat", "split_all"):
        name = f"renumber-{mode_value.replace('_', '-')}"
        reg[name] = _renumber_factory(mode_value)
    for scheme in ("around-all-loops", "around-outer-loops",
                   "around-unused-loops", "forward-reverse-df"):
        reg[f"pre-split-{scheme}"] = (
            lambda s=scheme: PreSplitPass(s))
    return reg


#: CLI-constructible passes (``repro opt --passes`` / ``repro passes``)
PASS_REGISTRY: dict[str, Callable[[], FunctionPass]] = _registry()


def make_pass(name: str) -> FunctionPass:
    """Instantiate a registered pass by CLI name."""
    factory = PASS_REGISTRY.get(name)
    if factory is None:
        raise KeyError(
            f"unknown pass {name!r} (registered: "
            f"{', '.join(sorted(PASS_REGISTRY))})")
    return factory()
