"""Analyses checked against naive references on random programs.

The fixed CFG shapes in :mod:`tests.helpers` pin known answers; these
hypothesis tests sweep arbitrary generated control flow.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import compute_dominance, compute_liveness, compute_loops
from repro.benchsuite import GeneratorConfig, random_program

from ..helpers import naive_dominators, naive_live_in

SHAPES = GeneratorConfig(n_vars=4, max_depth=3, max_stmts=4)

common = settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@common
@given(seed=st.integers(0, 10_000))
def test_dominance_matches_naive(seed):
    fn = random_program(seed, SHAPES)
    dom = compute_dominance(fn)
    reference = naive_dominators(fn)
    for label in dom.rpo:
        assert set(dom.dominators_of(label)) == reference[label]


@common
@given(seed=st.integers(0, 10_000))
def test_liveness_matches_naive(seed):
    fn = random_program(seed, SHAPES)
    live = compute_liveness(fn)
    reference = naive_live_in(fn)
    for label in fn.reverse_postorder():
        assert live.live_in(label) == reference[label]


@common
@given(seed=st.integers(0, 10_000))
def test_loop_depths_are_consistent(seed):
    """Each loop's body blocks have depth >= the loop's own depth, and
    headers dominate every block of their body."""
    fn = random_program(seed, SHAPES)
    dom = compute_dominance(fn)
    loops = compute_loops(fn, dom)
    for loop in loops.loops.values():
        for label in loop.body:
            assert loops.depth[label] >= loop.depth
            assert dom.dominates(loop.header, label)


@common
@given(seed=st.integers(0, 10_000))
def test_dominator_tree_parents_strictly_dominate(seed):
    fn = random_program(seed, SHAPES)
    dom = compute_dominance(fn)
    for label in dom.rpo:
        parent = dom.idom[label]
        if parent != label:
            assert dom.strictly_dominates(parent, label)
