"""Metamorphic relations: each solver checked against itself on a transformed
game whose answer is known to follow, with no second solver.

A barren or isolated chance variable (one that no variable reads) sums to
one wherever it stands, so adding it to every diagram of a game leaves every
answer unchanged.  The sweeps that visit only a decision's parents and their
ancestors (``maid._context_weights``: its support and the denominators of
its conditional utilities) never meet it, so their tables stay ``==``.  The
sweeps over the whole diagram (expected utilities, Q-tables, and so regrets,
best-response values and conditional utilities) split each leaf over its
labels, which may move a value by rounding, within 1e-12.  Verdicts, chosen
actions, rules and profiles stay the same.
"""
import random
from dataclasses import replace
from itertools import product

from hypothesis import given, settings, strategies as st

from iimaid import bn, depth as dp, incomplete as inc, maid
from iimaid.bn import Cpd
from iimaid.depth import DepthStack
from iimaid.incomplete import IiMaid, SubjectiveMaid
from perfbench import generators

# sorting before the decisions, between them and the utilities, between the
# utilities and the chance variables, and last
NAMES = ("A0", "E0", "W0", "Z0")


def _close(got, want):
    assert got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) <= 1e-12 for k in want), (got, want)


@st.composite
def extra_chance(draw, m):
    """A new binary chance variable of ``m``: its name, up to two parents
    among the chance and decision variables (none makes it isolated) and
    rows that may put zero mass on a label."""
    readable = sorted(v for v in m.variables if m.kind(v) != bn.UTILITY)
    parents = tuple(sorted(draw(st.lists(st.sampled_from(readable), unique=True, max_size=2))))
    rows = {}
    for ctx in product(*(m.variables[p].domain for p in parents)):
        w = [draw(st.integers(0, 3)) for _ in "ab"]
        w[draw(st.integers(0, 1))] += 1
        rows[ctx] = {label: x / sum(w) for label, x in zip("ab", w)}
    return Cpd(draw(st.sampled_from(NAMES)), parents, rows)


def with_extra(model, cpd, built):
    """``model`` with ``cpd``'s variable added to its base diagram, one new
    diagram per base (kept in ``built``), its commitments kept."""
    m = maid.base_maid(model)
    if id(m) not in built:
        edges = [(p, v) for v in m.variables for p in m.parents[v]]
        built[id(m)] = maid.Maid.build(
            m.agents, [*m.variables.values(), bn.chance(cpd.child, "ab")],
            edges + [(p, cpd.child) for p in cpd.parents], [*m.cpds.values(), cpd])
    if isinstance(model, maid.PostPolicyMaid):
        return maid.PostPolicyMaid(built[id(m)], model.assigned)
    return built[id(m)]


def _same_support(model, extended):
    m, uniform = maid.base_maid(model), {}
    for d in maid.free_decisions(model):
        uniform[d] = maid.uniform_rule(m, d)
    assert inc._decision_slots(extended) == inc._decision_slots(model)
    for d in m.decisions():
        want = maid._context_weights(model, uniform, d)
        assert maid._context_weights(extended, uniform, d) == want


@st.composite
def maid_case(draw):
    rng = random.Random(draw(st.integers(0, 2**16)))
    m = generators.random_base_game(rng, draw(st.integers(2, 5)), draw(st.integers(1, 2)),
                                    draw(st.integers(1, 2)), d2_sees_d1=draw(st.booleans()))
    profile = generators.random_pure_profile(m, rng)
    model = maid.PostPolicyMaid(m, {"D1": profile.pop("D1")}) if draw(st.booleans()) else m
    return model, profile, draw(extra_chance(m))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(maid_case())
def test_a_barren_chance_variable_leaves_a_maid_unchanged(case):
    model, profile, cpd = case
    extended = with_extra(model, cpd, {})
    _same_support(model, extended)
    _close(maid.expected_utilities(extended, profile), maid.expected_utilities(model, profile))
    verdict, regrets = maid.is_nash(model, profile)
    got_verdict, got_regrets = maid.is_nash(extended, profile)
    assert got_verdict == verdict
    _close(got_regrets, regrets)
    for agent in maid.base_maid(model).agents:
        own = maid.free_decisions(model, agent)
        others = {d: r for d, r in profile.items() if d not in own}
        rules, value = maid.best_response(model, others, agent)
        got_rules, got_value = maid.best_response(extended, others, agent)
        assert got_rules == rules
        assert abs(got_value - value) <= 1e-12


@st.composite
def ii_case(draw):
    rng = random.Random(draw(st.integers(0, 2**16)))
    x = generators.random_ii_game(
        rng, draw(st.integers(2, 3)), draw(st.integers(3, 5)), draw(st.integers(1, 2)),
        draw(st.integers(1, 2)), draw(st.sampled_from((None, 1))))
    profile = {iset: bn.point_row(iset.actions, rng.choice(iset.actions))
               for iset in inc._pure_slots(x)}
    return x, profile, draw(extra_chance(x.models[x.objective].model))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ii_case())
def test_a_barren_chance_variable_leaves_an_ii_maid_unchanged(case):
    x, profile, cpd = case
    built = {}
    extended = IiMaid(x.agents, x.objective, {
        sid: SubjectiveMaid(sid, with_extra(s.model, cpd, built), s.beliefs)
        for sid, s in x.models.items()})
    for sid in x.models:
        _same_support(x.models[sid].model, extended.models[sid].model)
    verdict, regrets = inc.is_nash_ii(x, profile)
    got_verdict, got_regrets = inc.is_nash_ii(extended, profile)
    assert got_verdict == verdict
    _close(got_regrets, regrets)
    for agent in x.agents:
        rows, value = inc.best_response_ii(x, agent, profile)
        got_rows, got_value = inc.best_response_ii(extended, agent, profile)
        assert got_rows == rows
        assert abs(got_value - value) <= 1e-12


@st.composite
def stack_case(draw):
    rng = random.Random(draw(st.integers(0, 2**16)))
    make = draw(st.sampled_from((generators.random_depth2_stack, generators.random_depth3_stack)))
    stack = make(rng, draw(st.integers(2, 5)), draw(st.integers(1, 2)))
    return stack, draw(extra_chance(stack.nodes[stack.objective].model))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(stack_case())
def test_a_barren_chance_variable_leaves_a_depth_stack_unchanged(case):
    stack, cpd = case
    built = {}
    extended = DepthStack(stack.agents, stack.objective, {
        nid: SubjectiveMaid(nid, with_extra(s.model, cpd, built), s.beliefs)
        for nid, s in stack.nodes.items()})
    for nid, s in stack.nodes.items():
        model = s.model
        _same_support(model, extended.nodes[nid].model)
        m = maid.base_maid(model)
        for d in m.decisions():
            for agent in m.agents:
                _close(dp._conditional_values(extended.nodes[nid].model, agent, d),
                       dp._conditional_values(model, agent, d))
    assert dp.is_open_minded(extended) == dp.is_open_minded(stack)
    want, got = dp.recursive_best_response(stack), dp.recursive_best_response(extended)
    assert got.profile == want.profile
    assert got.objective_rules == want.objective_rules
    assert [replace(t, value=0.0) for t in got.trace] == \
        [replace(t, value=0.0) for t in want.trace]
    assert all(abs(t.value - u.value) <= 1e-12 for t, u in zip(got.trace, want.trace))
    assert dp.audit_trace(extended, got) == dp.audit_trace(stack, want)
