"""Metamorphic relations: each solver checked against itself on a transformed
game whose answer is known to follow, with no second solver.

A barren or isolated chance variable (one that no variable reads) sums to
one wherever it stands, so adding it to every diagram of a game leaves every
answer unchanged.  The sweeps that visit only what their leaves read never
meet it: a decision's context weights (``maid._context_weights``: its
support and the denominators of its conditional utilities) and every
Q-table (``maid._pruned_order``).  So their tables stay ``==``, and so do
the values priced off Q-tables: regrets, best-response values of agents
with a free decision, conditional utilities and trace values.  Expected
utilities, and so the values of agents with no free decision, still sweep
the whole diagram and split each leaf over the new variable's labels, which
may move a value by rounding, within 1e-12.  Verdicts, chosen actions, rules
and profiles stay the same.  A barren row that sums to one only within
``bn.TOL`` is counted as exactly one by a pruned sweep.
"""
import random
from itertools import product

from hypothesis import given, settings, strategies as st

from iimaid import bn, depth as dp, fixtures, incomplete as inc, maid
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
    assert maid.is_nash(extended, profile) == maid.is_nash(model, profile)
    for agent in maid.base_maid(model).agents:
        own = maid.free_decisions(model, agent)
        others = {d: r for d, r in profile.items() if d not in own}
        rules, value = maid.best_response(model, others, agent)
        got_rules, got_value = maid.best_response(extended, others, agent)
        assert got_rules == rules
        if len(own) == 1:
            assert got_value == value
        else:  # an expected utility, or backward induction over every variable
            assert abs(got_value - value) <= 1e-12


def test_an_inexact_barren_row_counts_as_exactly_one(honesty):
    # Each row of Z0 sums to 1 + 5e-10, a distribution within ``bn.TOL``.  A
    # Q-table sweep leaves Z0 out, as barren, so it counts each row as
    # exactly one: a sweep over Z0 would scale every value by 1 + 5e-10.
    parents = (honesty.chance_variables()[0], "D_A")
    rows = {ctx: {"a": 0.5, "b": 0.5 + 5e-10}
            for ctx in product(*(honesty.variables[p].domain for p in parents))}
    assert all(bn.is_distribution(row, "ab") for row in rows.values())
    extended = with_extra(honesty, Cpd("Z0", parents, rows), {})
    for rules in (fixtures.truthful_match_rules(), fixtures.always_low_match_rules()):
        for d in honesty.decisions():
            for agent in honesty.agents:
                assert maid.decision_values(extended, rules, d, agent) == \
                    maid.decision_values(honesty, rules, d, agent)
        assert maid.is_nash(extended, rules) == maid.is_nash(honesty, rules)


def test_an_inexact_barren_row_leaves_a_two_decision_regret_alone():
    # P's two decisions are priced by backward induction and compared with
    # the profile's expected utility.  Both sweep Z0, whose rows sum to
    # 1 - 1e-10, so both scale by it: were the backward induction's sweep
    # pruned, an equilibrium worth 20 would read a regret of 2e-9, above
    # is_nash's default tol.
    variables = [bn.chance("X", "01"), bn.decision("D1", "P", "01"),
                 bn.decision("D2", "P", "01"), bn.utility("U", "P", {"hi": 20.0, "lo": -20.0})]
    edges = [("X", "D1"), ("X", "D2"), ("D1", "D2"), ("X", "U"), ("D1", "U"), ("D2", "U")]
    cpds = [Cpd("X", (), {(): {"0": 0.5, "1": 0.5}}),
            bn.tabulate("U", ("hi", "lo"), {"X": "01", "D1": "01", "D2": "01"},
                        lambda c: "hi" if c["D1"] == c["D2"] == c["X"] else "lo")]
    m = maid.Maid.build(("P",), variables, edges, cpds)
    rows = {(x,): {"a": 0.5, "b": 0.5 - 1e-10} for x in "01"}
    assert all(bn.is_distribution(row, "ab") for row in rows.values())
    extended = with_extra(m, Cpd("Z0", ("X",), rows), {})
    best, value = maid.best_response(m, {}, "P")
    assert value == 20.0
    for model in (m, extended):
        ok, regrets = maid.is_nash(model, best)
        assert ok and abs(regrets["P"]) <= 1e-12
    assert maid.find_pure_nash(extended) == maid.find_pure_nash(m)


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
    assert inc.is_nash_ii(extended, profile) == inc.is_nash_ii(x, profile)
    for agent in x.agents:
        assert inc.best_response_ii(extended, agent, profile) == \
            inc.best_response_ii(x, agent, profile)


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
                assert dp._conditional_values(extended.nodes[nid].model, agent, d) == \
                    dp._conditional_values(model, agent, d)
    assert dp.is_open_minded(extended) == dp.is_open_minded(stack)
    want, got = dp.recursive_best_response(stack), dp.recursive_best_response(extended)
    assert got.profile == want.profile
    assert got.objective_rules == want.objective_rules
    assert got.trace == want.trace
    assert dp.audit_trace(extended, got) == dp.audit_trace(stack, want)
