"""The enumeration kernel, ``bn.sweep``, against the oracle kept apart from it.

The kernel visits assignments in the oracle's order and multiplies the same
factors, so every answer must equal the oracle's bit for bit (``==``).  The
diagram kernels sum utilities out as payoff tables; on point utility rows
that is the same arithmetic, and on stochastic rows it moves an answer by
rounding only, within the 1e-12 that ``maid`` documents.
"""
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from iimaid import bn, depth, fixtures, incomplete, maid
from iimaid.bn import Cpd
from iimaid.errors import ZeroProbabilityEvidence
from tests.test_properties import recall_game_with_profile


@st.composite
def small_net(draw):
    """Up to four chance variables over two or three labels, each with some
    earlier parents, whose rows may put zero mass on a label."""
    names = [f"V{i}" for i in range(draw(st.integers(1, 4)))]
    domains = {v: "abc"[: draw(st.integers(2, 3))] for v in names}
    cpds = []
    for i, v in enumerate(names):
        pa = tuple(p for p in names[:i] if draw(st.booleans()))
        rows = {}
        for ctx in product(*(domains[p] for p in pa)):
            w = [draw(st.integers(0, 3)) for _ in domains[v]]
            w[0] += not any(w)
            rows[ctx] = {label: x / sum(w) for label, x in zip(domains[v], w)}
        cpds.append(Cpd(v, pa, rows))
    return bn.make_net([bn.chance(v, domains[v]) for v in names], cpds)


def _oracle_marginal(net, names, evidence):
    table = dict.fromkeys(product(*(net.variables[t].domain for t in names)), 0.0)
    total = 0.0
    for a, p in bn.enumerate_support(net, evidence):
        table[tuple(a[t] for t in names)] += p
        total += p
    return total, {k: v / total for k, v in sorted(table.items())} if total else None


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_net(), st.data())
def test_marginal_equals_the_oracle(net, data):
    names = sorted(net.variables)
    targets = sorted(data.draw(st.lists(st.sampled_from(names), unique=True, max_size=2)))
    observed = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=2))
    evidence = {v: data.draw(st.sampled_from(net.variables[v].domain)) for v in observed}
    for ev in ({}, evidence):
        total, want = _oracle_marginal(net, targets, ev)
        if total > 0.0:
            assert bn.marginal(net, targets, ev) == want
        else:
            with pytest.raises(ZeroProbabilityEvidence):
                bn.marginal(net, targets, ev)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(recall_game_with_profile())
def test_maid_inference_equals_the_oracle(gp):
    model, profile = gp
    m = maid.base_maid(model)
    committed = {**m.cpds, **maid.fixed_rules(model)}

    want = dict.fromkeys(m.agents, 0.0)
    for a, p in bn.enumerate_support(maid.induced_network(model, profile)):
        for u in m.utilities():
            want[m.variables[u].owner] += p * m.variables[u].values[a[u]]
    assert maid.expected_utilities(model, profile) == want

    for d in maid.free_decisions(model):
        actions, pa = m.variables[d].domain, m.parents[d]
        # every action at weight 1 in every context, written without the kernel
        open_d = Cpd(d, pa, {ctx: dict.fromkeys(actions, 1.0)
                             for ctx in product(*(m.variables[p].domain for p in pa))})
        net = bn.BayesNet(m.variables, {**committed, **profile, d: open_d})
        for agent in m.agents:
            q = {}
            for a, p in bn.enumerate_support(net):
                row = q.setdefault(tuple(a[x] for x in pa), dict.fromkeys(actions, 0.0))
                row[a[d]] += p * sum(m.variables[u].values[a[u]] for u in m.utilities(agent))
            assert maid.decision_values(model, profile, d, agent) == q

    uniform = bn.BayesNet(m.variables, {**m.cpds, **{
        d: maid.uniform_rule(m, d) for d in m.decisions()}})
    reached = list(bn.enumerate_support(uniform))
    for d in m.decisions():
        want_ctx = {tuple(a[p] for p in m.parents[d]) for a, _ in reached}
        assert incomplete._build_support_contexts(m, d) == want_ctx


@st.composite
def stochastic_payoff_game(draw):
    """``recall_game_with_profile`` with each utility's rows redrawn as
    distributions over its payoff labels, some with zero entries."""
    model, profile = draw(recall_game_with_profile())
    m = maid.base_maid(model)
    cpds = dict(m.cpds)
    for u in m.utilities():
        labels = m.variables[u].domain
        rows = {}
        for ctx in cpds[u].rows:
            w = [draw(st.integers(0, 3)) for _ in labels]
            w[draw(st.integers(0, len(w) - 1))] += 1
            rows[ctx] = {label: x / sum(w) for label, x in zip(labels, w)}
        cpds[u] = Cpd(u, m.parents[u], rows)
    base = maid.Maid(m.agents, m.variables, m.parents, cpds)
    assert maid.validate_maid(base) == []
    if isinstance(model, maid.PostPolicyMaid):
        return maid.PostPolicyMaid(base, model.assigned), profile
    return base, profile


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stochastic_payoff_game())
def test_stochastic_payoffs_stay_within_the_kernel_bound(gp):
    model, profile = gp
    m = maid.base_maid(model)
    want = dict.fromkeys(m.agents, 0.0)
    for a, p in bn.enumerate_support(maid.induced_network(model, profile)):
        for u in m.utilities():
            want[m.variables[u].owner] += p * m.variables[u].values[a[u]]
    got = maid.expected_utilities(model, profile)
    assert all(abs(got[agent] - want[agent]) <= 1e-12 for agent in m.agents)

    committed = {**m.cpds, **maid.fixed_rules(model)}
    for d in maid.free_decisions(model):
        actions, pa = m.variables[d].domain, m.parents[d]
        open_d = Cpd(d, pa, {ctx: dict.fromkeys(actions, 1.0)
                             for ctx in product(*(m.variables[p].domain for p in pa))})
        net = bn.BayesNet(m.variables, {**committed, **profile, d: open_d})
        for agent in m.agents:
            q = {}
            for a, p in bn.enumerate_support(net):
                row = q.setdefault(tuple(a[x] for x in pa), dict.fromkeys(actions, 0.0))
                row[a[d]] += p * sum(m.variables[u].values[a[u]] for u in m.utilities(agent))
            got_q = maid.decision_values(model, profile, d, agent)
            assert got_q.keys() == q.keys()
            assert all(abs(got_q[ctx][x] - q[ctx][x]) <= 1e-12 for ctx in q for x in actions)


def _row(draw, labels):
    """A distribution over ``labels`` with small integer weights, some zero."""
    w = [draw(st.integers(0, 3)) for _ in labels]
    w[draw(st.integers(0, len(w) - 1))] += 1
    return {label: x / sum(w) for label, x in zip(labels, w)}


@st.composite
def reader_game(draw):
    """A diagram whose decisions and utilities each read 0-3 parents, and a
    mixed rule for every open decision.

    One to three chance variables over two or three labels, each maybe
    observing the one before; two decisions owned by P1 and P2, each
    observing up to three earlier variables; one to three utilities with up
    to three parents among the chance and decision variables and stochastic
    rows over their payoff labels; sometimes D1 is committed."""
    k = draw(st.integers(1, 3))
    variables = [bn.chance(f"X{i}", "abc"[: draw(st.integers(2, 3))]) for i in range(k)]
    parents = {}
    for i in range(k):
        parents[f"X{i}"] = (f"X{i - 1}",) if i and draw(st.booleans()) else ()
    earlier = [v.name for v in variables]
    for name, owner in (("D0", "P1"), ("D1", "P2")):
        parents[name] = tuple(draw(st.lists(st.sampled_from(earlier), unique=True, max_size=3)))
        variables.append(bn.decision(name, owner, "lr"))
        earlier.append(name)
    domains = {v.name: v.domain for v in variables}
    cpds = [Cpd(x, parents[x], {ctx: _row(draw, domains[x])
                                for ctx in product(*(domains[p] for p in parents[x]))})
            for x in sorted(parents) if x.startswith("X")]
    for j in range(draw(st.integers(1, 3))):
        name = f"U{j}"
        parents[name] = tuple(draw(st.lists(st.sampled_from(earlier), unique=True, max_size=3)))
        values = {f"v{i}": draw(st.integers(-4, 4)) * 0.5 for i in range(3)}
        variables.append(bn.utility(name, draw(st.sampled_from(("P1", "P2"))), values))
        cpds.append(Cpd(name, parents[name], {
            ctx: _row(draw, sorted(values))
            for ctx in product(*(domains[p] for p in parents[name]))}))
    edges = [(p, child) for child, ps in parents.items() for p in ps]
    m = maid.Maid.build(("P1", "P2"), variables, edges, cpds)
    profile = {d: Cpd(d, m.parents[d], {
        ctx: _row(draw, "lr") for ctx in product(*(domains[p] for p in m.parents[d]))})
        for d in m.decisions()}
    if draw(st.booleans()):
        return maid.PostPolicyMaid(m, {"D1": profile.pop("D1")}), profile
    return m, profile


def _by_name_expected_utilities(model, rules):
    """``maid._expected_utilities`` as it was written with each leaf
    building every payoff key by name."""
    m = maid.base_maid(model)
    payoffs = maid._payoff_tables(m)
    totals = dict.fromkeys(m.agents, 0.0)

    def leaf(a, weight):
        for owner, parents, table in payoffs:
            totals[owner] += weight * table[tuple(map(a.__getitem__, parents))]

    tables = {**m.cpds, **maid.fixed_rules(model), **rules}
    bn.sweep(m.variables, tables, maid._sweep_order(m), leaf)
    return totals


def _by_name_decision_values(model, rules, d, agent):
    """``maid._decision_values`` as it was written with each leaf building
    its context and every payoff key by name."""
    m = maid.base_maid(model)
    payoffs = [(parents, table) for owner, parents, table in maid._payoff_tables(m)
               if owner == agent]
    pa, actions = m.parents[d], m.variables[d].domain
    q = {}

    def leaf(a, weight):
        key = tuple(map(a.__getitem__, pa))
        q_row = q.get(key)
        if q_row is None:
            q_row = q[key] = dict.fromkeys(actions, 0.0)
        q_row[a[d]] += weight * sum(table[tuple(map(a.__getitem__, parents))]
                                    for parents, table in payoffs)

    tables = {**m.cpds, **maid.fixed_rules(model), **rules, d: bn.weight_one(m.variables[d])}
    bn.sweep(m.variables, tables, maid._sweep_order(m), leaf)
    return q


@settings(max_examples=80, deadline=None, derandomize=True)
@given(reader_game())
def test_context_readers_leave_every_sum_bit_identical(gp):
    # Reading keys through readers made once changes no operand and no
    # order, so each value is ``==`` to the by-name leaves'.
    model, profile = gp
    m = maid.base_maid(model)
    assert maid.expected_utilities(model, profile) == _by_name_expected_utilities(model, profile)
    for d in maid.free_decisions(model):
        others = {e: r for e, r in profile.items() if e != d}
        for agent in m.agents:
            want = _by_name_decision_values(model, others, d, agent)
            assert maid.decision_values(model, profile, d, agent) == want


def test_a_context_reader_returns_a_key_tuple():
    a = {"X": "x", "Y": "y", "Z": "z"}
    assert maid._context_reader(("Y",))(a) == ("y",)
    assert maid._context_reader(())(a) == ()
    assert maid._context_reader(("Z", "X"))(a) == ("z", "x")
    path = ["p", "q", "r"]
    assert maid._context_reader((1,))(path) == ("q",)
    assert maid._context_reader((2, 0))(path) == ("r", "p")


def test_diagram_sweeps_expand_no_utility(monkeypatch, honesty, depth3):
    orders = []
    original = bn.sweep

    def spy(variables, tables, order, leaf, evidence=None):
        orders.append(tuple(order))
        return original(variables, tables, order, leaf, evidence)

    monkeypatch.setattr(bn, "sweep", spy)
    rules = fixtures.truthful_match_rules()
    maid.expected_utilities(honesty, rules)
    for d in honesty.decisions():
        maid.decision_values(honesty, rules, d, "H")
    assert maid.is_nash(honesty, rules)[0]
    maid.find_pure_nash(honesty)
    depth.recursive_best_response(depth3)
    assert len(orders) > 2 * len(honesty.decisions())
    bases = [honesty, *(maid.base_maid(s.model) for s in depth3.nodes.values())]
    kinds = {v.name: v.kind for m in bases for v in m.variables.values()}
    assert set(kinds.values()) == {bn.CHANCE, bn.DECISION, bn.UTILITY}
    for order in orders:
        assert bn.UTILITY not in {kinds[v] for v in order}, order


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_oracles_do_not_use_the_kernel(honesty, depth3):
    with mock.patch.object(bn, "sweep", _refuse):
        net = maid.induced_network(honesty, fixtures.truthful_match_rules())
        assert sum(p for _, p in bn.enumerate_support(net)) == pytest.approx(1.0)
        solo = depth3.nodes["h_solo"].model
        value = depth._walk_conditional_utility(solo, "H", "D_H", {"D_A": "low"}, "deploy")
        assert value == pytest.approx(1.0)


def test_solvers_do_not_use_the_oracle(honesty, example1, depth3, ne_profile):
    with mock.patch.object(bn, "enumerate_support", _refuse):
        assert maid.is_nash(honesty, fixtures.truthful_match_rules()) == (True, {"A": 0.0, "H": 0.0})
        assert incomplete.is_nash_ii(example1, ne_profile)[0]
        assert incomplete.information_sets(example1, "H")
        assert depth.recursive_best_response(depth3).profile
