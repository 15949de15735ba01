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
