"""The enumeration kernel, ``bn.sweep``, against the oracles kept apart from it.

The kernel visits assignments in the oracle's order and multiplies the same
factors, so every answer must equal the oracle's bit for bit (``==``).  The
diagram kernels sum utilities out as payoff tables; on point utility rows
that is the same arithmetic, and on stochastic rows it moves an answer by
rounding only, within the 1e-12 that ``maid`` documents, and so does a
Q-table sweep's leaving out barren variables, which the oracle walks.  The
kernel walks an explicit stack; ``_recursive_sweep`` below is the recursive
walk it replaced, kept as the oracle its leaves must match, and it is the
sweep under the by-name leaves that the diagram kernels must match too.
"""
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from iimaid import bn, depth, fixtures, incomplete, maid
from iimaid.bn import Cpd
from iimaid.errors import ZeroProbabilityEvidence
from perfbench import generators
from tests.test_efg_build import deterministic_chain
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


def _recursive_sweep(variables, tables, order, leaf, evidence=None):
    """``bn.sweep`` as it was written before its explicit stack: one
    recursive call per variable of ``order``."""
    ev = evidence or {}
    steps = [(name, tables[name].rows, tables[name].parents,
              (ev[name],) if name in ev else variables[name].domain) for name in order]
    last = len(steps)
    a = {}

    def visit(i, weight):
        if i == last:
            leaf(a, weight)
            return
        name, rows, parents, labels = steps[i]
        row = rows[tuple(map(a.__getitem__, parents))]
        for label in labels:
            p = row.get(label, 0.0)
            if p <= 0.0:
                continue
            a[name] = label
            visit(i + 1, weight * p)
        a.pop(name, None)

    visit(0, 1.0)


def _leaves(walk, net, order, evidence):
    out = []
    walk(net.variables, net.cpds, order, lambda a, w: out.append((dict(a), w)), evidence)
    return out


@st.composite
def swept_net(draw):
    """``small_net``, sometimes with one entry moved to -5e-10 (a valid row
    within ``bn.TOL``), an order that is a prefix of its variables (maybe
    empty) and evidence on up to two of them."""
    net = draw(small_net())
    names = sorted(net.variables)
    cpds = dict(net.cpds)
    if draw(st.booleans()):
        v = draw(st.sampled_from(names))
        cpd = cpds[v]
        ctx = draw(st.sampled_from(sorted(cpd.rows)))
        low, high = draw(st.permutations(net.variables[v].domain))[:2]
        row = dict(cpd.rows[ctx])
        row[high] += row[low] + 5e-10
        row[low] = -5e-10
        assert bn.is_distribution(row, net.variables[v].domain)
        cpds[v] = Cpd(v, cpd.parents, {**cpd.rows, ctx: row})
    order = names[: draw(st.integers(0, len(names)))]
    observed = draw(st.lists(st.sampled_from(names), unique=True, max_size=2))
    evidence = {v: draw(st.sampled_from(net.variables[v].domain)) for v in observed}
    return bn.BayesNet(net.variables, cpds), order, evidence


@settings(max_examples=150, deadline=None, derandomize=True)
@given(swept_net())
def test_the_stack_walk_gives_the_recursive_walks_leaves(case):
    net, order, evidence = case
    for ev in ({}, evidence):
        want = _leaves(_recursive_sweep, net, order, ev)
        assert _leaves(bn.sweep, net, order, ev) == want


def test_a_chain_deeper_than_the_recursion_limit_is_swept():
    # one leaf and linear work: 5,000 nested calls would exceed the limit
    m = deterministic_chain(5000)
    last = "X4999"
    net = maid.induced_network(m, {})
    assert bn.marginal(net, [last]) == {("a",): 0.0, ("b",): 1.0}
    assert bn.marginal(net, [last], {"X0000": "b"}) == {("a",): 0.0, ("b",): 1.0}
    assert maid.expected_utilities(m, {}) == {"P": 1.0}


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
    # Expected utilities walk every variable, as the oracle does, so they are
    # ``==``; a Q-table sweep leaves barren variables out, which moves an
    # entry by rounding only, within the kernel bound, at the same contexts.
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
            got = maid.decision_values(model, profile, d, agent)
            assert got.keys() == q.keys()
            assert all(abs(got[ctx][x] - q[ctx][x]) <= 1e-12 for ctx in q for x in actions)

    uniform = bn.BayesNet(m.variables, {**m.cpds, **{
        d: maid.uniform_rule(m, d) for d in m.decisions()}})
    reached = list(bn.enumerate_support(uniform))
    free = {e: bn.weight_one(m.variables[e]) for e in m.decisions()}
    for d in m.decisions():
        want_ctx = {tuple(a[p] for p in m.parents[d]) for a, _ in reached}
        assert maid._context_weights(m, free, d)[0].keys() == want_ctx


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
    building every payoff key by name, over the recursive walk."""
    m = maid.base_maid(model)
    payoffs = maid._payoff_tables(m)
    totals = dict.fromkeys(m.agents, 0.0)

    def leaf(a, weight):
        for owner, parents, table in payoffs:
            totals[owner] += weight * table[tuple(map(a.__getitem__, parents))]

    tables = {**m.cpds, **maid.fixed_rules(model), **rules}
    _recursive_sweep(m.variables, tables, maid._sweep_order(m), leaf)
    return totals


def _by_name_decision_values(model, rules, d, agent):
    """``maid._decision_values`` as it was written with each leaf building
    its context and every payoff key by name, and summing the agent's
    payoffs however many it owns, over the recursive walk of the diagram's
    pruned order, branching on ``d`` at its place in the sweep order."""
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
    kept = {*maid._pruned_order(m, None), d}
    _recursive_sweep(m.variables, tables, [v for v in maid._sweep_order(m) if v in kept], leaf)
    return q


def _read_by_a_swept_variable(m, d):
    """Whether a variable that a diagram sweep walks has ``d`` as a parent."""
    return any(d in m.parents[v] for v in m.variables if m.kind(v) != bn.UTILITY)


def test_context_readers_leave_every_sum_bit_identical():
    # Reading keys through readers made once, walking the stack, reading a
    # one-utility agent's payoff without ``sum`` and pricing every action of
    # an unread decision at the leaf change no operand and no order, so each
    # value is ``==`` to the by-name leaves' over the recursive walk, which
    # branches on the decision.  Agents here own none, one or several
    # utilities, and the games hold both sweep shapes: a decision that no
    # swept variable reads, and one that the other decision observes; some
    # hold a barren chance variable, which the Q-table sweeps leave out.
    shapes, barren = set(), set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(reader_game())
    def check(gp):
        model, profile = gp
        m = maid.base_maid(model)
        barren.add(bool(set(m.chance_variables()) - set(maid._pruned_order(m, None))))
        assert maid.expected_utilities(model, profile) == _by_name_expected_utilities(model, profile)
        for d in maid.free_decisions(model):
            shapes.add(_read_by_a_swept_variable(m, d))
            others = {e: r for e, r in profile.items() if e != d}
            for agent in m.agents:
                want = _by_name_decision_values(model, others, d, agent)
                assert maid.decision_values(model, profile, d, agent) == want

    check()
    assert shapes == barren == {False, True}


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


def test_a_q_table_sweep_leaves_out_exactly_an_unread_decision(monkeypatch, honesty, depth3):
    # A Q-table sweep walks the diagram's pruned order without ``d`` when no
    # swept variable reads ``d`` (the leaf prices every action), and the whole
    # pruned order, branching on ``d``, when one does.
    orders = []
    original = bn.sweep

    def spy(variables, tables, order, leaf, evidence=None):
        orders.append(tuple(order))
        return original(variables, tables, order, leaf, evidence)

    monkeypatch.setattr(bn, "sweep", spy)
    shapes = set()
    for model in (honesty, *(s.model for s in depth3.nodes.values())):
        m = maid.base_maid(model)
        rules = {d: maid.uniform_rule(m, d) for d in maid.free_decisions(model)}
        for d in maid.free_decisions(model):
            read = _read_by_a_swept_variable(m, d)
            shapes.add(read)
            for agent in m.agents:
                orders.clear()
                maid.decision_values(model, rules, d, agent)
                (order,) = orders
                assert (d in order) == read, (d, order)
                assert [v for v in order if v != d] == \
                    [v for v in maid._pruned_order(m, None) if v != d]
    assert shapes == {False, True}


@st.composite
def weighed_game(draw):
    """``reader_game`` with, sometimes, one entry of a chance row or of a
    decision rule, committed or open, moved to -5e-10 (valid within
    ``bn.TOL``)."""
    model, profile = draw(reader_game())
    m = maid.base_maid(model)
    tables = {**{x: m.cpds[x] for x in m.chance_variables()}, **maid.fixed_rules(model),
              **profile}
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(tables)))
        cpd = tables[name]
        ctx = draw(st.sampled_from(sorted(cpd.rows)))
        low, high = draw(st.permutations(m.variables[name].domain))[:2]
        row = dict(cpd.rows[ctx])
        row[high] += row[low] + 5e-10
        row[low] = -5e-10
        tables[name] = Cpd(name, cpd.parents, {**cpd.rows, ctx: row})
    base = maid.Maid(m.agents, m.variables, m.parents, {**m.cpds, **{
        x: tables[x] for x in m.chance_variables()}})
    committed = {d: tables[d] for d in maid.fixed_rules(model)}
    model = maid.PostPolicyMaid(base, committed) if committed else base
    return model, {d: tables[d] for d in profile}


def _ancestral_marginal(model, rules, d):
    """The distribution of ``d``'s parent context as conditional utilities
    once took it: the induced network, cut to ``d``'s parents and their
    ancestors, then ``bn.marginal``."""
    net, pa = maid.induced_network(model, rules), maid.base_maid(model).parents[d]
    keep = set(pa)
    for name in reversed(bn.topological_order(net)):
        if name in keep:
            keep.update(net.cpds[name].parents)
    ancestral = bn.make_net(map(net.variables.get, keep), map(net.cpds.get, keep))
    return bn.marginal(ancestral, pa)


def test_context_weights_over_their_total_are_the_ancestral_marginal():
    # The same variables in the same order with the same tables, and weights
    # and total added leaf by leaf as ``bn.marginal`` adds them, so each
    # reached context's share is ``==`` to the marginal, and every other
    # context has marginal 0.0.  Decisions free and committed, and rows with
    # zero and -5e-10 entries, all occur.
    seen = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(weighed_game())
    def check(gp):
        model, profile = gp
        m = maid.base_maid(model)
        committed = maid.fixed_rules(model)
        for table in (*m.cpds.values(), *committed.values(), *profile.values()):
            seen.update(p for row in table.rows.values() for p in row.values()
                        if p in (0.0, -5e-10))
        for d in m.decisions():
            seen.add("committed" if d in committed else "free")
            weights, total = maid._context_weights(model, profile, d)
            want = _ancestral_marginal(model, profile, d)
            got = {ctx: w / total for ctx, w in weights.items()}
            assert {**dict.fromkeys(want, 0.0), **got} == want

    check()
    assert seen == {0.0, -5e-10, "committed", "free"}


def _ancestors(m, d):
    """``d``'s parents and their ancestors, by a walk up the graph."""
    found, todo = set(), list(m.parents[d])
    while todo:
        v = todo.pop()
        if v not in found:
            found.add(v)
            todo.extend(m.parents[v])
    return found


def test_support_and_mass_sweeps_visit_only_the_parents_and_their_ancestors(
        monkeypatch, honesty, depth3):
    # A decision's support and the denominators of its conditional utilities
    # come from one sweep each over its parents and their ancestors, in the
    # diagram's sweep order, though other variables come before its last
    # parent in that order.
    orders = []
    original = bn.sweep

    def spy(variables, tables, order, leaf, evidence=None):
        orders.append(tuple(order))
        return original(variables, tables, order, leaf, evidence)

    monkeypatch.setattr(bn, "sweep", spy)
    # A comes before X, which D observes, and is not its ancestor
    half = {"a": 0.5, "b": 0.5}
    aside = maid.Maid.build(
        ("P",), [bn.chance("A", "ab"), bn.chance("X", "ab"), bn.decision("D", "P", "lr"),
                 bn.utility("U", "P", {"lo": 0.0, "hi": 1.0})],
        [("X", "D"), ("A", "U"), ("D", "U")],
        [Cpd("A", (), {(): half}), Cpd("X", (), {(): half}),
         bn.tabulate("U", ("hi", "lo"), {"A": "ab", "D": "lr"},
                     lambda c: "hi" if (c["A"], c["D"]) in {("a", "l"), ("b", "r")} else "lo")])
    skipped = set()
    generated = generators.random_depth3_stack(random.Random(0), 6, 2)
    for model in (aside, honesty, *(s.model for st_ in (depth3, generated)
                                    for s in st_.nodes.values())):
        m = maid.base_maid(model)
        order = maid._sweep_order(m)
        want = {d: tuple(v for v in order if v in _ancestors(m, d)) for d in m.decisions()}
        for d in m.decisions():
            last = max(map(order.index, m.parents[d]), default=0)
            skipped |= set(order[:last]) - _ancestors(m, d)
        orders.clear()
        incomplete._build_decision_slots.__wrapped__(m)
        assert orders == [want[d] for agent in m.agents for d in m.decisions(agent)]
        for d in m.decisions():
            for agent in m.agents:
                orders.clear()
                depth._conditional_values.__wrapped__(model, agent, d)
                assert orders == [maid._q_sweep(m, ((d, agent),), False)[0], want[d]]
    assert skipped


@st.composite
def shared_sweep_game(draw):
    """``random_base_game``, D2 sometimes observing D1, with a chance
    variable Z0 added, reading up to two chance or decision variables, and
    sometimes a third utility, owned by either agent, that reads Z0 and a
    decision, so that Z0 is kept.  Each open decision gets a rule that may
    be mixed; D1 is sometimes committed."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    m = generators.random_base_game(rng, draw(st.integers(2, 5)), draw(st.integers(1, 2)),
                                    draw(st.integers(1, 2)), d2_sees_d1=draw(st.booleans()))
    readable = sorted(v for v in m.variables if m.kind(v) != bn.UTILITY)
    z_parents = tuple(sorted(draw(st.lists(st.sampled_from(readable), unique=True, max_size=2))))
    variables = [*m.variables.values(), bn.chance("Z0", "ab")]
    edges = [(p, v) for v in m.variables for p in m.parents[v]] + [(p, "Z0") for p in z_parents]
    cpds = [*m.cpds.values(), Cpd("Z0", z_parents, {
        ctx: _row(draw, "ab") for ctx in product(*(m.variables[p].domain for p in z_parents))})]
    if draw(st.booleans()):
        reads = tuple(sorted(("Z0", draw(st.sampled_from(m.decisions())))))
        values = {f"v{i}": draw(st.integers(-4, 4)) * 0.5 for i in range(3)}
        variables.append(bn.utility("U3", draw(st.sampled_from(m.agents)), values))
        edges += [(p, "U3") for p in reads]
        domains = {v.name: v.domain for v in variables}
        cpds.append(Cpd("U3", reads, {ctx: _row(draw, sorted(values))
                                      for ctx in product(*(domains[p] for p in reads))}))
    m = maid.Maid.build(m.agents, variables, edges, cpds)
    profile = {d: Cpd(d, m.parents[d], {
        ctx: _row(draw, "lr") for ctx in product(*(m.variables[p].domain for p in m.parents[d]))})
        for d in m.decisions()}
    if draw(st.booleans()):
        return maid.PostPolicyMaid(m, {"D1": profile.pop("D1")}), profile
    return m, profile


def test_is_nash_prices_its_single_decision_agents_as_their_own_sweeps_do():
    # Whether the agents with one free decision share a sweep or not, each
    # Q-table and so each regret is ``==`` to the one the agent's own
    # ``_best_value`` sweep gives.  Games with one such agent, with two that
    # share a sweep, and with two that cannot (a kept variable reads or
    # follows a decision) all occur.
    shapes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(shared_sweep_game())
    def check(gp):
        model, profile = gp
        m = maid.base_maid(model)
        single = tuple((own[0], agent) for agent in m.agents
                       if len(own := maid.free_decisions(model, agent)) == 1)
        shapes.add((len(single), maid._q_sweep(m, single, False) is None))
        assert maid._decision_values(model, profile, single) == \
            [maid._decision_values(model, profile, (t,))[0] for t in single]
        regrets = dict.fromkeys(m.agents, 0.0)
        for d, agent in single:
            others = {e: r for e, r in profile.items() if e != d}
            value, q = maid._best_value(model, others, agent)
            regrets[agent] = value - maid._priced(0.0, q, profile[d].rows)
        assert maid.is_nash(model, profile) == (all(r <= 1e-9 for r in regrets.values()), regrets)

    check()
    assert shapes == {(1, False), (2, False), (2, True)}


def test_is_nash_sweeps_once_for_all_its_single_decision_agents(monkeypatch, honesty):
    # On a maid-complete-shaped game both agents' Q-tables come from one
    # sweep over the kept chance variables; X03 is barren and left out.  In
    # the honesty game D_H reads D_A, so each agent has its own sweep.
    orders = []
    original = bn.sweep

    def spy(variables, tables, order, leaf, evidence=None):
        orders.append(tuple(order))
        return original(variables, tables, order, leaf, evidence)

    monkeypatch.setattr(bn, "sweep", spy)
    m = generators.random_base_game(random.Random(1), 6, 2, 1)
    rules = generators.random_pure_profile(m, random.Random(2))
    maid.is_nash(m, rules)
    assert orders == [("X00", "X01", "X02", "X04", "X05")]
    orders.clear()
    assert maid.is_nash(honesty, fixtures.truthful_match_rules())[0]
    assert len(orders) == 2


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
