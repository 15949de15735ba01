"""``efg.efg_expected_utility`` against the node-by-node walk it replaced,
and against the diagram.

The oracle is the walk the leaf table replaced: a stack over every node,
each node's value the ``sum`` over its edges of the edge's weight times the
child's value.  The leaf table takes a flat sum of path products instead,
so values may move by rounding, within 1e-12; every error is the same, with
the same message.  Where the diagram's sweep multiplies the chance entries
before the decision entries, as on ``generators.random_base_game``'s games,
the tree prices every profile exactly as the diagram does.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from iimaid import efg, maid
from iimaid.bn import CHANCE, DECISION, Cpd
from iimaid.errors import GameError, MissingRule, UnknownAgent
from perfbench import generators
from tests.test_efg import _chance_chain
from tests.test_properties import PROBS, maid_with_profile


def _walk_table(g):
    """Each node as ``_walk_oracle`` reads it, by node id: a leaf's
    payoffs, a chance node's (probability, child) edges, or a decision
    node's strategy key and (label, child) edges."""
    out = []
    for node in g.nodes:
        if node.kind == "leaf":
            out.append(("leaf", node.payoffs, ()))
        elif node.kind == CHANCE:
            out.append((CHANCE, None, tuple((node.dist[lbl], c) for lbl, c in node.edges)))
        else:
            out.append((DECISION, (node.owner, node.iset), node.edges))
    return tuple(out)


def _walk_oracle(g, strategy, agent):
    """The tree walked depth first on an explicit stack: a node's value is
    ``sum`` over its edges, in edge order, of the edge's weight times the
    child's value; decision edges the strategy gives no positive weight are
    skipped, and a decision node without a strategy row raises
    ``MissingRule`` when the walk reaches it."""
    if agent not in g.agents:
        raise UnknownAgent(agent)
    table = _walk_table(g)
    # Each frame: a node's (weight, child) edges and the products so far.
    stack = []
    kind, data, edges = table[g.root]
    while True:
        if kind == "leaf":
            value = data.get(agent, 0.0)
        else:
            if kind != CHANCE:
                if data not in strategy:
                    raise MissingRule(f"no strategy row for {data}")
                row = strategy[data]
                edges = [(w, child) for lbl, child in edges if (w := row.get(lbl, 0.0)) > 0.0]
            if edges:
                stack.append((edges, []))
                kind, data, edges = table[edges[0][1]]
                continue
            value = 0  # ``sum`` over no edges
        while stack:
            pending, products = stack[-1]
            k = len(products)
            products.append(pending[k][0] * value)
            if k + 1 < len(pending):
                kind, data, edges = table[pending[k + 1][1]]
                break
            stack.pop()
            value = sum(products)
        else:
            return value


def _outcome(value, g, strategy, agent):
    try:
        return value(g, strategy, agent)
    except GameError as exc:
        return type(exc), str(exc)


def assert_priced_as_the_walk(g, strategy):
    for agent in g.agents:
        got = _outcome(efg.efg_expected_utility, g, strategy, agent)
        want = _outcome(_walk_oracle, g, strategy, agent)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got == pytest.approx(want, abs=1e-12)


def _redrawn(draw, strategy):
    """``strategy`` with each row kept, made mixed, given a zero entry or
    deleted."""
    out = {}
    for key in sorted(strategy):
        row = strategy[key]
        labels = sorted(row)
        change = draw(st.sampled_from(["keep", "mixed", "zero", "delete"]))
        if change == "keep":
            out[key] = row
        elif change == "mixed":
            p = draw(st.sampled_from(PROBS))
            out[key] = {labels[0]: p, labels[1]: 1.0 - p}
        elif change == "zero":
            out[key] = {**row, draw(st.sampled_from(labels)): 0.0}
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(maid_with_profile(), st.data())
def test_diagram_trees_are_priced_as_the_walk_prices_them(mp, data):
    m, rules = mp
    g, _ = efg.maid2efg(m)
    sigma = efg.strategy_from_policy(m, g, rules)
    assert_priced_as_the_walk(g, sigma)
    assert_priced_as_the_walk(g, _redrawn(data.draw, sigma))


TAIL = efg.EfgNode(kind="decision", var="D", owner="P", iset=("D", ()),
                   edges=(("l", 1), ("r", 1)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([0, 1, 7, 1100]), st.sampled_from(["leaf", "decision"]),
       st.sampled_from([None, {"l": 0.0, "r": 1.0}, {"l": 0.3, "r": 0.7}, {"l": 0.0, "r": 0.0}]))
def test_chance_chains_are_priced_as_the_walk_prices_them(n, tail, row):
    # At 1100 links the chance weight of the deepest leaves underflows to
    # 0.0, and a missing row there still raises.
    tail = TAIL if tail == "decision" else efg.EfgNode(kind="leaf", payoffs={"P": 3.0})
    g = _chance_chain(n, tail)
    strategy = {} if row is None else {("P", ("D", ())): row}
    assert_priced_as_the_walk(g, strategy)


def test_the_cases_are_covered():
    g = _chance_chain(1100, TAIL)
    weights = [w for w, choices, _ in efg._leaves(g) if choices]
    assert weights == [0.0, 0.0]
    with pytest.raises(MissingRule, match=r"no strategy row for \('P', \('D', \(\)\)\)"):
        efg.efg_expected_utility(g, {}, "P")


def _mixed_profile(m, rng):
    rules = {}
    for d in m.decisions():
        dom = m.variables[d].domain
        rows = {}
        for ctx in product(*(m.variables[p].domain for p in m.parents[d])):
            p = rng.choice([0.0, 1.0, rng.random()])
            rows[ctx] = {dom[0]: p, dom[1]: 1.0 - p}
        rules[d] = Cpd(d, m.parents[d], rows)
    return rules


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=4),
       st.booleans())
def test_trees_price_as_the_diagram_bit_for_bit(seed, n_chance, d2_sees_d1):
    # Every decision follows every chance variable in the sweep order, and
    # each agent owns one utility: the sweep's weight is the leaf's chance
    # weight times its decision entries, operand for operand.
    rng = random.Random(seed)
    m = generators.random_base_game(rng, n_chance, 1, 1, d2_sees_d1=d2_sees_d1)
    assert list(maid._sweep_order(m))[-2:] == ["D1", "D2"]
    rules = _mixed_profile(m, rng)
    g, _ = efg.maid2efg(m)
    sigma = efg.strategy_from_policy(m, g, rules)
    eus = maid.expected_utilities(m, rules)
    for agent in m.agents:
        assert efg.efg_expected_utility(g, sigma, agent) == eus[agent]
