import pytest

from iimaid import bn, efg, fixtures, maid
from iimaid.bn import Cpd
from iimaid.errors import MissingRule, NonTopologicalOrder, ValidationError
from iimaid.fixtures import always_low_deploy_low_rules, truthful_match_rules
from tests.test_maid import forgetful_maid


def leaves(g):
    return [n for n in g.nodes if n.kind == "leaf"]


def test_tree_shape(honesty, capability):
    for m in (honesty, capability):
        g, _ = efg.maid2efg(m)
        assert len(g.nodes) == 15
        assert len(leaves(g)) == 8
        assert g.nodes[g.root].kind == "chance"
        assert g.nodes[g.root].var == "C"


def test_full_observation_gives_singleton_info_sets(honesty):
    g, _ = efg.maid2efg(honesty)
    a_sets = efg.info_sets(g, "A")
    h_sets = efg.info_sets(g, "H")
    assert len(a_sets) == 2 and all(len(v) == 1 for v in a_sets.values())
    assert len(h_sets) == 4 and all(len(v) == 1 for v in h_sets.values())


def test_hidden_state_pools_info_sets(capability):
    g, _ = efg.maid2efg(capability)
    assert efg.info_sets(g, "A") == {
        ("D_A", ("high",)): [6],
        ("D_A", ("low",)): [13],
    }
    assert efg.info_sets(g, "H") == {
        ("D_H", ("high",)): [2, 9],
        ("D_H", ("low",)): [5, 12],
    }


def test_context_map(capability):
    g, mu = efg.maid2efg(capability)
    assert mu[2] == {"C": "high", "D_A": "high"}
    assert mu[12] == {"C": "low", "D_A": "low"}
    assert set(mu) == set(range(len(g.nodes)))


def test_observation_positions(honesty, capability):
    g, _ = efg.maid2efg(capability)
    assert efg.observation_of(g, "H", ("D_H", ("high",))) == ((1, "high"),)
    assert efg.observation_of(g, "A", ("D_A", ("low",))) == ((0, "low"),)
    gh, _ = efg.maid2efg(honesty)
    assert efg.observation_of(gh, "H", ("D_H", ("high", "low"))) == (
        (0, "high"), (1, "low"))
    with pytest.raises(MissingRule):
        efg.observation_of(g, "H", ("D_H", ("nope",)))


def test_history_walks_to_root(capability):
    g, _ = efg.maid2efg(capability)
    assert efg.history(g, 2) == [(14, "high"), (6, "high")]
    assert efg.history(g, g.root) == []
    for nid in (len(g.nodes), 10**6, -1):
        with pytest.raises(ValidationError) as e:
            efg.history(g, nid)
        assert e.value.issues == [f"unknown-node: {nid}"]


@pytest.mark.parametrize("game", ["honesty", "capability"])
def test_utility_preserved_for_every_pure_profile(game, request):
    m = request.getfixturevalue(game)
    g, _ = efg.maid2efg(m)
    for rules in maid.iter_pure_rules(m, m.decisions()):
        sigma = efg.strategy_from_policy(m, g, rules)
        for agent in m.agents:
            assert efg.efg_expected_utility(g, sigma, agent) == pytest.approx(
                maid.expected_utility(m, rules, agent), abs=1e-9)


def test_utility_preserved_with_stochastic_profile(honesty):
    g, _ = efg.maid2efg(honesty)
    rules = {"D_A": maid.uniform_rule(honesty, "D_A"),
             "D_H": truthful_match_rules()["D_H"]}
    sigma = efg.strategy_from_policy(honesty, g, rules)
    for agent in honesty.agents:
        assert efg.efg_expected_utility(g, sigma, agent) == pytest.approx(
            maid.expected_utility(honesty, rules, agent), abs=1e-9)


def test_a_rule_entry_below_zero_is_skipped_by_the_diagram_and_the_tree(honesty):
    # ``bn.is_distribution`` accepts an entry down to -TOL, and every reader
    # counts an entry only when it is > 0.0, so the diagram, the tree and
    # the equilibrium check price this valid rule alike.
    d = truthful_match_rules()["D_A"]
    rows = {ctx: {a: 1 + 5e-10 if p == 1.0 else -5e-10 for a, p in row.items()}
            for ctx, row in d.rows.items()}
    rules = {**truthful_match_rules(), "D_A": Cpd("D_A", d.parents, rows)}
    g, _ = efg.maid2efg(honesty)
    sigma = efg.strategy_from_policy(honesty, g, rules)
    eus = maid.expected_utilities(honesty, rules)
    assert eus["A"] == pytest.approx(1 + 5e-10, abs=1e-15)
    for agent in honesty.agents:
        assert efg.efg_expected_utility(g, sigma, agent) == pytest.approx(
            eus[agent], abs=1e-15)
    ok, regrets = maid.is_nash(honesty, rules)
    assert ok and regrets["A"] == pytest.approx(-5e-10, abs=1e-15)


def test_explicit_order_matches_default_values(capability):
    g1, _ = efg.maid2efg(capability)
    g2, _ = efg.maid2efg(capability, order=["C", "D_A", "D_H"])
    rules = dict(always_low_deploy_low_rules())
    for agent in capability.agents:
        u1 = efg.efg_expected_utility(g1, efg.strategy_from_policy(capability, g1, rules), agent)
        u2 = efg.efg_expected_utility(g2, efg.strategy_from_policy(capability, g2, rules), agent)
        assert u1 == pytest.approx(u2, abs=1e-9)


def test_non_topological_order_rejected(capability):
    with pytest.raises(NonTopologicalOrder):
        efg.maid2efg(capability, order=["C", "D_H", "D_A"])
    with pytest.raises(NonTopologicalOrder):
        efg.maid2efg(capability, order=["C", "D_A"])


def test_perfect_recall_on_trees(honesty, capability):
    for m in (honesty, capability):
        g, _ = efg.maid2efg(m)
        assert efg.has_perfect_recall_efg(g, "A")
        assert efg.has_perfect_recall_efg(g, "H")


def test_imperfect_recall_detected_on_tree():
    m = forgetful_maid()
    g, _ = efg.maid2efg(m)
    assert not efg.has_perfect_recall_efg(g, "H")


def test_strategy_from_policy_keys(capability):
    g, _ = efg.maid2efg(capability)
    sigma = efg.strategy_from_policy(capability, g, always_low_deploy_low_rules())
    assert set(sigma) == {
        ("A", ("D_A", ("high",))), ("A", ("D_A", ("low",))),
        ("H", ("D_H", ("high",))), ("H", ("D_H", ("low",))),
    }
    assert sigma[("A", ("D_A", ("high",)))] == {"high": 0.0, "low": 1.0}


def stochastic_payoff_maid():
    """P acts on X; P's two utilities and Q's one spread their mass over
    several payoff labels, so each leaf payoff is a sum of products."""
    variables = [
        bn.chance("X", "ab"), bn.decision("D", "P", "lr"),
        bn.utility("U1", "P", {"lo": -0.7, "mid": 0.1, "hi": 1.3}),
        bn.utility("U2", "P", {"no": 0.0, "yes": 2.9}),
        bn.utility("V", "Q", {"lo": 0.3, "hi": 1.1}),
    ]
    edges = [("X", "D"), ("X", "U1"), ("D", "U1"), ("D", "U2"), ("X", "V")]
    cpds = [
        Cpd("X", (), {(): {"a": 0.3, "b": 0.7}}),
        Cpd("U1", ("D", "X"), {
            ("l", "a"): {"lo": 0.1, "mid": 0.2, "hi": 0.7},
            ("l", "b"): {"lo": 0.6, "mid": 0.3, "hi": 0.1},
            ("r", "a"): {"lo": 0.0, "mid": 1.0, "hi": 0.0},
            ("r", "b"): {"lo": 0.35, "mid": 0.45, "hi": 0.2},
        }),
        Cpd("U2", ("D",), {("l",): {"no": 0.9, "yes": 0.1}, ("r",): {"no": 0.3, "yes": 0.7}}),
        Cpd("V", ("X",), {("a",): {"lo": 0.7, "hi": 0.3}, ("b",): {"lo": 0.2, "hi": 0.8}}),
    ]
    return maid.Maid.build(("P", "Q"), variables, edges, cpds)


def _bundled_models():
    x = fixtures.evaluation_iimaid()
    stack = fixtures.evaluation_depth3_stack()
    return ([fixtures.honesty_evaluation(), fixtures.capability_evaluation()]
            + [x.models[sid].model for sid in sorted(x.models)]
            + [stack.nodes[n].model for n in sorted(stack.nodes)])


@pytest.mark.parametrize("m", [stochastic_payoff_maid()] + _bundled_models())
def test_leaf_payoffs_are_the_per_path_expected_payoffs(m):
    # Each leaf adds, per utility in name order, the utility's row at the
    # path's assignment weighted by its payoff values: the same sums, bit
    # for bit, as a per-leaf recomputation, whichever table they come from.
    base = maid.base_maid(m)
    g, mu = efg.maid2efg(m)
    for nid, node in enumerate(g.nodes):
        if node.kind != "leaf":
            continue
        want = dict.fromkeys(base.agents, 0.0)
        for u in base.utilities():
            var, row = base.variables[u], base.cpds[u].row_for(mu[nid])
            want[var.owner] += sum(var.values[lbl] * p for lbl, p in row.items())
        assert node.payoffs == want


def test_stochastic_utility_rows_give_fractional_leaf_payoffs():
    g, mu = efg.maid2efg(stochastic_payoff_maid())
    got = {(a["X"], a["D"]): g.nodes[nid].payoffs
           for nid, a in mu.items() if g.nodes[nid].kind == "leaf"}
    assert got[("a", "l")]["P"] == pytest.approx(-0.07 + 0.02 + 0.91 + 0.29)
    assert got[("b", "r")]["Q"] == pytest.approx(0.06 + 0.88)
    assert len({p["P"] for p in got.values()}) == 4


def _chance_chain(n, tail):
    """A tree of ``n`` chance nodes in a line: each goes on with 0.5 or
    stops at a leaf paying P 1.0; ``tail`` ends the line."""
    nodes = [tail, efg.EfgNode(kind="leaf", payoffs={"P": 1.0})]
    below = 0
    for i in range(n):
        nodes.append(efg.EfgNode(kind="chance", var=f"X{i}", edges=(
            ("go", below), ("stop", 1)), dist={"go": 0.5, "stop": 0.5}))
        below = len(nodes) - 1
    return efg.Efg(("P",), tuple(nodes), below)


def test_expected_utility_walks_a_chain_deeper_than_the_recursion_limit():
    g = _chance_chain(3000, efg.EfgNode(kind="leaf", payoffs={"P": 3.0}))
    want = 3.0
    for _ in range(3000):
        want = sum([0.5 * want, 0.5 * 1.0])
    assert efg.efg_expected_utility(g, {}, "P") == want


def test_missing_row_deep_in_a_chain_raises_when_reached():
    decision = efg.EfgNode(kind="decision", var="D", owner="P", iset=("D", ()),
                           edges=(("l", 1), ("r", 1)))
    g = _chance_chain(3000, decision)
    with pytest.raises(MissingRule, match="no strategy row for"):
        efg.efg_expected_utility(g, {}, "P")
    # a row that gives the whole mass to one edge walks only that edge
    strategy = {("P", ("D", ())): {"l": 0.0, "r": 1.0}}
    assert efg.efg_expected_utility(g, strategy, "P") == 1.0
