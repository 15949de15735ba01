import pytest

from iimaid import efg, maid
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
