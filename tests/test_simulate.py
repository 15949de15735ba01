import math

import pytest

from iimaid import bn, maid
from iimaid.fixtures import always_low_match_rules, truthful_match_rules
from iimaid.simulate import simulate


def test_constant_payoff_game_has_zero_stderr(honesty):
    report = simulate(honesty, truthful_match_rules(), rollouts=500, seed=3)
    assert report.means == pytest.approx({"A": 1.0, "H": 1.0})
    assert report.stderrs == pytest.approx({"A": 0.0, "H": 0.0})


def test_means_track_exact_values(honesty):
    rules = always_low_match_rules()
    exact = maid.expected_utilities(honesty, rules)
    report = simulate(honesty, rules, rollouts=20_000, seed=11)
    for agent in honesty.agents:
        se = report.stderrs[agent]
        assert se > 0
        assert abs(report.means[agent] - exact[agent]) < 4 * se


def test_stderr_scale(honesty):
    # A's payoff under always-low reporting is a +-1 coin with p(high)=0.1
    rules = always_low_match_rules()
    report = simulate(honesty, rules, rollouts=40_000, seed=5)
    expected_se = math.sqrt(0.36) / math.sqrt(40_000)
    assert report.stderrs["A"] == pytest.approx(expected_se, rel=0.15)


def test_seed_determinism(honesty):
    rules = always_low_match_rules()
    a = simulate(honesty, rules, rollouts=2_000, seed=42)
    b = simulate(honesty, rules, rollouts=2_000, seed=42)
    c = simulate(honesty, rules, rollouts=2_000, seed=43)
    assert a == b
    assert a.means != c.means


def test_report_metadata(honesty):
    report = simulate(honesty, truthful_match_rules(), rollouts=10, seed=0)
    assert report.agents == ("A", "H")
    assert report.rollouts == 10
    assert report.seed == 0


def test_single_rollout_has_no_stderr(honesty):
    report = simulate(honesty, always_low_match_rules(), rollouts=1, seed=0)
    assert report.stderrs == {"A": None, "H": None}


def _offset_payoffs(m, offset):
    variables = [
        bn.utility(v.name, v.owner, {k: x + offset for k, x in v.values.items()})
        if v.kind == "utility" else v
        for v in m.variables.values()
    ]
    edges = [(u, w) for w in m.variables for u in m.parents[w]]
    return maid.Maid.build(m.agents, variables, edges, m.cpds.values())


def test_stderr_survives_a_large_mean(honesty):
    # the spread is that of a +-1 coin; adding 1e8 to every payoff must not
    # change it, though E[x^2] - mean^2 cancels to noise at that scale
    rules = always_low_match_rules()
    plain = simulate(honesty, rules, rollouts=5_000, seed=7)
    shifted = simulate(_offset_payoffs(honesty, 1e8), rules, rollouts=5_000, seed=7)
    for agent in honesty.agents:
        assert shifted.means[agent] == pytest.approx(plain.means[agent] + 1e8, abs=1e-6)
        assert shifted.stderrs[agent] == pytest.approx(plain.stderrs[agent], rel=1e-6)
        assert plain.stderrs[agent] > 0
