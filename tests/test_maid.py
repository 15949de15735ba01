import pytest

from iimaid import bn, efg, fixtures, gamedoc, maid
from iimaid.bn import Cpd
from iimaid.errors import SearchSpaceTooLarge, ValidationError
from iimaid.simulate import simulate
from iimaid.fixtures import (
    AI, AI_PAYOFF, CAPABILITY, DEPLOY, GO, HIGH, HUMAN, HUMAN_PAYOFF, LOW,
    REPORT, STOP, always_low_deploy_low_rules, always_low_match_rules,
    honesty_evaluation, truthful_match_rules,
)


def matching_pennies():
    variables = [
        bn.decision("D1", "P1", ("h", "t")),
        bn.decision("D2", "P2", ("h", "t")),
        bn.utility("U1", "P1", {"win": 1.0, "lose": -1.0}),
        bn.utility("U2", "P2", {"win": 1.0, "lose": -1.0}),
    ]
    edges = [("D1", "U1"), ("D2", "U1"), ("D1", "U2"), ("D2", "U2")]
    cpds = [
        bn.tabulate("U1", ("lose", "win"), {"D1": ("h", "t"), "D2": ("h", "t")},
                    lambda c: "win" if c["D1"] == c["D2"] else "lose"),
        bn.tabulate("U2", ("lose", "win"), {"D1": ("h", "t"), "D2": ("h", "t")},
                    lambda c: "lose" if c["D1"] == c["D2"] else "win"),
    ]
    return maid.Maid.build(("P1", "P2"), variables, edges, cpds)


def test_expected_utilities_truthful_match(honesty):
    eus = maid.expected_utilities(honesty, truthful_match_rules())
    assert eus == pytest.approx({AI: 1.0, HUMAN: 1.0})


def test_expected_utilities_always_low_match(honesty):
    eus = maid.expected_utilities(honesty, always_low_match_rules())
    assert eus[AI] == pytest.approx(0.8)
    assert eus[HUMAN] == pytest.approx(0.9)


def test_expected_utilities_capability(capability):
    eus = maid.expected_utilities(capability, always_low_deploy_low_rules())
    assert eus == pytest.approx({AI: 1.0, HUMAN: 0.4})


def test_best_response_vs_truthful(capability):
    rules = truthful_match_rules()
    others = {REPORT: rules[REPORT]}
    br, value = maid.best_response(capability, others, HUMAN)
    assert value == pytest.approx(0.9)
    row_high = br[DEPLOY].rows[(HIGH,)]
    row_low = br[DEPLOY].rows[(LOW,)]
    assert row_high[STOP] == 1.0
    assert row_low[GO] == 1.0


def test_best_response_vs_always_low_keeps_first_max(capability):
    others = {REPORT: always_low_deploy_low_rules()[REPORT]}
    br, value = maid.best_response(capability, others, HUMAN)
    assert value == pytest.approx(0.4)
    assert br[DEPLOY].rows[(LOW,)][GO] == 1.0
    # the high-report context is unreachable, so the first candidate wins the tie
    assert br[DEPLOY].rows[(HIGH,)][GO] == 1.0


def test_is_nash_accepts_equilibria(honesty, capability):
    ok, regrets = maid.is_nash(honesty, truthful_match_rules())
    assert ok and regrets == pytest.approx({AI: 0.0, HUMAN: 0.0})
    ok, regrets = maid.is_nash(capability, always_low_deploy_low_rules())
    assert ok and regrets == pytest.approx({AI: 0.0, HUMAN: 0.0})


def test_is_nash_rejects_always_low_match(honesty):
    ok, regrets = maid.is_nash(honesty, always_low_match_rules())
    assert not ok
    assert regrets[AI] == pytest.approx(0.2)
    assert regrets[HUMAN] == pytest.approx(0.0)


def test_find_pure_nash_counts(honesty, capability):
    ne_h = maid.find_pure_nash(honesty)
    ne_a = maid.find_pure_nash(capability)
    assert len(ne_h) == 9
    assert len(ne_a) == 4
    for eq in ne_h:
        assert maid.is_nash(honesty, eq)[0]
    for eq in ne_a:
        assert maid.is_nash(capability, eq)[0]


def contexts_of(rule):
    return {ctx: max(row, key=row.get) for ctx, row in rule.rows.items()}


def test_find_pure_nash_contains_known_profiles(honesty, capability):
    tm = truthful_match_rules()
    found = [eq for eq in maid.find_pure_nash(honesty)
             if all(contexts_of(eq[d]) == contexts_of(tm[d]) for d in tm)]
    assert len(found) == 1
    al = always_low_deploy_low_rules()
    found = [eq for eq in maid.find_pure_nash(capability)
             if all(contexts_of(eq[d]) == contexts_of(al[d]) for d in al)]
    assert len(found) == 1


def test_matching_pennies_has_no_pure_nash():
    assert maid.find_pure_nash(matching_pennies()) == []


def test_nash_invariant_under_positive_affine_payoffs(honesty):
    scaled = {}
    for name, var in honesty.variables.items():
        if var.kind == "utility" and var.owner == AI:
            scaled[name] = bn.utility(name, AI,
                                      {k: 2.0 * v + 3.0 for k, v in var.values.items()})
    variables = [scaled.get(n, v) for n, v in honesty.variables.items()]
    edges = [(u, v) for v in honesty.variables for u in honesty.parents[v]]
    m2 = maid.Maid.build(honesty.agents, variables, edges, honesty.cpds.values())

    ok, _ = maid.is_nash(m2, truthful_match_rules())
    assert ok
    ok, regrets = maid.is_nash(m2, always_low_match_rules())
    assert not ok
    assert regrets[AI] == pytest.approx(2.0 * 0.2)

    def key(eq):
        return tuple((d, tuple(sorted(contexts_of(eq[d]).items()))) for d in sorted(eq))

    ids_orig = {key(eq) for eq in maid.find_pure_nash(honesty)}
    ids_scaled = {key(eq) for eq in maid.find_pure_nash(m2)}
    assert ids_orig == ids_scaled


def test_perfect_recall(honesty, capability):
    for m in (honesty, capability):
        ok, order = maid.has_perfect_recall(m, HUMAN)
        assert ok and order is not None
        assert maid.has_perfect_recall(m, AI)[0]


def forgetful_maid():
    # H acts twice; the second decision observes neither the first nor its context
    variables = [
        bn.chance("X", ("a", "b")),
        bn.decision("D1", "H", ("l", "r")),
        bn.decision("D2", "H", ("l", "r")),
        bn.utility("U", "H", {"z": 0.0, "o": 1.0}),
    ]
    edges = [("X", "D1"), ("D1", "U"), ("D2", "U")]
    cpds = [
        Cpd("X", (), {(): {"a": 0.5, "b": 0.5}}),
        bn.tabulate("U", ("z", "o"), {"D1": ("l", "r"), "D2": ("l", "r")},
                    lambda c: "o" if c["D1"] == c["D2"] else "z"),
    ]
    return maid.Maid.build(("H",), variables, edges, cpds)


def test_imperfect_recall_detected():
    ok, order = maid.has_perfect_recall(forgetful_maid(), "H")
    assert not ok and order is None


def test_imperfect_recall_best_response_enumerates_under_the_cap():
    m = forgetful_maid()
    assert maid.count_pure_policies(m, m.decisions("H")) == 8
    with pytest.raises(SearchSpaceTooLarge):
        maid.best_response(m, {}, "H", cap=7)
    rules, value = maid.best_response(m, {}, "H", cap=8)
    assert (rules, value) == maid._best_response_exhaustive(m, {}, "H")
    assert value == pytest.approx(1.0)


def test_cap_bounds_only_the_exhaustive_fallback(capability):
    others = {REPORT: truthful_match_rules()[REPORT]}
    _, value = maid.best_response(capability, others, HUMAN, cap=1)
    assert value == pytest.approx(0.9)


def test_count_pure_policies(honesty, capability):
    assert maid.count_pure_policies(honesty, honesty.decisions()) == 64
    assert maid.count_pure_policies(capability, capability.decisions()) == 16


def test_iter_pure_rules_cap():
    m = honesty_evaluation()
    with pytest.raises(SearchSpaceTooLarge):
        list(maid.iter_pure_rules(m, m.decisions(), cap=10))


def test_near_tie_regret_is_negative_within_tol_and_the_searches_agree():
    # b pays 5e-10 more than a: both searches take a, the first action
    # within TOL of the best (maid._first_max)
    variables = [bn.decision("D", "P", ("a", "b")),
                 bn.utility("U", "P", {"lo": 1.0, "hi": 1.0 + 5e-10})]
    cpds = [bn.tabulate("U", ("hi", "lo"), {"D": ("a", "b")},
                        lambda c: "hi" if c["D"] == "b" else "lo")]
    m = maid.Maid.build(("P",), variables, [("D", "U")], cpds)
    ok, regrets = maid.is_nash(m, {"D": maid.decision_rule(m, "D", lambda c: "b")})
    assert ok and -bn.TOL <= regrets["P"] < 0.0
    fast, fast_value = maid.best_response(m, {}, "P")
    oracle, oracle_value = maid._best_response_exhaustive(m, {}, "P")
    assert fast == oracle
    assert fast["D"].rows == {(): {"a": 1.0, "b": 0.0}}
    assert fast_value == oracle_value == 1.0


def test_post_policy_maid(capability):
    xi = {REPORT: always_low_deploy_low_rules()[REPORT]}
    fixed = maid.PostPolicyMaid(capability, xi)
    assert maid.free_decisions(fixed) == [DEPLOY]
    assert dict(maid.fixed_rules(fixed)) == xi
    assert maid.base_maid(fixed) is capability
    eus = maid.expected_utilities(fixed, {DEPLOY: always_low_deploy_low_rules()[DEPLOY]})
    assert eus == pytest.approx({AI: 1.0, HUMAN: 0.4})


def test_expected_utilities_requires_all_rules(honesty):
    with pytest.raises(Exception):
        maid.expected_utilities(honesty, {REPORT: truthful_match_rules()[REPORT]})


def test_uniform_and_decision_rule(honesty):
    u = maid.uniform_rule(honesty, REPORT)
    assert all(row == {HIGH: 0.5, LOW: 0.5} for row in u.rows.values())
    r = maid.decision_rule(honesty, DEPLOY, lambda ctx: GO)
    assert all(row[GO] == 1.0 for row in r.rows.values())


def test_utility_leaf_validation():
    variables = [
        bn.decision("D", "P1", ("l", "r")),
        bn.utility("U", "P1", {"z": 0.0, "o": 1.0}),
        bn.chance("X", ("a", "b")),
    ]
    edges = [("D", "U"), ("U", "X")]
    cpds = [
        bn.tabulate("U", ("z", "o"), {"D": ("l", "r")},
                    lambda c: "o" if c["D"] == "l" else "z"),
        Cpd("X", ("U",), {("z",): {"a": 1.0, "b": 0.0}, ("o",): {"a": 0.0, "b": 1.0}}),
    ]
    with pytest.raises(ValidationError):
        maid.Maid.build(("P1",), variables, edges, cpds)


def test_induced_network_marginals(honesty):
    net = maid.induced_network(honesty, truthful_match_rules())
    dist = bn.marginal(net, [DEPLOY])
    assert dist[(GO,)] == pytest.approx(1.0)


def test_committed_rules_are_read_only(capability):
    xi = {REPORT: always_low_deploy_low_rules()[REPORT]}
    fixed = maid.PostPolicyMaid(capability, xi)
    with pytest.raises(TypeError):
        fixed.assigned[REPORT] = truthful_match_rules()[REPORT]
    xi[REPORT] = truthful_match_rules()[REPORT]  # the caller's mapping was copied
    assert fixed.assigned[REPORT] == always_low_deploy_low_rules()[REPORT]
    assert fixed == maid.PostPolicyMaid(
        capability, {REPORT: always_low_deploy_low_rules()[REPORT]})
    assert gamedoc.serialize_document(fixtures.evaluation_depth3_stack()) == (
        fixtures.data_text("evaluation_game_depth3.stack.json"))


def _report_committed_low(honesty):
    """The honesty game with the AI's report committed to low."""
    return maid.PostPolicyMaid(
        honesty, {REPORT: maid.decision_rule(honesty, REPORT, lambda ctx: LOW)})


def test_a_rule_for_a_committed_decision_is_rejected(honesty):
    # A caller's rule for D_A would otherwise be laid over the commitment:
    # the truthful profile then priced 1.0 for both agents, not 0.8 and 0.9.
    committed = _report_committed_low(honesty)
    rules = truthful_match_rules()
    calls = [
        lambda: maid.expected_utilities(committed, rules),
        lambda: maid.is_nash(committed, rules),
        lambda: maid.best_response(committed, rules, HUMAN),
        lambda: maid.best_response(committed, rules, AI),
        lambda: maid.decision_values(committed, rules, DEPLOY, HUMAN),
        lambda: maid.induced_network(committed, rules),
        lambda: simulate(committed, rules, 10, 0),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.issues == [f"committed-decision: {REPORT}"]


def test_a_committed_decision_prices_alike_on_the_diagram_and_the_tree(honesty):
    committed = _report_committed_low(honesty)
    rules = {DEPLOY: truthful_match_rules()[DEPLOY]}
    eus = maid.expected_utilities(committed, rules)
    assert eus == pytest.approx({AI: 0.8, HUMAN: 0.9}, abs=1e-12)
    g, _ = efg.maid2efg(committed)
    sigma = efg.strategy_from_policy(honesty, g, rules)
    for agent in honesty.agents:
        assert efg.efg_expected_utility(g, sigma, agent) == pytest.approx(eus[agent], abs=1e-12)


def test_agent_with_no_free_decision_has_no_regret(capability):
    rules = always_low_deploy_low_rules()
    committed = maid.PostPolicyMaid(capability, {REPORT: rules[REPORT]})
    others = {DEPLOY: rules[DEPLOY]}
    assert maid.best_response(committed, others, AI) == (
        {}, maid.expected_utilities(committed, others)[AI])
    ok, regrets = maid.is_nash(committed, others)
    assert ok and regrets[AI] == 0.0


@pytest.fixture
def work(monkeypatch):
    """Counts of ``bn.sweep`` and ``maid._expected_utilities`` calls."""
    counts = {"sweep": 0, "expected_utilities": 0}

    def counted(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(bn, "sweep", counted("sweep", bn.sweep))
    monkeypatch.setattr(maid, "_expected_utilities",
                        counted("expected_utilities", maid._expected_utilities))
    return counts


@pytest.mark.parametrize("game, profile", [
    (honesty_evaluation, truthful_match_rules),
    (honesty_evaluation, always_low_match_rules),
    (fixtures.capability_evaluation, always_low_deploy_low_rules),
])
def test_equilibrium_checks_sweep_once_per_decision(work, game, profile):
    """Both agents act once, so each check prices every value off one
    Q-table per agent and never recomputes expected utilities."""
    m, rules = game(), profile()
    maid.is_nash(m, rules)
    assert work == {"sweep": 2, "expected_utilities": 0}
    work["sweep"] = 0
    maid.best_response(m, {DEPLOY: rules[DEPLOY]}, AI)
    assert work == {"sweep": 1, "expected_utilities": 0}


@pytest.mark.parametrize("game, profile", [
    (honesty_evaluation, truthful_match_rules),
    (fixtures.capability_evaluation, always_low_deploy_low_rules),
])
def test_equilibrium_checks_build_no_best_response_rule(monkeypatch, game, profile):
    """A single-decision agent's best value is read off its Q-table, so the
    checks tabulate no rule; ``best_response`` still returns one."""
    built = []
    real = maid.decision_rule

    def counted(*args):
        built.append(args[1])
        return real(*args)

    # made first: validating a diagram tabulates a uniform rule per decision
    m, rules = game(), profile()
    monkeypatch.setattr(maid, "decision_rule", counted)
    maid.is_nash(m, rules)
    maid.find_pure_nash(m)
    assert built == []
    maid.best_response(m, {DEPLOY: rules[DEPLOY]}, AI)
    assert built == [REPORT]


def test_find_pure_nash_sweeps_once_per_opponent_choice(work, honesty):
    # 64 profiles; 16 choices of H's rule and 4 of A's, one sweep each
    assert len(maid.find_pure_nash(honesty)) == 9
    assert work == {"sweep": 20, "expected_utilities": 0}


def test_agent_with_no_free_decision_costs_no_sweep(work, capability):
    rules = always_low_deploy_low_rules()
    committed = maid.PostPolicyMaid(capability, {REPORT: rules[REPORT]})
    # H's one Q-table prices both of H's values; A's regret is 0.0 unpriced
    ok, regrets = maid.is_nash(committed, {DEPLOY: rules[DEPLOY]})
    assert ok and list(regrets) == [AI, HUMAN] and regrets[AI] == 0.0
    assert work == {"sweep": 1, "expected_utilities": 0}
    work["sweep"] = 0
    # 4 pure rules for D_H against the one committed D_A, which never
    # reports high, so H's action there is free
    found = maid.find_pure_nash(committed)
    assert len(found) == 2 and {DEPLOY: rules[DEPLOY]} in found
    assert work == {"sweep": 1, "expected_utilities": 0}
