"""End-to-end acceptance gate.

One test per criterion, each with its pinned tolerance and runtime budget.
The random-stack check (criterion 8) compares the layered solver against an
independent brute-force oracle that enumerates joint assignments directly.
"""
import random
import time
from itertools import product

import pytest

from iimaid import bn, depth as dp, efg, iiefg, incomplete as inc, maid
from iimaid.bn import Cpd
from iimaid.depth import DepthStack
from iimaid.fixtures import (
    always_low_deploy_low_rules, always_low_match_rules, capability_evaluation,
    evaluation_depth3_stack, evaluation_iimaid, honesty_evaluation,
    ne_ii_profile, truthful_match_rules,
)
from iimaid.incomplete import InformationSet, SubjectiveMaid
from iimaid.simulate import simulate
from tests.test_incomplete import (
    iset_cap, iset_full, iset_report, random_common_prior_iimaid,
)

P1, P2 = "P1", "P2"


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def test_criterion_01_complete_information_nash():
    mh, ma = honesty_evaluation(), capability_evaluation()
    (ok_h, regrets_h), t_h = timed(maid.is_nash, mh, truthful_match_rules())
    (ok_a, regrets_a), t_a = timed(maid.is_nash, ma, always_low_deploy_low_rules())
    assert ok_h and ok_a
    assert all(r < 1e-9 for r in regrets_h.values())
    assert all(r < 1e-9 for r in regrets_a.values())
    assert t_h < 0.1 and t_a < 0.1


def test_criterion_02_non_equilibrium_detection():
    mh = honesty_evaluation()
    (ok, regrets), t = timed(maid.is_nash, mh, always_low_match_rules())
    assert not ok
    assert regrets["A"] == pytest.approx(0.2, abs=1e-9)
    assert t < 0.1


def test_criterion_03_consistency():
    start = time.perf_counter()
    rep = inc.check_consistency(evaluation_iimaid())
    assert rep.eq_feasible
    assert rep.sample["ground_truth"] == pytest.approx(0.0, abs=1e-9)
    assert rep.mass_bounds["ground_truth"] == pytest.approx((0.0, 0.0), abs=1e-9)
    assert rep.strongly_consistent is False

    hits = 0
    for seed in range(100):
        x = random_common_prior_iimaid(seed)
        r = inc.check_consistency(x)
        hits += bool(r.eq_feasible and r.strongly_consistent)
    assert hits == 100
    assert time.perf_counter() - start < 2.0


def test_criterion_04_information_set_counts():
    x = evaluation_iimaid()
    sets_a, t_a = timed(inc.information_sets, x, "A")
    sets_h, t_h = timed(inc.information_sets, x, "H")
    assert len(sets_a) == 2
    assert len(sets_h) == 6
    assert t_a < 0.1 and t_h < 0.1


def test_criterion_05_subjective_nash():
    x = evaluation_iimaid()
    profile = ne_ii_profile()
    (ok, regrets), t1 = timed(inc.is_nash_ii, x, profile, tol=1e-6)
    assert ok
    assert all(r < 1e-6 for r in regrets.values())

    mutated = dict(profile)
    mutated[iset_cap("high")] = {"high": 1.0, "low": 0.0}
    mutated[iset_cap("low")] = {"high": 0.0, "low": 1.0}
    mutated[iset_report("H", "high")] = {"deploy": 0.0, "not_deploy": 1.0}
    mutated[iset_report("H", "low")] = {"deploy": 1.0, "not_deploy": 0.0}
    (ok, regrets), t2 = timed(inc.is_nash_ii, x, mutated, tol=1e-6)
    assert not ok
    assert regrets["A"] == pytest.approx(0.2, abs=1e-6)
    assert t1 + t2 < 1.0


def test_criterion_06_tree_equivalence():
    x = evaluation_iimaid()
    start = time.perf_counter()
    conv = iiefg.maid2efgII(x)
    ok, worst = iiefg.verify_equivalence(x, conv, tol=1e-9)
    assert ok
    assert worst < 1e-9

    corrupted = dict(conv.correspondence)
    a, b = iset_full("high", "high"), iset_full("low", "high")
    corrupted[a], corrupted[b] = corrupted[b], corrupted[a]
    ok, worst = iiefg.verify_equivalence(x, iiefg.IiConversion(conv.game, corrupted))
    assert not ok
    assert worst >= 0.1
    assert time.perf_counter() - start < 5.0


def test_criterion_07_recursive_best_response():
    stack = evaluation_depth3_stack()
    res, t = timed(dp.recursive_best_response, stack)

    by_set = {(k.agent, k.observation): max(row, key=row.get)
              for k, row in res.profile.items()}
    assert by_set == {
        ("A", (("C", "high"),)): "low",
        ("A", (("C", "low"),)): "low",
        ("H", (("C", "high"), ("D_A", "high"))): "deploy",
        ("H", (("C", "high"), ("D_A", "low"))): "not_deploy",
        ("H", (("C", "low"), ("D_A", "high"))): "not_deploy",
        ("H", (("C", "low"), ("D_A", "low"))): "deploy",
        ("H", (("D_A", "high"),)): "not_deploy",
        ("H", (("D_A", "low"),)): "deploy",
    }
    assert len(res.trace) == 8
    assert dp.audit_trace(stack, res) == []
    eus = maid.expected_utilities(res.final.nodes[res.final.objective].model, {})
    assert eus["A"] == pytest.approx(0.8, abs=1e-9)
    assert eus["H"] == pytest.approx(0.9, abs=1e-9)
    assert t < 1.0


# ---------------------------------------------------------------- criterion 8


def random_base_game(rng):
    n_chance = rng.randint(1, 3)
    chance_names = [f"X{i}" for i in range(n_chance)]
    variables = [bn.chance(x, ("a", "b")) for x in chance_names]
    edges = []
    cpds = []
    for i, x in enumerate(chance_names):
        pa = [chance_names[j] for j in range(i) if rng.random() < 0.4]
        edges += [(p, x) for p in pa]
        rows = {}
        for ctx in product(*(("a", "b") for _ in pa)):
            p = rng.uniform(0.05, 0.95)
            rows[ctx] = {"a": p, "b": 1.0 - p}
        cpds.append(Cpd(x, tuple(sorted(pa)), rows))
    d1_pa = sorted(x for x in chance_names if rng.random() < 0.6)
    d2_pa = sorted(x for x in chance_names if rng.random() < 0.6)
    variables.append(bn.decision("D1", P1, ("l", "r")))
    variables.append(bn.decision("D2", P2, ("l", "r")))
    edges += [(p, "D1") for p in d1_pa] + [(p, "D2") for p in d2_pa]
    u_pa = ("D1", "D2", chance_names[0])
    labels = tuple(f"v{j}" for j in range(8))
    for name, owner in (("U1", P1), ("U2", P2)):
        values = {}
        rows = {}
        for j, ctx in enumerate(product(("l", "r"), ("l", "r"), ("a", "b"))):
            # coarse grid payoffs invite ties, exercising the tie normalization
            values[labels[j]] = rng.randrange(-8, 9) * 0.25
            rows[ctx] = bn.point_row(labels, labels[j])
        variables.append(bn.utility(name, owner, values))
        edges += [(p, name) for p in u_pa]
        cpds.append(Cpd(name, u_pa, rows))
    return maid.Maid.build((P1, P2), variables, edges, cpds)


def random_pure_rule(m, d, rng):
    pa = m.parents[d]
    dom = m.variables[d].domain
    rows = {ctx: bn.point_row(dom, rng.choice(dom))
            for ctx in product(*(m.variables[p].domain for p in pa))}
    return Cpd(d, pa, rows)


def random_depth2_stack(seed):
    rng = random.Random(seed)
    m = random_base_game(rng)
    xi1 = random_pure_rule(m, "D1", rng)
    xi2 = random_pure_rule(m, "D2", rng)
    return DepthStack((P1, P2), "root", {
        "root": SubjectiveMaid("root", m, {P1: {"p1_view": 1.0},
                                           P2: {"p2_view": 1.0}}),
        "p1_view": SubjectiveMaid("p1_view", m, {P2: {"p2_inner": 1.0}}),
        "p2_view": SubjectiveMaid("p2_view", m, {P1: {"p1_inner": 1.0}}),
        "p2_inner": SubjectiveMaid(
            "p2_inner", maid.PostPolicyMaid(m, {"D1": xi1}), {}),
        "p1_inner": SubjectiveMaid(
            "p1_inner", maid.PostPolicyMaid(m, {"D2": xi2}), {}),
    })


def enumerate_joint(m, rules):
    """Direct product-of-rows enumeration, independent of the library's inference."""
    order = bn.topo_sort({n: m.parents[n] for n in m.variables})

    def rec(i, acc, p):
        if p <= 0.0:
            return
        if i == len(order):
            yield dict(acc), p
            return
        v = order[i]
        row = rules[v].row_for(acc) if v in rules else m.cpds[v].row_for(acc)
        for label, q in row.items():
            acc[v] = label
            yield from rec(i + 1, acc, p * q)
            del acc[v]

    yield from rec(0, {}, 1.0)


def oracle_conditional(m, env, agent, ctx_map, decision, action):
    rules = dict(env)
    dom = m.variables[decision].domain
    rules[decision] = Cpd(decision, m.parents[decision], {
        c: bn.point_row(dom, action)
        for c in product(*(m.variables[p].domain for p in m.parents[decision]))})
    mass = gain = 0.0
    payoff_vars = m.utilities(agent)
    for a, p in enumerate_joint(m, rules):
        if all(a[k] == v for k, v in ctx_map.items()):
            mass += p
            gain += p * sum(m.variables[u].values[a[u]] for u in payoff_vars)
    return gain / mass


def oracle_argmax_rule(m, env, agent, decision, tol=1e-9):
    dom = m.variables[decision].domain
    pa = m.parents[decision]
    rows = {}
    for ctx in product(*(m.variables[p].domain for p in pa)):
        ctx_map = dict(zip(pa, ctx))
        best, best_v = None, 0.0
        for action in dom:
            v = oracle_conditional(m, env, agent, ctx_map, decision, action)
            if best is None or v > best_v + tol:
                best, best_v = action, v
        rows[ctx] = bn.point_row(dom, best)
    return Cpd(decision, pa, rows)


def oracle_solve(stack):
    m = maid.base_maid(stack.nodes["root"].model)
    xi1 = maid.fixed_rules(stack.nodes["p2_inner"].model)["D1"]
    xi2 = maid.fixed_rules(stack.nodes["p1_inner"].model)["D2"]
    inner_d2 = oracle_argmax_rule(m, {"D1": xi1}, P2, "D2")
    inner_d1 = oracle_argmax_rule(m, {"D2": xi2}, P1, "D1")
    return {
        "D1": oracle_argmax_rule(m, {"D2": inner_d2}, P1, "D1"),
        "D2": oracle_argmax_rule(m, {"D1": inner_d1}, P2, "D2"),
    }


def normalized(rule):
    return {ctx: max(row, key=lambda a: (row[a], a))
            for ctx, row in sorted(rule.rows.items())}


def test_criterion_08_random_stacks_match_brute_force():
    start = time.perf_counter()
    for seed in range(50):
        stack = random_depth2_stack(seed)
        res = dp.recursive_best_response(stack)
        want = oracle_solve(stack)
        got = {d: normalized(c) for d, c in res.objective_rules.items()}
        assert got == {d: normalized(c) for d, c in want.items()}, f"seed {seed}"
    assert time.perf_counter() - start < 30.0


def test_criterion_09_equilibrium_search():
    x = evaluation_iimaid()
    sol = inc.find_nash_ii(x, tol=1e-6)
    assert sol is not None
    ok, _ = inc.is_nash_ii(x, sol, tol=1e-6)
    assert ok
    for m in (honesty_evaluation(), capability_evaluation()):
        found = maid.find_pure_nash(m, tol=1e-6)
        assert found
        ok, _ = maid.is_nash(m, found[0], tol=1e-6)
        assert ok


def test_criterion_10_monte_carlo_cross_check():
    cases = [
        (honesty_evaluation(), truthful_match_rules()),
        (honesty_evaluation(), always_low_match_rules()),
        (capability_evaluation(), always_low_deploy_low_rules()),
    ]
    for model, rules in cases:
        exact = maid.expected_utilities(model, rules)
        report = simulate(model, rules, rollouts=100_000, seed=17)
        again = simulate(model, rules, rollouts=100_000, seed=17)
        assert report == again
        for agent in model.agents:
            se = report.stderrs[agent]
            assert abs(report.means[agent] - exact[agent]) <= 4 * se + 1e-12
