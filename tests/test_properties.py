"""Randomized invariants over small two-agent games."""
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from iimaid import bn, efg, gamedoc, iiefg, incomplete, maid
from iimaid.bn import Cpd
from iimaid.errors import GameError, MissingRule, ValidationError
from iimaid.incomplete import IiMaid, SubjectiveMaid


@st.composite
def small_maid(draw):
    n_chance = draw(st.integers(min_value=0, max_value=2))
    chance_names = [f"X{i}" for i in range(n_chance)]
    variables = [bn.chance(x, ("a", "b")) for x in chance_names]
    edges = []
    cpds = []
    for x in chance_names:
        p = draw(st.integers(min_value=1, max_value=9)) / 10
        cpds.append(Cpd(x, (), {(): {"a": p, "b": 1.0 - p}}))
    d1_pa = tuple(x for x in chance_names if draw(st.booleans()))
    observed = draw(st.booleans())
    d2_pa = tuple(sorted((["D1"] if observed else [])
                         + [x for x in chance_names if draw(st.booleans())]))
    variables.append(bn.decision("D1", "P1", ("l", "r")))
    variables.append(bn.decision("D2", "P2", ("l", "r")))
    edges += [(p, "D1") for p in d1_pa] + [(p, "D2") for p in d2_pa]
    u_pa = ("D1", "D2") + (("X0",) if chance_names else ())
    labels = tuple(f"v{i}" for i in range(2 ** len(u_pa)))
    for name, owner in (("U1", "P1"), ("U2", "P2")):
        values = {}
        rows = {}
        for i, ctx in enumerate(product(*(["l", "r"], ["l", "r"], ["a", "b"])[:len(u_pa)])):
            values[labels[i]] = draw(st.integers(min_value=-4, max_value=4)) * 0.5
            rows[ctx] = bn.point_row(labels, labels[i])
        variables.append(bn.utility(name, owner, values))
        edges += [(p, name) for p in u_pa]
        cpds.append(Cpd(name, u_pa, rows))
    return maid.Maid.build(("P1", "P2"), variables, edges, cpds)


@st.composite
def maid_with_profile(draw):
    m = draw(small_maid())
    rules = {}
    for d in m.decisions():
        dom = m.variables[d].domain
        rows = {ctx: bn.point_row(dom, dom[draw(st.integers(0, 1))])
                for ctx in product(*(m.variables[p].domain for p in m.parents[d]))}
        rules[d] = Cpd(d, m.parents[d], rows)
    return m, rules


@settings(max_examples=30, deadline=None, derandomize=True)
@given(small_maid())
def test_document_round_trip_is_stable(m):
    text = gamedoc.serialize_document(m)
    reparsed = gamedoc.parse_document(text)
    assert gamedoc.serialize_document(reparsed.value) == text


@settings(max_examples=30, deadline=None, derandomize=True)
@given(maid_with_profile())
def test_tree_conversion_preserves_utilities(mp):
    m, rules = mp
    g, _ = efg.maid2efg(m)
    sigma = efg.strategy_from_policy(m, g, rules)
    for agent in m.agents:
        assert efg.efg_expected_utility(g, sigma, agent) == pytest.approx(
            maid.expected_utility(m, rules, agent), abs=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(maid_with_profile())
def test_best_response_dominates_every_pure_alternative(mp):
    m, rules = mp
    agent = "P1"
    others = {d: r for d, r in rules.items() if m.variables[d].owner != agent}
    mine = [d for d in m.decisions() if m.variables[d].owner == agent]
    _, value = maid.best_response(m, others, agent)
    for alt in maid.iter_pure_rules(m, mine):
        alt_value = maid.expected_utility(m, {**others, **alt}, agent)
        assert value >= alt_value - 1e-9


@settings(max_examples=15, deadline=None, derandomize=True)
@given(small_maid())
def test_pure_nash_results_are_sound(m):
    assume(maid.count_pure_policies(m, m.decisions()) <= 64)
    for eq in maid.find_pure_nash(m):
        ok, regrets = maid.is_nash(m, eq)
        assert ok, regrets


@settings(max_examples=20, deadline=None, derandomize=True)
@given(maid_with_profile(), st.integers(min_value=1, max_value=5),
       st.integers(min_value=-3, max_value=3))
def test_nash_verdict_invariant_under_affine_payoffs(mp, scale, shift):
    m, rules = mp
    variables = []
    for v in m.variables.values():
        if v.kind == "utility":
            variables.append(bn.utility(
                v.name, v.owner,
                {k: scale * val + shift for k, val in v.values.items()}))
        else:
            variables.append(v)
    edges = [(u, w) for w in m.variables for u in m.parents[w]]
    m2 = maid.Maid.build(m.agents, variables, edges, m.cpds.values())
    assert maid.is_nash(m, rules)[0] == maid.is_nash(m2, rules)[0]


# ------------------------------------------- best response vs. enumeration

PROBS = (0.0, 0.3, 0.5, 0.8, 1.0)   # 0 and 1 make some contexts unreachable


def _point_label(row):
    return max(row, key=row.get)


def _random_pure_rule(draw, m, d):
    dom = m.variables[d].domain
    return Cpd(d, m.parents[d], {
        ctx: bn.point_row(dom, draw(st.sampled_from(dom)))
        for ctx in product(*(m.variables[p].domain for p in m.parents[d]))})


def _payoff(name, owner, u_pa, draw):
    labels = tuple(f"v{i:02d}" for i in range(2 ** len(u_pa)))
    values, rows = {}, {}
    for i, ctx in enumerate(product(*(("a", "b") if p.startswith("X") else ("l", "r")
                                      for p in u_pa))):
        values[labels[i]] = draw(st.integers(min_value=-4, max_value=4)) * 0.5
        rows[ctx] = bn.point_row(labels, labels[i])
    return bn.utility(name, owner, values), [(p, name) for p in u_pa], Cpd(name, u_pa, rows)


def _chance_pair(draw):
    """X0 and X1 <- X0, with rows that may put zero mass on an outcome."""
    cpds = [Cpd("X0", (), {(): {"a": (p := draw(st.sampled_from(PROBS))), "b": 1.0 - p}})]
    cpds.append(Cpd("X1", ("X0",), {
        (x,): {"a": (p := draw(st.sampled_from(PROBS))), "b": 1.0 - p} for x in "ab"}))
    return [bn.chance("X0", "ab"), bn.chance("X1", "ab")], [("X0", "X1")], cpds


@st.composite
def recall_game_with_profile(draw):
    """A perfect-recall game and a pure profile.

    P1 owns D1 and, sometimes, a second decision that observes D1, all of
    D1's parents and possibly a chance variable D1 does not see.  It is
    named to sort before or after D1, so recall order and name order can
    disagree.  P2 owns D2, which may see D1, and is sometimes pre-committed
    through a PostPolicyMaid.
    """
    variables, edges, cpds = _chance_pair(draw)
    d1_pa = draw(st.sampled_from([(), ("X0",), ("X1",)]))
    second = draw(st.sampled_from([None, "C1", "E1"]))
    d2_pa = tuple(p for p in ("D1", "X0", "X1") if draw(st.booleans()))
    variables += [bn.decision("D1", "P1", "lr"), bn.decision("D2", "P2", "lr")]
    edges += [(p, "D1") for p in d1_pa] + [(p, "D2") for p in d2_pa]
    u_pa = ("D1", "D2", "X0")
    if second is not None:
        # at most 64 pure policies for P1, so the oracle stays cheap
        extra = () if d1_pa else draw(st.sampled_from([(), ("X0",), ("X1",)]))
        variables.append(bn.decision(second, "P1", "lr"))
        edges += [(p, second) for p in ("D1",) + d1_pa + extra]
        u_pa = tuple(sorted(u_pa + (second,)))
    for name, owner in (("U1", "P1"), ("U2", "P2")):
        var, u_edges, cpd = _payoff(name, owner, u_pa, draw)
        variables.append(var)
        edges += u_edges
        cpds.append(cpd)
    m = maid.Maid.build(("P1", "P2"), variables, edges, cpds)
    profile = {d: _random_pure_rule(draw, m, d) for d in m.decisions()}
    if draw(st.booleans()):
        return maid.PostPolicyMaid(m, {"D2": profile.pop("D2")}), profile
    return m, profile


def rounding_tie_game():
    """A game where P2's two actions are worth -0.2 each in exact arithmetic,
    and a profile playing l.  ``1.0 - 0.8`` rounds, so in floating point r
    is worth about 8e-17 more than l."""
    variables = [bn.chance("X0", "ab"), bn.decision("D1", "P1", "lr"),
                 bn.decision("D2", "P2", "lr"), bn.utility("U1", "P1", {"lo": 0.0, "hi": 1.0}),
                 bn.utility("U2", "P2", {"w": -1.0, "x": -0.5, "y": 0.0, "z": 1.0})]
    pays = {("l", "a"): "x", ("l", "b"): "z", ("r", "a"): "y", ("r", "b"): "w"}
    cpds = [Cpd("X0", (), {(): {"a": 0.8, "b": 1.0 - 0.8}}),
            bn.tabulate("U1", ("hi", "lo"), {"D1": "lr"}, lambda c: "hi" if c["D1"] == "r" else "lo"),
            bn.tabulate("U2", "wxyz", {"D2": "lr", "X0": "ab"}, lambda c: pays[c["D2"], c["X0"]])]
    edges = [("D1", "U1"), ("D2", "U2"), ("X0", "U2")]
    m = maid.Maid.build(("P1", "P2"), variables, edges, cpds)
    return m, {d: maid.decision_rule(m, d, lambda c: "l") for d in ("D1", "D2")}


def rounding_tie_ii_game():
    """``rounding_tie_game`` as two models that every agent believes equally,
    and a profile playing l."""
    m, _ = rounding_tie_game()
    beliefs = {agent: {"m0": 0.5, "m1": 0.5} for agent in ("P1", "P2")}
    x = IiMaid(("P1", "P2"), "m0", {mid: SubjectiveMaid(mid, m, beliefs) for mid in ("m0", "m1")})
    return x, {iset: bn.point_row(iset.actions, "l")
               for agent in x.agents for iset in incomplete.information_sets(x, agent)}


def _unique_best_actions(scored, slots, tol=bn.TOL):
    """Per slot, the action every policy beating all others by > tol takes.

    ``scored`` lists (slot -> action, value) pairs over every pure policy; a
    slot is decided when the best policy choosing some action beats every
    policy choosing another one by more than ``tol``.
    """
    decided = {}
    for slot in slots:
        best = {}
        for choice, value in scored:
            a = choice[slot]
            best[a] = max(best.get(a, value), value)
        top = max(best, key=best.get)
        if all(best[top] > v + tol for a, v in best.items() if a != top):
            decided[slot] = top
    return decided


@settings(max_examples=100, deadline=None, derandomize=True)
@given(recall_game_with_profile())
@example(rounding_tie_game())
def test_best_response_matches_exhaustive_enumeration(gp):
    model, profile = gp
    for agent in ("P1", "P2"):
        own = maid.free_decisions(model, agent)
        assert maid.has_perfect_recall(model, agent)[0]
        others = {d: r for d, r in profile.items() if d not in own}
        rules, value = maid.best_response(model, others, agent)
        oracle, oracle_value = maid._best_response_exhaustive(model, others, agent)
        assert abs(value - oracle_value) <= 1e-12
        # one selection rule (maid._first_max): with one free decision the
        # two searches return the same rule, also on ties up to rounding
        if len(own) == 1:
            assert rules == oracle
        assert sorted(rules) == own
        scored = [
            ({(d, ctx): _point_label(row) for d in own for ctx, row in cand[d].rows.items()},
             maid.expected_utility(model, {**others, **cand}, agent))
            for cand in maid.iter_pure_rules(model, own)
        ]
        slots = [(d, ctx) for d in own for ctx in rules[d].rows]
        for (d, ctx), action in _unique_best_actions(scored, slots).items():
            assert _point_label(rules[d].rows[ctx]) == action
        # contexts the returned profile never reaches take the least action
        for d in own:
            reached = maid.decision_values(model, {**others, **rules}, d, agent)
            for ctx, row in rules[d].rows.items():
                if ctx not in reached:
                    assert _point_label(row) == min(row)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(recall_game_with_profile(), st.data())
def test_decision_values_price_every_rule(gp, data):
    model, profile = gp
    m = maid.base_maid(model)
    for d in maid.free_decisions(model):
        dom = m.variables[d].domain
        rows = {}
        for ctx in product(*(m.variables[p].domain for p in m.parents[d])):
            p = data.draw(st.sampled_from(PROBS))
            rows[ctx] = {dom[0]: p, dom[1]: 1.0 - p}
        rule = Cpd(d, m.parents[d], rows)
        for agent in m.agents:
            q = maid.decision_values(model, profile, d, agent)
            priced = sum(rule.rows[ctx][a] * v for ctx, row in q.items() for a, v in row.items())
            want = maid.expected_utility(model, {**profile, d: rule}, agent)
            assert priced == pytest.approx(want, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(recall_game_with_profile())
def test_find_pure_nash_matches_is_nash_over_every_profile(gp):
    model, _ = gp
    decisions = maid.free_decisions(model)
    assume(maid.count_pure_policies(model, decisions) <= 128)
    oracle = [p for p in maid.iter_pure_rules(model, decisions) if maid.is_nash(model, p)[0]]
    assert maid.find_pure_nash(model) == oracle


def _eu_regrets(model, rules):
    """Regrets recomputed from scratch: achieved values from
    ``expected_utilities``, best values by enumerating every pure policy."""
    achieved = maid.expected_utilities(model, rules)
    regrets = {}
    for agent in maid.base_maid(model).agents:
        own = maid.free_decisions(model, agent)
        others = {d: r for d, r in rules.items() if d not in own}
        regrets[agent] = maid._best_response_exhaustive(model, others, agent)[1] - achieved[agent]
    return regrets


@settings(max_examples=100, deadline=None, derandomize=True)
@given(recall_game_with_profile())
def test_is_nash_matches_expected_utility_regrets(gp):
    model, profile = gp
    ok, regrets = maid.is_nash(model, profile, tol=1e-9)
    reference = _eu_regrets(model, profile)
    assert set(regrets) == set(reference)
    for agent, r in reference.items():
        assert abs(regrets[agent] - r) <= 1e-12
    assert ok == all(r <= 1e-9 for r in reference.values())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(recall_game_with_profile())
def test_pure_equilibria_have_exactly_zero_regret(gp):
    """Every agent acting once prices its best response and its equilibrium
    rule off one Q-table, in one order, so where the two rules agree at
    every reached context the regret is exactly 0.0.  An equilibrium may
    instead take another action whose value ties the best one up to
    rounding; its regret is then at most rounding."""
    model, _ = gp
    decisions = maid.free_decisions(model)
    assume(maid.count_pure_policies(model, decisions) <= 128)
    for eq in maid.find_pure_nash(model):
        regrets = maid.is_nash(model, eq)[1]
        for agent in ("P1", "P2"):
            own = maid.free_decisions(model, agent)
            if len(own) != 1:
                continue
            others = {d: r for d, r in eq.items() if d not in own}
            br, _ = maid.best_response(model, others, agent)
            reached = maid.decision_values(model, eq, own[0], agent)
            if all(br[own[0]].rows[ctx] == eq[own[0]].rows[ctx] for ctx in reached):
                assert regrets[agent] == 0.0, regrets
            else:
                assert abs(regrets[agent]) <= 1e-12, regrets


@st.composite
def common_prior_game_with_profile(draw):
    """A subjective game whose beliefs come from one prior, and a pure profile.

    Two or three models share D1's observations but draw their own chance
    rows and payoffs; D2 observes different variables in different models,
    which adds information sets, and a model other than the objective one
    may pre-commit D1.  Each agent's beliefs condition the prior on a random
    partition of the models, so they are coherent.
    """
    ids = [f"m{i}" for i in range(draw(st.integers(min_value=2, max_value=3)))]
    d1_pa = draw(st.sampled_from([(), ("X0",), ("X1",)]))
    models = {}
    for mid in ids:
        variables, edges, cpds = _chance_pair(draw)
        d2_pa = draw(st.sampled_from([("D1",), ("X0",), ("D1", "X0")]))
        variables += [bn.decision("D1", "P1", "lr"), bn.decision("D2", "P2", "lr")]
        edges += [(p, "D1") for p in d1_pa] + [(p, "D2") for p in d2_pa]
        for name, owner in (("U1", "P1"), ("U2", "P2")):
            var, u_edges, cpd = _payoff(name, owner, ("D1", "D2", "X0"), draw)
            variables.append(var)
            edges += u_edges
            cpds.append(cpd)
        m = maid.Maid.build(("P1", "P2"), variables, edges, cpds)
        if mid != ids[0] and draw(st.booleans()):
            m = maid.PostPolicyMaid(m, {"D1": _random_pure_rule(draw, m, "D1")})
        models[mid] = m
    prior = {mid: draw(st.sampled_from([1, 3, 9])) for mid in ids}
    beliefs = {mid: {} for mid in ids}
    for agent in ("P1", "P2"):
        cell_of = {mid: draw(st.integers(min_value=0, max_value=len(ids) - 1)) for mid in ids}
        for mid in ids:
            cell = [j for j in ids if cell_of[j] == cell_of[mid]]
            mass = sum(prior[j] for j in cell)
            beliefs[mid][agent] = {j: prior[j] / mass for j in cell}
    x = IiMaid(("P1", "P2"), ids[0], {
        mid: SubjectiveMaid(mid, models[mid], beliefs[mid]) for mid in ids})
    profile = {}
    for agent in x.agents:
        for iset in sorted(incomplete.information_sets(x, agent)):
            profile[iset] = bn.point_row(iset.actions, draw(st.sampled_from(iset.actions)))
    return x, profile


@settings(max_examples=60, deadline=None, derandomize=True)
@given(common_prior_game_with_profile())
@example(rounding_tie_ii_game())
def test_best_response_ii_matches_exhaustive_enumeration(xp):
    x, profile = xp
    for agent in x.agents:
        own = incomplete.information_sets(x, agent)
        others = {i: r for i, r in profile.items() if i not in own}
        for at in sorted(x.models):
            br, value = incomplete.best_response_ii(x, agent, others, at)
            oracle, oracle_value = incomplete._best_response_ii_exhaustive(
                x, agent, others, at)
            assert abs(value - oracle_value) <= 1e-12
            assert br == oracle  # one selection rule, row for row
            assert set(br) == own
            # With one free decision per model, subjective value is a sum
            # over information sets, so the best policy choosing action a at
            # one set is the oracle's policy with just that set changed.
            for iset in incomplete._profile_slots(x, agent, at)[0]:
                best = {}
                for a in iset.actions:
                    deviation = {**others, **oracle, iset: bn.point_row(iset.actions, a)}
                    best[a] = incomplete.subjective_expected_utility(x, agent, at, deviation)
                top = max(best, key=best.get)
                if all(best[top] > v + bn.TOL for a, v in best.items() if a != top):
                    assert _point_label(br[iset]) == top
            # information sets no believed model reaches take the least action
            reached = set()
            for sid, w in x.models[at].beliefs[agent].items():
                model = x.models[sid].model
                rules = incomplete.profile_rules_for_model(model, {**others, **br})
                for d in maid.free_decisions(model, agent) if w > 0.0 else ():
                    pa = maid.base_maid(model).parents[d]
                    reached |= {tuple(zip(pa, ctx))
                                for ctx in maid.decision_values(model, rules, d, agent)}
            for iset, row in br.items():
                if iset.observation not in reached:
                    assert _point_label(row) == min(row)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(common_prior_game_with_profile())
@example(rounding_tie_ii_game())
def test_is_nash_ii_regret_is_the_argmax_rows_priced_off_the_table(xp):
    """``is_nash_ii`` sums each set's best entry rather than building the
    argmax rows; the regret is the same float as pricing those rows."""
    x, profile = xp
    _, regrets = incomplete.is_nash_ii(x, profile)
    utilities = incomplete._per_model_utilities(x, profile)
    for agent in x.agents:
        table = incomplete._action_values(x, agent, x.objective, profile, utilities)
        assert table is not None
        best = incomplete._argmax_rows(x, agent, x.objective, table[1])
        assert regrets[agent] == maid._priced(*table, best) - maid._priced(*table, profile)


@st.composite
def subjective_game_with_profile(draw):
    """A subjective game, not necessarily common-prior, and a mixed profile.

    Beyond ``common_prior_game_with_profile``: belief rows may give a model
    probability zero; a model other than the objective one may pre-commit
    D1, leaving P1 no free decision there; and P1 sometimes acts a second
    time (E1, observing D1), which sends P1 to the exhaustive fallback.
    """
    ids = [f"m{i}" for i in range(draw(st.integers(min_value=2, max_value=3)))]
    d1_pa = draw(st.sampled_from([(), ("X0",), ("X1",)]))
    models = {}
    for mid in ids:
        variables, edges, cpds = _chance_pair(draw)
        d2_pa = draw(st.sampled_from([("D1",), ("X0",), ("D1", "X0")]))
        variables += [bn.decision("D1", "P1", "lr"), bn.decision("D2", "P2", "lr")]
        edges += [(p, "D1") for p in d1_pa] + [(p, "D2") for p in d2_pa]
        u_pa = ("D1", "D2", "X0")
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            variables.append(bn.decision("E1", "P1", "lr"))
            edges += [(p, "E1") for p in ("D1",) + d1_pa]
            u_pa = ("D1", "D2", "E1")
        for name, owner in (("U1", "P1"), ("U2", "P2")):
            var, u_edges, cpd = _payoff(name, owner, u_pa, draw)
            variables.append(var)
            edges += u_edges
            cpds.append(cpd)
        m = maid.Maid.build(("P1", "P2"), variables, edges, cpds)
        if mid != ids[0] and "E1" not in m.variables and draw(st.booleans()):
            m = maid.PostPolicyMaid(m, {"D1": _random_pure_rule(draw, m, "D1")})
        models[mid] = m
    beliefs = {}
    for mid in ids:
        beliefs[mid] = {}
        for agent in ("P1", "P2"):
            raw = {j: draw(st.sampled_from([0, 0, 1, 3])) for j in ids}
            raw[draw(st.sampled_from(ids))] += 1
            beliefs[mid][agent] = {j: v / sum(raw.values()) for j, v in raw.items()}
    x = IiMaid(("P1", "P2"), ids[0], {
        mid: SubjectiveMaid(mid, models[mid], beliefs[mid]) for mid in ids})
    profile = {}
    for agent in x.agents:
        for iset in sorted(incomplete.information_sets(x, agent)):
            p = draw(st.sampled_from(PROBS))
            profile[iset] = {iset.actions[0]: p, iset.actions[1]: 1.0 - p}
    return x, profile


@settings(max_examples=80, deadline=None, derandomize=True)
@given(subjective_game_with_profile())
def test_is_nash_ii_matches_three_pass_regrets(xp):
    x, profile = xp
    ok, regrets = incomplete.is_nash_ii(x, profile)
    reference = {}
    for agent in x.agents:
        own = incomplete.information_sets(x, agent)
        others = {i: r for i, r in profile.items() if i not in own}
        achieved = incomplete.subjective_expected_utility(x, agent, x.objective, profile)
        _, brv = incomplete._best_response_ii_exhaustive(x, agent, others, x.objective)
        reference[agent] = brv - achieved
    assert set(regrets) == set(reference)
    for agent, r in reference.items():
        assert abs(regrets[agent] - r) <= 1e-12
    assert ok == all(r <= 1e-6 for r in reference.values())


def _tree_and_diagram_regrets(x, profile):
    """``is_interim_nash`` on the belief-space trees at the objective state,
    and ``is_nash_ii`` on the diagrams: each one's verdict and regrets."""
    conv = iiefg.maid2efgII(x)
    sigma = iiefg.strategy_from_ii_policy(conv, profile)
    return (iiefg.is_interim_nash(conv.game, sigma, x.objective),
            incomplete.is_nash_ii(x, profile))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(common_prior_game_with_profile())
def test_tree_and_diagram_equilibrium_checks_agree(xp):
    x, profile = xp
    (ok_tree, tree_regrets), (ok, regrets) = _tree_and_diagram_regrets(x, profile)
    assert ok_tree == ok
    assert set(tree_regrets) == set(regrets)
    for agent, r in regrets.items():
        assert abs(tree_regrets[agent] - r) <= 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(subjective_game_with_profile())
def test_tree_and_diagram_equilibrium_checks_agree_for_introspective_agents(xp):
    """An agent is introspective at the objective state when every state it
    believes there gives it the same belief type.  Such an agent's regret
    is the same on both sides within 1e-12, and so is the verdict when every
    agent is.  Other agents' regrets differ: the tree side holds the rows of
    the agent's other types fixed, the diagram side lets the agent rewrite
    them (see CHANGES.md)."""
    x, profile = xp
    (ok_tree, tree_regrets), (ok, regrets) = _tree_and_diagram_regrets(x, profile)
    space = iiefg.maid2efgII(x).game.space
    assert set(tree_regrets) == set(regrets)
    introspective = set()
    for agent, r in regrets.items():
        types = iiefg.belief_types(space, agent)
        believed = bn.positive(x.models[x.objective].beliefs[agent])
        if all(types[w] == types[x.objective] for w, _ in believed):
            introspective.add(agent)
            assert abs(tree_regrets[agent] - r) <= 1e-12
    if introspective == set(regrets):
        assert ok_tree == ok


@settings(max_examples=40, deadline=None, derandomize=True)
@given(subjective_game_with_profile(), st.sampled_from([2, 16, 256]))
def test_find_nash_ii_checks_no_profile_it_builds(xp, cap):
    """The search validates none of its profiles, and finds, misses or
    raises exactly as a search validating each one through ``is_nash_ii``.
    A small ``cap`` sends it to iterated best responses, whose exhaustive
    fallback may then raise."""
    x, _ = xp
    validate, kernel = incomplete.validate_ii_policy, incomplete._is_nash_ii
    calls = []

    def counted(*args):
        calls.append(args)
        return validate(*args)

    def checked(x, profile, tol, cap):
        issues = validate(x, profile)
        if issues:
            raise ValidationError(issues)
        return kernel(x, profile, tol, cap)

    with mock.patch.object(incomplete, "validate_ii_policy", counted):
        got = _outcome(lambda: incomplete.find_nash_ii(x, cap=cap))
    assert calls == []
    with mock.patch.object(incomplete, "_is_nash_ii", checked):
        assert _outcome(lambda: incomplete.find_nash_ii(x, cap=cap)) == got


@settings(max_examples=40, deadline=None, derandomize=True)
@given(subjective_game_with_profile(), st.sampled_from([2, 256]))
def test_find_nash_ii_lists_information_sets_in_sorted_order(xp, cap):
    """Both stages, pure enumeration and (at a small ``cap``) iterated best
    responses, return a profile whose order no hash seed changes."""
    x, _ = xp
    got = _outcome(lambda: incomplete.find_nash_ii(x, cap=cap))
    if isinstance(got, dict):
        assert list(got) == sorted(got)


def _per_agent_equivalence(x, conv, profiles, lift=iiefg.strategy_from_ii_policy):
    """``verify_equivalence`` recomputed agent by agent through the public
    functions, or the error it raises first."""
    try:
        worst = 0.0
        for p in profiles:
            sigma = lift(conv, p)
            for agent in x.agents:
                lhs = incomplete.subjective_expected_utility(x, agent, x.objective, p)
                rhs = iiefg.interim_utility(conv.game, sigma, agent, x.objective)
                worst = max(worst, abs(lhs - rhs))
        return worst <= bn.TOL, worst
    except GameError as exc:
        return type(exc), str(exc)


def _outcome(call):
    try:
        return call()
    except GameError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(subjective_game_with_profile(), st.data())
def test_verify_equivalence_matches_per_agent_recomputation(xp, data):
    x, profile = xp
    conv = iiefg.maid2efgII(x)
    slots = sorted(profile)
    pure = {i: bn.point_row(i.actions, data.draw(st.sampled_from(i.actions)))
            for i in slots}

    def variant():
        """An earlier profile with up to two rows redrawn, pure or mixed, so
        that most models and trees see a restriction again."""
        p = dict(data.draw(st.sampled_from([profile, pure])))
        for i in data.draw(st.lists(st.sampled_from(slots), max_size=2)):
            q = data.draw(st.sampled_from(PROBS))
            p[i] = data.draw(st.sampled_from([
                {i.actions[0]: q, i.actions[1]: 1.0 - q},
                bn.point_row(i.actions, data.draw(st.sampled_from(i.actions)))]))
        return p

    profiles = [profile, pure] + [variant() for _ in range(4)] + [dict(profile)]
    want = _per_agent_equivalence(x, conv, profiles)
    assert isinstance(want[1], float)
    assert iiefg.verify_equivalence(x, conv, profiles=profiles) == want

    # A bad profile after one whose restrictions are already evaluated
    # raises what the per-agent recomputation raises, if anything.
    first = data.draw(st.sampled_from(profiles))
    i = data.draw(st.sampled_from(slots))
    bad_row = {**first, i: {i.actions[0]: 0.5, i.actions[1]: 0.6}}
    missing = {k: r for k, r in first.items() if k != i}
    unknown = {**first, incomplete.InformationSet("P1", (("Q", "z"),), ("l", "r")): {
        "l": 1.0, "r": 0.0}}
    for bad in (bad_row, missing, unknown):
        got = _outcome(lambda: iiefg.verify_equivalence(x, conv, profiles=[first, bad]))
        assert got == _per_agent_equivalence(x, conv, [first, bad])
    assert _outcome(lambda: iiefg.verify_equivalence(
        x, conv, profiles=[first, unknown]))[0] is MissingRule


def _eu_call_by_call(x, profile):
    """``cli eu``'s report on an ii-maid as it was computed: one
    ``subjective_expected_utility`` per agent holding beliefs at the
    objective model, then that model's rules and expected utilities."""
    at = x.objective
    subjective = {agent: incomplete.subjective_expected_utility(x, agent, at, profile)
                  for agent in x.agents if agent in x.models[at].beliefs}
    model = x.models[at].model
    return subjective, maid.expected_utilities(
        model, incomplete.profile_rules_for_model(model, profile))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(subjective_game_with_profile(), st.data())
def test_the_eu_report_is_the_call_by_call_report(xp, data):
    # Checking each row once and evaluating each model once changes no value
    # and no error: a profile missing a row or holding a bad one raises what
    # the call-by-call report raises, whoever holds beliefs at the objective.
    x, profile = xp
    at = x.objective
    if data.draw(st.booleans()):
        believers = data.draw(st.lists(st.sampled_from(x.agents), unique=True))
        s = x.models[at]
        x = IiMaid(x.agents, at, {**x.models, at: SubjectiveMaid(
            at, s.model, {a: row for a, row in s.beliefs.items() if a in believers})})
    profile = dict(profile)
    for iset in data.draw(st.lists(st.sampled_from(sorted(profile)), max_size=2, unique=True)):
        if data.draw(st.booleans()):
            del profile[iset]
        else:
            profile[iset] = dict.fromkeys(iset.actions, 0.6)
    assert _outcome(lambda: incomplete._eu_report(x, profile)) == \
        _outcome(lambda: _eu_call_by_call(x, profile))
