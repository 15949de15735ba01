import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from iimaid import efg, iiefg, incomplete, maid
from iimaid.errors import GameError, MissingRule
from iimaid.fixtures import evaluation_depth3_stack, ne_ii_profile, truthful_match_rules
from iimaid.iiefg import BeliefSpace, IiConversion, IiEfg
from iimaid.incomplete import IiMaid, SubjectiveMaid
from tests.test_incomplete import iset_full, random_common_prior_iimaid
from tests.test_properties import (
    _outcome,
    _per_agent_equivalence,
    common_prior_game_with_profile,
    subjective_game_with_profile,
)


@pytest.fixture
def conversion(example1):
    return iiefg.maid2efgII(example1)


def test_belief_space_round_trip(conversion):
    sp = conversion.game.space
    assert sp.states == ("ai_belief", "ground_truth")
    assert iiefg.validate_belief_space(sp) == []
    assert sp.beliefs["A"]["ground_truth"] == {"ai_belief": 1.0}


def test_validate_belief_space_normalization(conversion):
    sp = conversion.game.space
    bad = BeliefSpace(sp.states, dict(sp.games), {
        "A": {"ai_belief": {"ai_belief": 0.5}, "ground_truth": {"ai_belief": 1.0}},
        "H": dict(sp.beliefs["H"]),
    })
    issues = iiefg.validate_belief_space(bad)
    assert any(i.startswith("belief-row-not-normalized") for i in issues)


def test_validate_belief_space_coherence(conversion):
    sp = conversion.game.space
    incoherent = BeliefSpace(sp.states, dict(sp.games), {
        "A": {"ai_belief": {"ai_belief": 1.0},
              "ground_truth": {"ai_belief": 0.5, "ground_truth": 0.5}},
        "H": dict(sp.beliefs["H"]),
    })
    issues = iiefg.validate_belief_space(incoherent)
    assert issues == ["incoherent-beliefs: A at ground_truth trusts ai_belief "
                      "which holds a different row"]


def test_belief_types(conversion):
    sp = conversion.game.space
    assert iiefg.belief_types(sp, "A") == {
        "ai_belief": "ai_belief", "ground_truth": "ai_belief"}
    assert iiefg.belief_types(sp, "H") == {
        "ai_belief": "ai_belief", "ground_truth": "ground_truth"}


def test_belief_types_group_states_as_belief_type_classes_groups_models(example1):
    for x in [example1] + [random_common_prior_iimaid(seed) for seed in range(8)]:
        space = iiefg.maid2efgII(x).game.space
        for agent in x.agents:
            groups = {}
            for w, rep in iiefg.belief_types(space, agent).items():
                groups.setdefault(rep, []).append(w)
            want = incomplete.belief_type_classes(x, agent)
            assert [sorted(groups[rep]) for rep in sorted(groups)] == want
            assert all(rep == min(members) for rep, members in groups.items())


def test_meta_information_set_counts(conversion):
    g = conversion.game
    mis_a = iiefg.meta_information_sets(g, "A")
    mis_h = iiefg.meta_information_sets(g, "H")
    assert len(mis_a) == 2
    assert len(mis_h) == 12
    # observation classes that a type never reaches still appear, with no members
    assert sum(1 for m in mis_h.values() if not m) == 6


def test_meta_cell_members_span_states(conversion):
    mis_a = iiefg.meta_information_sets(conversion.game, "A")
    cell = sorted(mis_a)[0]
    assert cell.observation == (("C", "high"),)
    assert cell.type_rep == "ai_belief"
    assert mis_a[cell] == (
        ("ai_belief", ("D_A", ("high",))),
        ("ground_truth", ("D_A", ("high",))),
    )


def test_correspondence_covers_diagram_info_sets(example1, conversion):
    from iimaid import incomplete as inc
    corr = conversion.correspondence
    assert len(corr) == 8
    for agent, want in (("A", 2), ("H", 6)):
        isets = {k for k in corr if k.agent == agent}
        cells = {corr[k] for k in isets}
        assert isets == inc.information_sets(example1, agent)
        assert len(cells) == want


def test_strategy_lift_fills_all_cells(conversion, ne_profile):
    sigma = iiefg.strategy_from_ii_policy(conversion, ne_profile)
    assert len(sigma) == 14
    assert all(sum(row.values()) == pytest.approx(1.0) for row in sigma.values())


def test_state_strategy_projects_to_plain_game(conversion, ne_profile):
    sigma = iiefg.strategy_from_ii_policy(conversion, ne_profile)
    ss = iiefg.state_strategy(conversion.game, sigma, "ground_truth")
    assert ss[("A", ("D_A", ("high",)))] == {"high": 0.0, "low": 1.0}
    assert ss[("H", ("D_H", ("high", "low")))] == {"deploy": 0.0, "not_deploy": 1.0}
    assert ss[("H", ("D_H", ("low", "low")))] == {"deploy": 1.0, "not_deploy": 0.0}


def test_unknown_state_is_named_like_interim_utility(conversion, ne_profile):
    sigma = iiefg.strategy_from_ii_policy(conversion, ne_profile)
    for call in (lambda: iiefg.state_strategy(conversion.game, sigma, "nope"),
                 lambda: iiefg.interim_utility(conversion.game, sigma, "A", "nope"),
                 lambda: iiefg.is_interim_nash(conversion.game, sigma, "nope")):
        with pytest.raises(GameError) as e:
            call()
        assert (type(e.value), str(e.value)) == (GameError, "unknown state: nope")


def test_interim_utility(conversion, ne_profile):
    g = conversion.game
    sigma = iiefg.strategy_from_ii_policy(conversion, ne_profile)
    assert iiefg.interim_utility(g, sigma, "A", "ai_belief") == pytest.approx(0.0)
    assert iiefg.interim_utility(g, sigma, "A", "ground_truth") == pytest.approx(0.0)
    assert iiefg.interim_utility(g, sigma, "H", "ai_belief") == pytest.approx(0.2)
    assert iiefg.interim_utility(g, sigma, "H", "ground_truth") == pytest.approx(0.9)


def test_interim_nash_is_state_dependent(conversion, ne_profile):
    g = conversion.game
    sigma = iiefg.strategy_from_ii_policy(conversion, ne_profile)
    ok, regrets = iiefg.is_interim_nash(g, sigma, "ground_truth")
    assert ok and regrets == pytest.approx({"A": 0.0, "H": 0.0})
    ok, regrets = iiefg.is_interim_nash(g, sigma, "ai_belief")
    assert not ok
    assert regrets == pytest.approx({"A": 0.0, "H": 0.2})


def test_bayesian_equilibrium_requires_every_state(conversion, ne_profile):
    g = conversion.game
    sigma = iiefg.strategy_from_ii_policy(conversion, ne_profile)
    ok, report = iiefg.is_bayesian_equilibrium(g, sigma)
    assert not ok
    assert report["ground_truth"] == pytest.approx({"A": 0.0, "H": 0.0})
    assert report["ai_belief"] == pytest.approx({"A": 0.0, "H": 0.2})


def _state_by_state_report(g, sigma, tol=1e-6, cap=maid.DEFAULT_CAP):
    """``is_bayesian_equilibrium`` as it was written: ``is_interim_nash``'s
    loop at every state, each agent's deviations enumerated afresh."""
    report = {}
    for w in g.space.states:
        regrets = {}
        for agent in g.agents:
            slots = [(cell, cell.actions) for cell in iiefg._deviation_cells(g, agent, w)]
            _, best = maid._first_max(
                ({**sigma, **rows} for rows in maid._iter_pure(slots, "deviations", cap)),
                lambda trial: iiefg.interim_utility(g, trial, agent, w),
            )
            regrets[agent] = max(0.0, best - iiefg.interim_utility(g, sigma, agent, w))
        report[w] = regrets
    return all(r <= tol for regrets in report.values() for r in regrets.values()), report


def _nudged(g, shift):
    """``g`` with ``shift`` moved from the first to the second positive entry
    of the first belief row, by agent and state, that has two: within
    ``TOL``, so its state keeps its belief type, but its believed states'
    weights change."""
    beliefs = {agent: {w: dict(row) for w, row in by_state.items()}
               for agent, by_state in g.space.beliefs.items()}
    for agent in sorted(beliefs):
        for w in sorted(beliefs[agent]):
            row = beliefs[agent][w]
            support = [v for v, p in sorted(row.items()) if p > 0.0]
            if len(support) > 1:
                row[support[0]] -= shift
                row[support[1]] += shift
                return IiEfg(BeliefSpace(g.space.states, g.space.games, beliefs), g.iset_obs)
    return g


def test_bayesian_equilibrium_report_equals_the_state_by_state_loop():
    # Each agent's regret is computed once per (agent, deviation cells,
    # believed states) and shared by the states with that key; the report
    # is ``==`` to the per-state loop's, keys and their order included, and
    # some games share a regret between states.  A row nudged within ``TOL``
    # keeps its type and cells but not its regret.
    shared = []

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.one_of(common_prior_game_with_profile(), subjective_game_with_profile()),
           st.sampled_from([0.0, 5e-10]))
    def check(xp, shift):
        x, profile = xp
        conv = iiefg.maid2efgII(x)
        g, sigma = _nudged(conv.game, shift), iiefg.strategy_from_ii_policy(conv, profile)
        calls = []  # one enumeration of deviations per regret computed
        real = iiefg._iter_pure
        with mock.patch.object(iiefg, "_iter_pure",
                               lambda *args: calls.append(args) or real(*args)):
            got = iiefg.is_bayesian_equilibrium(g, sigma)
        want = _state_by_state_report(g, sigma)
        assert got == want
        assert list(got[1]) == list(want[1])
        assert all(list(got[1][w]) == list(want[1][w]) for w in want[1])
        shared.append(len(calls) < len(g.space.states) * len(g.agents))

    check()
    assert any(shared)


def test_equivalence_exhaustive(example1, conversion):
    ok, worst = iiefg.verify_equivalence(example1, conversion)
    assert ok
    assert worst == pytest.approx(0.0, abs=1e-9)


def test_corrupted_correspondence_is_caught(example1, conversion):
    corr = dict(conversion.correspondence)
    a = iset_full("high", "high")
    b = iset_full("low", "high")
    corr[a], corr[b] = corr[b], corr[a]
    broken = IiConversion(conversion.game, corr)
    ok, worst = iiefg.verify_equivalence(example1, broken)
    assert not ok
    assert worst >= 0.1


def test_conversion_freezes_its_correspondence(example1, conversion):
    # The lift is built once per conversion, so the correspondence it is
    # built from cannot change: later edits to the source dict do not reach
    # it, and it takes no assignment.
    corr = dict(conversion.correspondence)
    kept = IiConversion(conversion.game, corr)
    assert iiefg.verify_equivalence(example1, kept) == (True, 0.0)
    a, b = iset_full("high", "high"), iset_full("low", "high")
    corr[a], corr[b] = corr[b], corr[a]
    assert kept.correspondence == conversion.correspondence
    with pytest.raises(TypeError):
        kept.correspondence[a] = corr[a]
    assert iiefg.verify_equivalence(example1, kept) == (True, 0.0)


def _truthful_ground_truth(example1):
    """The bundled game with A's report committed to the truth in the
    ground-truth model, whose tree then never reaches H's (high, low) and
    (low, high) contexts; no other model has H observe both variables."""
    gt = example1.models["ground_truth"]
    truthful = maid.PostPolicyMaid(gt.model, {"D_A": truthful_match_rules()["D_A"]})
    return IiMaid(example1.agents, example1.objective, {
        **example1.models,
        "ground_truth": SubjectiveMaid("ground_truth", truthful, gt.beliefs),
    })


def test_conversion_keeps_information_sets_no_tree_reaches(example1):
    x = _truthful_ground_truth(example1)
    conv = iiefg.maid2efgII(x)
    corr = conv.correspondence
    assert set(corr) == set().union(*(incomplete.information_sets(x, a) for a in x.agents))
    assert len(set(corr.values())) == len(corr)
    cells = iiefg.meta_information_sets(conv.game, "H")
    lost = {iset_full("low", "high"), iset_full("high", "low")}
    assert {i for i in corr if i.agent == "H" and corr[i] not in cells} == lost
    sigma = iiefg.strategy_from_ii_policy(conv, ne_ii_profile())
    assert all(corr[i] in sigma for i in lost)
    ok, worst = iiefg.verify_equivalence(x, conv)
    assert ok and worst <= 1e-9


def _lift_by_hand(conv, profile):
    """``strategy_from_ii_policy`` as specified: each row lands on its own
    cell, and on the cell's siblings that no earlier row reached."""
    sigma = {}
    for iset in sorted(profile):
        cell = conv.correspondence[iset]
        row = dict(profile[iset])
        sigma[cell] = row
        for other in iiefg.meta_information_sets(conv.game, cell.agent):
            if other != cell and (other.observation, other.actions) == (
                    cell.observation, cell.actions):
                sigma.setdefault(other, row)
    return sigma


@pytest.mark.parametrize("committed", [False, True])
def test_verify_equivalence_follows_any_correspondence(example1, committed):
    # Conversions sharing one game, whose correspondences swap, merge or
    # cross belief types, each keep their own lift.  In the committed game
    # two of H's information sets have cells no tree reads, so a merge or a
    # cross can leave every read cell supplied, by more than one set.
    x = _truthful_ground_truth(example1) if committed else example1
    conv = iiefg.maid2efgII(x)
    profiles = list(incomplete.iter_pure_ii_profiles(x))[::9]
    assert iiefg.verify_equivalence(x, conv, profiles=profiles) == (
        _per_agent_equivalence(x, conv, profiles, lift=_lift_by_hand))
    rng = random.Random(6)
    mine = sorted(i for i in conv.correspondence if i.agent == "H")
    cells = sorted(iiefg.meta_information_sets(conv.game, "H"))
    outcomes = []
    for _ in range(40):
        corr = dict(conv.correspondence)
        for _ in range(2):
            a, b = rng.sample(mine, 2)
            kind = rng.choice(["swap", "merge", "cross"])
            if kind == "swap":
                corr[a], corr[b] = corr[b], corr[a]
            elif kind == "merge":
                corr[a] = corr[b]
            else:
                corr[a] = rng.choice([c for c in cells if c.type_rep != corr[a].type_rep])
        broken = IiConversion(conv.game, corr)
        for p in profiles[:2]:
            assert iiefg.strategy_from_ii_policy(broken, p) == _lift_by_hand(broken, p)
        for p in profiles:
            got = _outcome(lambda: iiefg.verify_equivalence(x, broken, profiles=[p]))
            assert got == _per_agent_equivalence(x, broken, [p], lift=_lift_by_hand)
            outcomes.append(got[0])
    assert {False, MissingRule} <= set(outcomes)
    if committed:
        assert True in outcomes


def test_maid2efg_expands_committed_decisions_as_chance_nodes():
    solo = evaluation_depth3_stack().nodes["h_solo"].model
    rule = maid.fixed_rules(solo)["D_A"]
    g, mu = efg.maid2efg(solo)
    by_var = {}
    for nid, node in enumerate(g.nodes):
        by_var.setdefault(node.var, []).append((nid, node))
    # the truthful rule keeps only the branch that matches capability
    assert {node.kind for _, node in by_var["D_A"]} == {"chance"}
    for nid, node in by_var["D_A"]:
        row = rule.rows[(mu[nid]["C"],)]
        assert node.dist == {a: p for a, p in row.items() if p > 0.0}
        assert node.actions == tuple(node.dist)
    assert {node.kind for _, node in by_var["D_H"]} == {"decision"}
    assert {node.owner for _, node in by_var["D_H"]} == {"H"}
    assert efg.info_sets(g, "A") == {}
