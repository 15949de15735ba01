import random
from itertools import product
from unittest import mock

import pytest

from iimaid import bn, fixtures, iiefg, incomplete as inc, maid
from iimaid.bn import Cpd
from iimaid.errors import MissingRule, SearchSpaceTooLarge, UnknownAgent, ValidationError
from iimaid.incomplete import IiMaid, InformationSet, SubjectiveMaid
from tests.test_maid import forgetful_maid


def iset_report(agent, report, actions=("deploy", "not_deploy")):
    return InformationSet(agent, (("D_A", report),), tuple(sorted(actions)))


def iset_full(report_ctx, cap_ctx):
    return InformationSet("H", (("C", cap_ctx), ("D_A", report_ctx)),
                          ("deploy", "not_deploy"))


def iset_cap(cap_ctx):
    return InformationSet("A", (("C", cap_ctx),), ("high", "low"))


# ---------------------------------------------------------------- structure


def test_structural_validation_rejects_unknown_belief_target(example1):
    gt = example1.models["ground_truth"]
    with pytest.raises(ValidationError):
        IiMaid(example1.agents, "ground_truth", {
            "ground_truth": SubjectiveMaid(
                "ground_truth", gt.model, {"A": {"missing": 1.0}}),
        })


def test_structural_validation_rejects_bad_objective(example1):
    with pytest.raises(ValidationError):
        IiMaid(example1.agents, "nope", dict(example1.models))


def test_believers(example1):
    assert inc.believers(example1.models["ground_truth"]) == ["A", "H"]
    assert inc.believers(example1.models["ai_belief"]) == ["A", "H"]


# ---------------------------------------------------------------- coherence


def test_example_is_coherent(example1):
    assert inc.validate_coherence(example1) == []


def test_coherence_violation_reports_compatible_mass(example1):
    gt = example1.models["ground_truth"]
    mutated = IiMaid(example1.agents, example1.objective, {
        "ground_truth": SubjectiveMaid(
            "ground_truth", gt.model,
            {"A": {"ai_belief": 0.5, "ground_truth": 0.5},
             "H": {"ground_truth": 1.0}}),
        "ai_belief": example1.models["ai_belief"],
    })
    violations = inc.validate_coherence(mutated)
    assert violations == [inc.CoherenceViolation("A", "ground_truth", 0.5)]


# -------------------------------------------------------------- consistency


def test_consistency_report(example1):
    rep = inc.check_consistency(example1)
    assert rep.eq_feasible is True
    assert rep.sample == pytest.approx({"ai_belief": 1.0, "ground_truth": 0.0})
    assert rep.strongly_consistent is False
    assert rep.min_type_mass == pytest.approx(0.0)
    assert rep.mass_bounds["ai_belief"] == pytest.approx((1.0, 1.0))
    assert rep.mass_bounds["ground_truth"] == pytest.approx((0.0, 0.0))
    assert rep.type_classes == {"A": [["ai_belief", "ground_truth"]],
                                "H": [["ai_belief"], ["ground_truth"]]}


def test_belief_type_classes(example1):
    assert inc.belief_type_classes(example1, "A") == [["ai_belief", "ground_truth"]]
    assert inc.belief_type_classes(example1, "H") == [["ai_belief"], ["ground_truth"]]


@pytest.mark.parametrize("names", [("m1", "m2", "m3"), ("m2", "m1", "m3")])
def test_type_classes_do_not_depend_on_model_names(names):
    # A's rows drift by 0.6e-9 from model to model: neighbours lie within
    # TOL, the two ends do not.  The chain is one class whichever model is
    # named least.
    base = trivial_model(("A", "H"))
    models = {sid: SubjectiveMaid(sid, base, {"A": {"m1": 0.5 + k * 6e-10,
                                                   "m2": 0.5 - k * 6e-10}})
              for k, sid in enumerate(names)}
    x = IiMaid(("A", "H"), "m1", models)
    assert inc.belief_type_classes(x, "A") == [["m1", "m2", "m3"]]
    assert inc.check_consistency(x).type_classes == {"A": [["m1", "m2", "m3"]], "H": []}


def test_unknown_names_raise_the_package_errors(example1, ne_profile):
    others = {i: r for i, r in ne_profile.items() if i.agent != "H"}
    with pytest.raises(ValidationError) as e:
        inc.best_response_ii(example1, "H", others, at="nope")
    assert e.value.issues == ["unknown-model: nope"]
    with pytest.raises(ValidationError) as e:
        inc.best_response_ii(example1, "H", others, at="")
    assert e.value.issues == ["unknown-model: "]
    with pytest.raises(UnknownAgent):
        inc.belief_type_classes(example1, "Z")
    # a known agent who holds no beliefs has no classes
    m = SubjectiveMaid("m", trivial_model(("P1", "P2")), {"P1": {"m": 1.0}})
    assert inc.belief_type_classes(IiMaid(("P1", "P2"), "m", {"m": m}), "P2") == []


def trivial_model(agents):
    variables = [bn.chance("X", ("a", "b"))]
    cpds = [Cpd("X", (), {(): {"a": 0.5, "b": 0.5}})]
    return maid.Maid.build(agents, variables, [], cpds)


def random_common_prior_iimaid(seed):
    """Beliefs derived from one positive prior by conditioning on type classes."""
    rng = random.Random(seed)
    agents = ("P1", "P2")
    ids = [f"m{i}" for i in range(rng.randint(3, 5))]
    weights = {i: rng.uniform(0.1, 1.0) for i in ids}
    total = sum(weights.values())
    prior = {i: w / total for i, w in weights.items()}
    base = trivial_model(agents)
    partitions = {}
    for agent in agents:
        shuffled = ids[:]
        rng.shuffle(shuffled)
        cells = [[] for _ in range(rng.randint(1, len(ids)))]
        for i, mid in enumerate(shuffled):
            cells[i % len(cells)].append(mid)
        partitions[agent] = [cell for cell in cells if cell]
    models = {}
    for mid in ids:
        beliefs = {}
        for agent in agents:
            cell = next(c for c in partitions[agent] if mid in c)
            mass = sum(prior[j] for j in cell)
            beliefs[agent] = {j: prior[j] / mass for j in cell}
        models[mid] = SubjectiveMaid(mid, base, beliefs)
    return IiMaid(agents, ids[0], models)


def test_common_prior_models_are_strongly_consistent():
    for seed in range(20):
        x = random_common_prior_iimaid(seed)
        assert inc.validate_coherence(x) == []
        rep = inc.check_consistency(x)
        assert rep.eq_feasible and rep.strongly_consistent
        assert rep.min_type_mass > 1e-6
        assert sum(rep.sample.values()) == pytest.approx(1.0)


# ----------------------------------------------------------- information sets


def test_information_sets_union(example1):
    assert len(inc.information_sets(example1, "A")) == 2
    assert len(inc.information_sets(example1, "H")) == 6
    assert iset_full("low", "high") in inc.information_sets(example1, "H")
    assert iset_report("H", "low") in inc.information_sets(example1, "H")


def test_model_information_sets(example1):
    gt = example1.models["ground_truth"].model
    ai = example1.models["ai_belief"].model
    assert len(inc.model_information_sets(gt, "H")) == 4
    assert len(inc.model_information_sets(ai, "H")) == 2
    assert inc.model_information_sets(gt, "A") == inc.model_information_sets(ai, "A")


def test_encounterability_is_model_relative(example1):
    gt = example1.models["ground_truth"]
    ai = example1.models["ai_belief"]
    assert inc.is_encounterable(iset_full("high", "high"), gt)
    assert not inc.is_encounterable(iset_full("high", "high"), ai)
    assert inc.is_encounterable(iset_report("H", "high"), ai)
    assert not inc.is_encounterable(iset_report("H", "high"), gt)
    assert inc.is_encounterable(iset_cap("low"), gt)
    assert inc.is_encounterable(iset_cap("low"), ai)


# ------------------------------------------------------------ subjective EU


def test_subjective_expected_utility(example1, ne_profile):
    assert inc.subjective_expected_utility(example1, "A", "ai_belief", ne_profile) == pytest.approx(0.0)
    assert inc.subjective_expected_utility(example1, "A", "ground_truth", ne_profile) == pytest.approx(0.0)
    assert inc.subjective_expected_utility(example1, "H", "ai_belief", ne_profile) == pytest.approx(0.2)
    assert inc.subjective_expected_utility(example1, "H", "ground_truth", ne_profile) == pytest.approx(0.9)


def test_seu_ignores_rows_outside_believed_models(example1, ne_profile):
    # A only believes the report-observing model, so H's full-observation rows
    # cannot move A's subjective value there
    before = inc.subjective_expected_utility(example1, "A", "ai_belief", ne_profile)
    perturbed = dict(ne_profile)
    for c in ("high", "low"):
        for r in ("high", "low"):
            perturbed[iset_full(r, c)] = {"deploy": 0.25, "not_deploy": 0.75}
    after = inc.subjective_expected_utility(example1, "A", "ai_belief", perturbed)
    assert before == pytest.approx(after)


def test_seu_missing_rule(example1, ne_profile):
    partial = {k: v for k, v in ne_profile.items() if k.agent == "A"}
    with pytest.raises(MissingRule):
        inc.subjective_expected_utility(example1, "H", "ground_truth", partial)


def test_validate_ii_policy(example1, ne_profile):
    assert inc.validate_ii_policy(example1, ne_profile) == []
    broken = dict(ne_profile)
    broken[iset_cap("high")] = {"high": 0.6, "low": 0.6}
    assert inc.validate_ii_policy(example1, broken)


def test_validate_ii_policy_takes_only_information_sets_as_keys(example1, ne_profile):
    # A plain tuple of an information set's fields is == to it, yet it is
    # no information set: it is unknown, and the set it stands for lacks
    # its rule.
    iset = iset_cap("high")
    plain = tuple(iset)
    meta = iiefg.MetaInfoSet(*iset, "ground_truth")
    assert plain == iset and type(plain) is tuple
    row = ne_profile[iset]
    profile = {k: v for k, v in ne_profile.items() if k != iset}
    profile.update({plain: row, "junk": row, meta: row})
    want = [
        f"missing-rule: {iset}",
        "unknown-information-set: junk",
        f"unknown-information-set: {plain}",
        f"unknown-information-set: {meta}",
    ]
    assert inc.validate_ii_policy(example1, profile) == want
    with pytest.raises(ValidationError) as e:
        inc.is_nash_ii(example1, profile)
    assert e.value.issues == want


def test_profile_rules_for_model(example1, ne_profile):
    gt = example1.models["ground_truth"].model
    rules = inc.profile_rules_for_model(gt, ne_profile)
    assert set(rules) == {"D_A", "D_H"}
    assert rules["D_H"].parents == ("C", "D_A")


# ----------------------------------------------------------------- solving


def test_best_response_ii_tie_takes_least_action(example1, ne_profile):
    others = {k: v for k, v in ne_profile.items() if k.agent == "H"}
    br, value = inc.best_response_ii(example1, "A", others)
    assert value == pytest.approx(0.0)
    for iset, row in br.items():
        assert row == {"high": 1.0, "low": 0.0}


def test_best_response_ii_enumerates_when_an_agent_acts_twice():
    # H acts twice in the only model, so information sets are not separable
    variables = [
        bn.chance("X", ("a", "b")),
        bn.decision("D1", "H", ("l", "r")),
        bn.decision("D2", "H", ("l", "r")),
        bn.utility("U", "H", {"z": 0.0, "o": 1.0}),
    ]
    edges = [("X", "D1"), ("X", "D2"), ("D1", "D2"), ("D1", "U"), ("D2", "U"), ("X", "U")]
    cpds = [
        Cpd("X", (), {(): {"a": 0.3, "b": 0.7}}),
        bn.tabulate("U", ("z", "o"), {"D1": ("l", "r"), "D2": ("l", "r"), "X": ("a", "b")},
                    lambda c: "o" if (c["D1"] == c["D2"]) == (c["X"] == "a") else "z"),
    ]
    m = maid.Maid.build(("H",), variables, edges, cpds)
    x = IiMaid(("H",), "m", {"m": SubjectiveMaid("m", m, {"H": {"m": 1.0}})})
    assert len(inc.information_sets(x, "H")) == 6
    with pytest.raises(SearchSpaceTooLarge):
        inc.best_response_ii(x, "H", {}, cap=63)
    _, value = inc.best_response_ii(x, "H", {}, cap=64)
    assert value == pytest.approx(1.0)
    assert value == maid.best_response(m, {}, "H")[1]


def test_is_nash_ii_accepts_equilibrium(example1, ne_profile):
    ok, regrets = inc.is_nash_ii(example1, ne_profile)
    assert ok
    assert regrets == pytest.approx({"A": 0.0, "H": 0.0})


def truthful_deploy_low_profile(ne_profile):
    out = dict(ne_profile)
    out[iset_cap("high")] = {"high": 1.0, "low": 0.0}
    out[iset_cap("low")] = {"high": 0.0, "low": 1.0}
    out[iset_report("H", "high")] = {"deploy": 0.0, "not_deploy": 1.0}
    out[iset_report("H", "low")] = {"deploy": 1.0, "not_deploy": 0.0}
    return out


def test_is_nash_ii_rejects_with_regret(example1, ne_profile):
    ok, regrets = inc.is_nash_ii(example1, truthful_deploy_low_profile(ne_profile))
    assert not ok
    assert regrets["A"] == pytest.approx(0.2)
    assert regrets["H"] == pytest.approx(0.0)


def test_iter_pure_ii_profiles_count(example1):
    assert sum(1 for _ in inc.iter_pure_ii_profiles(example1)) == 256


def test_pure_profiles_share_one_point_row_per_set_and_action(example1):
    slots = inc._pure_slots(example1)
    fresh = [{iset: bn.point_row(iset.actions, label) for iset, label in zip(slots, combo)}
             for combo in product(*(iset.actions for iset in slots))]
    got = list(inc.iter_pure_ii_profiles(example1))
    assert got == fresh
    assert all(list(profile) == list(slots) for profile in got)
    shared = {(iset, id(row)) for profile in got for iset, row in profile.items()}
    assert len(shared) == sum(len(iset.actions) for iset in slots) == 16
    # rows are shared within one call only
    first = next(inc.iter_pure_ii_profiles(example1))
    assert all(first[iset] is not got[0][iset] for iset in slots)


def test_find_nash_ii(example1):
    sol = inc.find_nash_ii(example1)
    assert sol is not None
    ok, regrets = inc.is_nash_ii(example1, sol)
    assert ok and regrets == pytest.approx({"A": 0.0, "H": 0.0})
    assert sol[iset_cap("high")] == {"high": 1.0, "low": 0.0}
    assert sol[iset_cap("low")] == {"high": 1.0, "low": 0.0}
    assert sol[iset_full("high", "low")] == {"deploy": 0.0, "not_deploy": 1.0}
    assert sol[iset_full("low", "low")] == {"deploy": 1.0, "not_deploy": 0.0}


def test_is_nash_ii_validates_its_profile_once(monkeypatch, example1, ne_profile):
    calls = []
    validate = inc.validate_ii_policy
    monkeypatch.setattr(inc, "validate_ii_policy", lambda *a: calls.append(a) or validate(*a))
    inc.is_nash_ii(example1, ne_profile)
    assert calls == [(example1, ne_profile)]


def test_find_nash_ii_refuses_an_agent_without_recall(example1):
    assert inc._recall_lapse(example1) is None
    x = IiMaid(("H",), "m", {"m": SubjectiveMaid("m", forgetful_maid(), {"H": {"m": 1.0}})})
    assert inc._recall_lapse(x) == ("H", "m")
    with pytest.raises(ValidationError, match="imperfect-recall: H in m"):
        inc.find_nash_ii(x)


# ------------------------------------------------- checks on profile rows


def _unnormalised(ne_profile, iset):
    broken = dict(ne_profile)
    broken[iset] = {"deploy": 0.6, "not_deploy": 0.6}
    return broken


def test_unnormalised_row_raises_in_every_evaluation(example1, ne_profile):
    # H's full-observation rows are read in the ground-truth model, which H
    # believes; H's report-only rows in the AI's model, which A believes
    broken = _unnormalised(ne_profile, iset_full("high", "high"))
    with pytest.raises(ValidationError) as e:
        inc.subjective_expected_utility(example1, "H", "ground_truth", broken)
    assert e.value.issues == [
        "row-not-normalized: InformationSet(agent='H', observation="
        "(('C', 'high'), ('D_A', 'high')), actions=('deploy', 'not_deploy'))"]
    with pytest.raises(ValidationError):
        inc.is_nash_ii(example1, broken)
    conv = iiefg.maid2efgII(example1)
    with pytest.raises(ValidationError):
        iiefg.verify_equivalence(example1, conv, profiles=[broken])
    broken = _unnormalised(ne_profile, iset_report("H", "low"))
    others = {k: v for k, v in broken.items() if k.agent == "H"}
    with pytest.raises(ValidationError) as e:
        inc.best_response_ii(example1, "A", others)
    assert e.value.issues == [
        "row-not-normalized: InformationSet(agent='H', observation="
        "(('D_A', 'low'),), actions=('deploy', 'not_deploy'))"]


def row_checks(call):
    """How many times ``call()`` runs ``bn.is_distribution``."""
    calls = []
    real = bn.is_distribution

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with mock.patch.object(bn, "is_distribution", counted):
        call()
    return len(calls)


def test_is_nash_ii_checks_each_row_once(example1, ne_profile):
    # validate_ii_policy checks every row on entry; the rules built for the
    # regrets read the same rows without checking them again
    assert row_checks(lambda: inc.is_nash_ii(example1, ne_profile)) == len(ne_profile)


def test_subjective_expected_utility_checks_each_given_row_once(example1, ne_profile):
    # the entry checks every row it is given, and the models it evaluates
    # read them unchecked, however many of them read one row
    for at in sorted(example1.models):
        for agent in example1.agents:
            got = row_checks(
                lambda: inc.subjective_expected_utility(example1, agent, at, ne_profile))
            assert got == len(ne_profile)


def test_a_bad_row_no_evaluated_model_reads_still_raises(example1, ne_profile):
    # H at the ground truth believes only that model, which never reads H's
    # report-only rows; A's best response never reads A's own rows
    broken = _unnormalised(ne_profile, iset_report("H", "low"))
    with pytest.raises(ValidationError) as e:
        inc.subjective_expected_utility(example1, "H", "ground_truth", broken)
    assert e.value.issues == [
        "row-not-normalized: InformationSet(agent='H', observation="
        "(('D_A', 'low'),), actions=('deploy', 'not_deploy'))"]
    own = dict(ne_profile)
    own[iset_cap("high")] = {"high": 0.6, "low": 0.6}
    with pytest.raises(ValidationError) as e:
        inc.best_response_ii(example1, "A", own)
    assert e.value.issues == [
        "row-not-normalized: InformationSet(agent='A', observation="
        "(('C', 'high'),), actions=('high', 'low'))"]


def test_plain_tuple_keys_give_the_same_values_and_errors(example1, ne_profile):
    plain = {tuple(k): v for k, v in ne_profile.items()}
    for at in sorted(example1.models):
        for agent in example1.agents:
            assert inc.subjective_expected_utility(example1, agent, at, plain) == \
                inc.subjective_expected_utility(example1, agent, at, ne_profile)
    assert inc.best_response_ii(example1, "A", plain) == \
        inc.best_response_ii(example1, "A", ne_profile)
    broken = _unnormalised(ne_profile, iset_full("high", "high"))
    plain_broken = {tuple(k): v for k, v in broken.items()}
    for call in (
        lambda p: inc.subjective_expected_utility(example1, "H", "ground_truth", p),
        lambda p: inc.best_response_ii(example1, "A", p),
        lambda p: inc.profile_rules_for_model(example1.models["ground_truth"].model, p),
    ):
        with pytest.raises(ValidationError) as want:
            call(broken)
        with pytest.raises(ValidationError) as got:
            call(plain_broken)
        assert got.value.issues == want.value.issues


def test_no_row_the_package_builds_is_checked(example1):
    # verify_equivalence's own enumeration, and find_nash_ii's iterated best
    # responses (cap 3 forces that stage), build valid rows
    conv = iiefg.maid2efgII(example1)
    assert row_checks(lambda: iiefg.verify_equivalence(example1, conv)) == 0
    assert row_checks(lambda: inc.find_nash_ii(example1, cap=3)) == 0


def test_row_over_the_wrong_actions_raises(example1, ne_profile):
    broken = dict(ne_profile)
    broken[iset_full("low", "high")] = {"deploy": 1.0}
    with pytest.raises(ValidationError) as e:
        inc.subjective_expected_utility(example1, "H", "ground_truth", broken)
    assert e.value.issues == [
        "row-not-normalized: InformationSet(agent='H', observation="
        "(('C', 'high'), ('D_A', 'low')), actions=('deploy', 'not_deploy'))"]


def test_missing_reachable_row_raises_in_best_response(example1, ne_profile):
    partial = {k: v for k, v in ne_profile.items()
               if k != iset_report("H", "high")}
    others = {k: v for k, v in partial.items() if k.agent == "H"}
    with pytest.raises(MissingRule):
        inc.best_response_ii(example1, "A", others)
    with pytest.raises(MissingRule):
        inc.subjective_expected_utility(example1, "A", "ai_belief", partial)


def test_count_pure_ii_profiles_matches_enumeration(example1):
    assert inc.count_pure_ii_profiles(example1) == 256
    assert len(list(inc.iter_pure_ii_profiles(example1))) == 256
    # the cap trips on the running product, as the enumeration's does
    with pytest.raises(SearchSpaceTooLarge, match="^4 pure profiles exceeds cap 3$"):
        inc.count_pure_ii_profiles(example1, cap=3)
    with pytest.raises(SearchSpaceTooLarge, match="^4 pure profiles exceeds cap 3$"):
        next(inc.iter_pure_ii_profiles(example1, cap=3))


def _cap_cases():
    """(search, module, value function it computes, message at cap 3) for each
    exhaustive search: the maid fallback over ``iter_pure_rules``,
    ``verify_equivalence`` over ``iter_pure_ii_profiles``, the ii fallback
    and ``is_interim_nash``'s deviations."""
    honesty = fixtures.honesty_evaluation()
    x = fixtures.evaluation_iimaid()
    conv = iiefg.maid2efgII(x)
    profile = fixtures.ne_ii_profile()
    sigma = iiefg.strategy_from_ii_policy(conv, profile)
    others = {i: r for i, r in profile.items() if i.agent != "H"}
    return [
        (lambda: maid._best_response_exhaustive(honesty, {}, "H", cap=3),
         maid, "_expected_utilities", "4 pure policies exceeds cap 3"),
        (lambda: iiefg.verify_equivalence(x, conv, cap=3),
         iiefg, "_subjective_value", "4 pure profiles exceeds cap 3"),
        (lambda: inc._best_response_ii_exhaustive(x, "H", others, x.objective, cap=3),
         inc, "subjective_expected_utility", "4 candidate policies exceeds cap 3"),
        (lambda: iiefg.is_interim_nash(conv.game, sigma, "ground_truth", cap=3),
         iiefg, "interim_utility", "4 deviations for A exceeds cap 3"),
    ]


@pytest.mark.parametrize("case", range(4))
def test_every_exhaustive_search_trips_one_cap_rule_before_any_value(case):
    search, module, name, message = _cap_cases()[case]
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with mock.patch.object(module, name, counted):
        with pytest.raises(SearchSpaceTooLarge) as e:
            search()
    assert (str(e.value), len(calls)) == (message, 0)
