import random

import pytest
from hypothesis import given, settings, strategies

from iimaid import bn, depth as dp, iiefg, incomplete as inc, maid
from iimaid.bn import Cpd
from iimaid.depth import DepthStack
from iimaid.errors import (
    CycleError, GameError, NotOpenMinded, UnknownAgent, ValidationError,
    ZeroProbabilityEvidence,
)
from iimaid.fixtures import (
    always_low_match_rules, capability_evaluation, honesty_evaluation,
    truthful_match_rules,
)
from iimaid.incomplete import IiMaid, InformationSet, SubjectiveMaid
from iimaid.simulate import simulate
from perfbench import generators
from tests.test_incomplete import iset_cap, iset_full, iset_report, row_checks


def single_agent_chain():
    """One agent takes two sequential decisions; (r, r) pays best."""
    variables = [
        bn.decision("D1", "P", ("l", "r")),
        bn.decision("D2", "P", ("l", "r")),
        bn.utility("U", "P", {"v0": 0.0, "v1": 1.0, "v2": 2.0}),
    ]
    edges = [("D1", "D2"), ("D1", "U"), ("D2", "U")]
    pay = {("l", "l"): "v1", ("l", "r"): "v0", ("r", "l"): "v0", ("r", "r"): "v2"}
    cpds = [Cpd("U", ("D1", "D2"),
                {c: bn.point_row(("v0", "v1", "v2"), v) for c, v in pay.items()})]
    return maid.Maid.build(("P", "Q"), variables, edges, cpds)


def chain_stack():
    chain = single_agent_chain()
    return DepthStack(("P", "Q"), "root", {
        "root": SubjectiveMaid("root", chain, {"P": {"inner": 1.0}}),
        "inner": SubjectiveMaid("inner", chain, {}),
    })


def observed_chance_game(x_row):
    """P observes X, drawn from ``x_row`` over a, b, c, and is paid for r."""
    variables = [
        bn.chance("X", ("a", "b", "c")),
        bn.decision("D", "P", ("l", "r")),
        bn.utility("U", "P", {"lose": 0.0, "win": 1.0}),
    ]
    cpds = [
        Cpd("X", (), {(): x_row}),
        Cpd("U", ("D",), {("l",): {"lose": 1.0, "win": 0.0},
                          ("r",): {"lose": 0.0, "win": 1.0}}),
    ]
    return maid.Maid.build(("P",), variables, [("X", "D"), ("D", "U")], cpds)


def observed_chance_stack(root_row, inner_row):
    return DepthStack(("P",), "root", {
        "root": SubjectiveMaid("root", observed_chance_game(root_row), {"P": {"inner": 1.0}}),
        "inner": SubjectiveMaid("inner", observed_chance_game(inner_row), {}),
    })


NO_C = {"a": 0.5, "b": 0.5, "c": 0.0}


# ------------------------------------------------------------ classification


def test_classify_depth_fixture(depth3):
    depths, k = dp.classify_depth(depth3)
    assert depths == {"h_solo": 0, "a_view": 1, "h_view": 2, "objective": 3}
    assert k == 3


def test_stack_structure_issues_name_nodes(honesty):
    with pytest.raises(ValidationError) as e:
        DepthStack(("A", "H"), "missing", {
            "a": SubjectiveMaid("b", honesty, {"H": {"c": 0.5}}),
            "c": SubjectiveMaid("c", honesty, {"Z": {"a": 1.0}}),
        })
    assert e.value.issues == [
        "unknown-objective: missing",
        "node-id-mismatch: a vs b",
        "belief-row-not-normalized: a.H",
        "unknown-believer: Z in c",
    ]


def test_fully_committed_node_is_depth_zero(honesty):
    full = maid.PostPolicyMaid(honesty, dict(truthful_match_rules()))
    st = DepthStack(("A", "H"), "only",
                    {"only": SubjectiveMaid("only", full, {})})
    assert dp.classify_depth(st) == ({"only": 0}, 0)


def test_beliefless_node_with_two_free_agents_rejected(honesty):
    st = DepthStack(("A", "H"), "only",
                    {"only": SubjectiveMaid("only", honesty, {})})
    with pytest.raises(ValidationError) as e:
        dp.classify_depth(st)
    assert any("depth-contract-violation" in i for i in e.value.issues)


def test_cyclic_beliefs_rejected(honesty):
    tm = truthful_match_rules()
    st = DepthStack(("A", "H"), "a", {
        "a": SubjectiveMaid("a", maid.PostPolicyMaid(honesty, {"D_H": tm["D_H"]}),
                            {"A": {"b": 1.0}}),
        "b": SubjectiveMaid("b", maid.PostPolicyMaid(honesty, {"D_A": tm["D_A"]}),
                            {"H": {"a": 1.0}}),
    })
    with pytest.raises(CycleError):
        dp.classify_depth(st)


def test_a_long_belief_chain_is_classified_without_recursion():
    # Each node's H believes the next; names sort from the objective down
    # the chain, so a depth-first walk would nest 1,500 calls deep.
    solo = maid.PostPolicyMaid(capability_evaluation(),
                               {"D_A": truthful_match_rules()["D_A"]})
    n = 1500
    nodes = {f"n{i:04d}": SubjectiveMaid(
        f"n{i:04d}", solo, {"H": {f"n{i + 1:04d}": 1.0}} if i < n - 1 else {})
        for i in range(n)}
    st = DepthStack(("A", "H"), "n0000", nodes)
    depths, k = dp.classify_depth(st)
    assert (k, depths[f"n{n - 1:04d}"]) == (n - 1, 0)
    assert dp.validate_stack(st) == []


def test_zero_mass_reference_still_breaks_the_contract(honesty):
    tm = truthful_match_rules()
    leaf = SubjectiveMaid("leaf", maid.PostPolicyMaid(honesty, dict(tm)), {})
    st = DepthStack(("A", "H"), "top", {
        "leaf": leaf,
        "top": SubjectiveMaid("top", maid.PostPolicyMaid(honesty, {"D_A": tm["D_A"]}),
                              {"H": {"leaf": 1.0, "top": 0.0}}),
    })
    with pytest.raises(ValidationError) as e:
        dp.classify_depth(st)
    assert e.value.issues == [
        "depth-contract-violation: top (depth 1) references top (depth 1)"]


# ---------------------------------------------------------------- validation


def test_validate_stack_clean(depth3):
    assert dp.validate_stack(depth3) == []


def test_committed_agent_with_beliefs_flagged(honesty):
    tm = truthful_match_rules()
    st = DepthStack(("A", "H"), "c", {
        "c": SubjectiveMaid("c", maid.PostPolicyMaid(honesty, dict(tm)),
                            {"A": {"d": 1.0}}),
        "d": SubjectiveMaid("d", maid.PostPolicyMaid(honesty, {"D_H": tm["D_H"]}), {}),
    })
    assert dp.validate_stack(st) == ["committed-agent-with-beliefs: A in c"]


def test_believed_node_for_wrong_agent_flagged(honesty):
    tm = truthful_match_rules()
    st = DepthStack(("A", "H"), "w", {
        "w": SubjectiveMaid("w", honesty, {"A": {"t": 1.0}, "H": {"t": 1.0}}),
        "t": SubjectiveMaid("t", maid.PostPolicyMaid(honesty, {"D_A": tm["D_A"]}), {}),
    })
    issues = dp.validate_stack(st)
    assert any(i.startswith("believed-node-for-wrong-agent: w.A -> t") for i in issues)


# -------------------------------------------------------------- open minds


def test_fixture_is_open_minded(depth3):
    assert dp.is_open_minded(depth3) == (True, [])


def test_hidden_observation_closes_the_mind(honesty, capability):
    tm = truthful_match_rules()
    st = DepthStack(("A", "H"), "obj", {
        "obj": SubjectiveMaid("obj", honesty,
                              {"A": {"inner": 1.0}, "H": {"inner": 1.0}}),
        "inner": SubjectiveMaid(
            "inner", maid.PostPolicyMaid(capability, {"D_A": tm["D_A"]}), {}),
    })
    ok, gaps = dp.is_open_minded(st)
    assert not ok
    assert ("obj", "H", iset_full("high", "high")) in gaps
    # the report-observing child cannot host the full-observation sets
    assert all(g[0] == "obj" for g in gaps)
    assert len(gaps) == 6


# -------------------------------------------------------- conditional values


def test_conditional_utility_under_commitments(depth3):
    solo = depth3.nodes["h_solo"].model
    # truthful reporting makes the report perfectly informative
    assert dp.conditional_utility(solo, "H", "D_H", {"D_A": "low"}, "deploy") == pytest.approx(1.0)
    assert dp.conditional_utility(solo, "H", "D_H", {"D_A": "high"}, "deploy") == pytest.approx(-5.0)
    assert dp.conditional_utility(solo, "H", "D_H", {"D_A": "high"}, "not_deploy") == pytest.approx(0.0)


def test_conditional_utility_zero_mass_context_falls_back_to_uniform(honesty):
    al = always_low_match_rules()
    fixed = maid.PostPolicyMaid(honesty, {"D_A": al["D_A"]})
    ctx = {"C": "high", "D_A": "high"}
    assert dp.conditional_utility(fixed, "H", "D_H", ctx, "deploy") == pytest.approx(1.0)
    assert dp.conditional_utility(fixed, "H", "D_H", ctx, "not_deploy") == pytest.approx(0.0)


def test_believed_action_value(depth3):
    assert dp.believed_action_value(
        depth3, "a_view", "H", iset_report("H", "low"), "deploy") == pytest.approx(1.0)
    assert dp.believed_action_value(
        depth3, "a_view", "H", iset_report("H", "high"), "deploy") == pytest.approx(-5.0)


def test_value_inputs_name_what_is_unknown(depth3):
    obj = depth3.nodes[depth3.objective].model
    for bad in ("C", "nope"):  # a chance variable, and no variable at all
        with pytest.raises(ValidationError) as e:
            dp.conditional_utility(obj, "H", bad, {}, "high")
        assert e.value.issues == [f"unknown-decision: {bad}"]
    with pytest.raises(UnknownAgent):
        dp.conditional_utility(obj, "nobody", "D_H", {"D_A": "low"}, "deploy")
    with pytest.raises(ValidationError) as e:
        dp.believed_action_value(depth3, "nope", "H", iset_report("H", "low"), "deploy")
    assert e.value.issues == ["unknown-node: nope"]


def test_value_inputs_must_be_a_parent_assignment_and_an_action(depth3):
    obj = depth3.nodes[depth3.objective].model  # D_H observes C and D_A
    for ctx in ({"D_A": "low"}, {"C": "low", "D_A": "low", "X": "a"},
                {"C": "low", "D_A": "medium"}):
        with pytest.raises(ValidationError) as e:
            dp.conditional_utility(obj, "H", "D_H", ctx, "deploy")
        assert e.value.issues == [f"not-a-parent-assignment: {ctx} for D_H"]
    with pytest.raises(ValidationError) as e:
        dp.conditional_utility(obj, "H", "D_H", {"C": "low", "D_A": "low"}, "wait")
    assert e.value.issues == ["unknown-action: wait for D_H"]


def _value_cases(levels, seed, n_chance, obs):
    """The models of a random stack of depth ``levels`` and of its solved
    form, whose committed rules rule out observations that the all-uniform
    fallback reaches; for ``levels`` 1, a game whose chance row rules an
    observation out in every measure."""
    if levels == 1:
        rows = random.Random(seed).choice([NO_C, {"a": 0.0, "b": 1.0, "c": 0.0}])
        return [observed_chance_game(rows)]
    make = {2: generators.random_depth2_stack, 3: generators.random_depth3_stack}
    stack = make[levels](random.Random(seed), n_chance, obs)
    final = dp.recursive_best_response(stack).final
    return [s.model for s in (*stack.nodes.values(), *final.nodes.values())]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(strategies.sampled_from([1, 2, 3]), strategies.integers(0, 2**16),
       strategies.integers(3, 5), strategies.integers(1, 2), strategies.data())
def test_conditional_utility_matches_the_enumeration_oracle(levels, seed, n_chance, obs, data):
    models = _value_cases(levels, seed, n_chance, obs)
    model = data.draw(strategies.sampled_from(models))
    m = maid.base_maid(model)
    d = data.draw(strategies.sampled_from(m.decisions()))
    agent = data.draw(strategies.sampled_from(m.agents))
    ctx = {p: data.draw(strategies.sampled_from(m.variables[p].domain)) for p in m.parents[d]}
    action = data.draw(strategies.sampled_from(m.variables[d].domain))
    try:
        want = dp._walk_conditional_utility(model, agent, d, ctx, action)
    except ZeroProbabilityEvidence as e:
        with pytest.raises(ZeroProbabilityEvidence) as got:
            dp.conditional_utility(model, agent, d, ctx, action)
        assert type(got.value) is type(e)
        return
    assert abs(dp.conditional_utility(model, agent, d, ctx, action) - want) <= 1e-12


def test_value_tables_leave_out_the_observations_a_measure_rules_out():
    # the solved objective commits D1 to a pure rule of the one chance
    # variable D2 also sees, so its measure rules out half of D2's
    # observations, and the all-uniform fallback prices them
    stack = generators.random_depth3_stack(random.Random(0), 4, 1)
    solved = dp.recursive_best_response(stack).final.nodes["objective"].model
    m = maid.base_maid(solved)
    contexts = [{ctx for ctx, _ in dp._conditional_values(measure, "P2", "D2")}
                for measure in (solved, m)]
    assert 2 * len(contexts[0]) == len(contexts[1]) == 2 ** len(m.parents["D2"])
    # no measure reaches X = c when the chance row gives c no mass
    with pytest.raises(ZeroProbabilityEvidence):
        dp.conditional_utility(observed_chance_game(NO_C), "P", "D", {"X": "c"}, "r")


def test_an_agent_without_utilities_still_needs_a_reachable_observation():
    g = observed_chance_game(NO_C)
    edges = [(p, v) for v in g.variables for p in g.parents[v]]
    two = maid.Maid.build(("P", "Q"), g.variables.values(), edges, g.cpds.values())
    for value_fn in (dp.conditional_utility, dp._walk_conditional_utility):
        assert value_fn(two, "Q", "D", {"X": "a"}, "r") == 0.0
        with pytest.raises(ZeroProbabilityEvidence):
            value_fn(two, "Q", "D", {"X": "c"}, "r")


# ----------------------------------------------------- assignment operators


def test_finality_moves_backwards_through_own_decisions():
    st = chain_stack()
    first = dp.final_information_sets(st, "root", "P")
    assert {i.observation for i in first} == {(("D1", "l"),), (("D1", "r"),)}

    st2, steps = dp.final_decision_assignment(st, "root", "P")
    assert [(s.info_set.observation, s.action, s.value) for s in steps] == [
        ((("D1", "l"),), "l", 1.0),
        ((("D1", "r"),), "r", 2.0),
    ]
    assert all(s.written_to == ("inner",) for s in steps)

    second = dp.final_information_sets(st2, "root", "P")
    assert {i.observation for i in second} == {()}
    _, steps2 = dp.final_decision_assignment(st2, "root", "P")
    assert [(s.info_set.observation, s.action, s.value) for s in steps2] == [
        ((), "r", 2.0)]


def test_depth1_best_response_drives_all_passes():
    st = chain_stack()
    _, policy, steps = dp.depth1_best_response(st, "root", "P")
    assert [(s.info_set.observation, s.action, s.value) for s in steps] == [
        ((("D1", "l"),), "l", 1.0),
        ((("D1", "r"),), "r", 2.0),
        ((), "r", 2.0),
    ]
    rows = {k.observation: v for k, v in policy.items()}
    assert rows[()] == {"l": 0.0, "r": 1.0}
    assert rows[(("D1", "r"),)] == {"l": 0.0, "r": 1.0}


def test_depth1_best_response_requires_depth_one(depth3):
    with pytest.raises(ValidationError) as e:
        dp.depth1_best_response(depth3, "objective", "H")
    assert e.value.issues == ["not-depth-1: objective.H believes ['h_view']"]


def matching_game(x_row):
    """P picks D in {a, b}, unobserved X is drawn from ``x_row``, and P is
    paid 1 when D matches X."""
    variables = [
        bn.chance("X", ("a", "b")),
        bn.decision("D", "P", ("a", "b")),
        bn.utility("U", "P", {"lose": 0.0, "win": 1.0}),
    ]
    win, lose = {"lose": 0.0, "win": 1.0}, {"lose": 1.0, "win": 0.0}
    cpds = [
        Cpd("X", (), {(): x_row}),
        Cpd("U", ("D", "X"), {(d, x): win if d == x else lose for d in "ab" for x in "ab"}),
    ]
    return maid.Maid.build(("P",), variables, [("D", "U"), ("X", "U")], cpds)


def shared_world_stack(with_r1):
    """Objective r2 believes z_world (X = a) with 0.2 and b_world (X = b)
    with 0.8; r1, reduced first, believes z_world alone."""
    half = {"a": 0.5, "b": 0.5}
    nodes = {
        "b_world": SubjectiveMaid("b_world", matching_game({"a": 0.0, "b": 1.0}), {}),
        "z_world": SubjectiveMaid("z_world", matching_game({"a": 1.0, "b": 0.0}), {}),
        "r2": SubjectiveMaid("r2", matching_game(half),
                             {"P": {"z_world": 0.2, "b_world": 0.8}}),
    }
    if with_r1:
        nodes["r1"] = SubjectiveMaid("r1", matching_game(half), {"P": {"z_world": 1.0}})
    return DepthStack(("P",), "r2", nodes)


def test_believed_models_committed_apart_raise_instead_of_misreporting():
    # r1 commits a in z_world; r2 then decides b in b_world alone, and no
    # one row describes what r2's believed models play
    stack = shared_world_stack(with_r1=True)
    assert dp.validate_stack(stack) == [] and dp.is_open_minded(stack)[0]
    with pytest.raises(GameError) as e:
        dp.recursive_best_response(stack)
    assert str(e.value) == (
        "conflicting-commitments: InformationSet(agent='P', observation=(), "
        "actions=('a', 'b')) at r2: believed nodes b_world and z_world hold "
        "different rows")

    # without r1, r2 commits b in both and its rules follow the profile
    result = dp.recursive_best_response(shared_world_stack(with_r1=False))
    assert [(s.node, s.action, s.value, s.written_to) for s in result.trace] == [
        ("r2", "b", 0.8, ("b_world", "z_world"))]
    assert list(result.profile.values()) == [{"a": 0.0, "b": 1.0}]
    assert result.objective_rules["D"].rows == {(): {"a": 0.0, "b": 1.0}}


def test_tie_breaks_toward_least_action():
    chain = single_agent_chain()
    flat = maid.Maid.build(
        ("P", "Q"),
        [v if v.name != "U" else bn.utility("U", "P", {"v0": 0.0, "v1": 0.0, "v2": 0.0})
         for v in chain.variables.values()],
        [(u, v) for v in chain.variables for u in chain.parents[v]],
        chain.cpds.values())
    st = DepthStack(("P", "Q"), "root", {
        "root": SubjectiveMaid("root", flat, {"P": {"inner": 1.0}}),
        "inner": SubjectiveMaid("inner", flat, {}),
    })
    _, policy, steps = dp.depth1_best_response(st, "root", "P")
    assert all(s.action == "l" for s in steps)


def test_reduce_copies_precommitted_rows_verbatim():
    chain = single_agent_chain()
    mix = Cpd("D2", ("D1",),
              {("l",): {"l": 0.5, "r": 0.5}, ("r",): {"l": 0.5, "r": 0.5}})
    st = DepthStack(("P", "Q"), "root", {
        "root": SubjectiveMaid("root", chain, {"P": {"inner": 1.0}}),
        "inner": SubjectiveMaid("inner", maid.PostPolicyMaid(chain, {"D2": mix}), {}),
    })
    reduced, steps = dp.reduce_stack(st)
    xi = maid.fixed_rules(reduced.nodes["root"].model)
    assert dict(xi["D2"].rows) == {("l",): {"l": 0.5, "r": 0.5},
                                   ("r",): {"l": 0.5, "r": 0.5}}
    # against the mixed commitment, r earns 1.0 and l earns 0.5
    assert [(s.info_set.observation, s.action, s.value) for s in steps] == [
        ((), "r", 1.0)]
    assert dp.classify_depth(reduced) == ({"inner": 0, "root": 0}, 0)


def test_unsupported_contexts_commit_the_least_action():
    win, least = {"l": 0.0, "r": 1.0}, {"l": 1.0, "r": 0.0}
    st = observed_chance_stack(NO_C, NO_C)
    committed, policy, _ = dp.depth1_best_response(st, "root", "P")
    inner = maid.fixed_rules(committed.nodes["inner"].model)["D"]
    assert dict(inner.rows) == {("a",): win, ("b",): win, ("c",): least}
    # the policy read back is the committed rows at the supported contexts
    assert policy == {
        InformationSet("P", (("X", ctx),), ("l", "r")): inner.rows[(ctx,)]
        for ctx in ("a", "b")
    }
    # X=c is resolved in the believed model, yet unsupported at the root
    st = observed_chance_stack(NO_C, {"a": 0.4, "b": 0.3, "c": 0.3})
    _, policy, _ = dp.depth1_best_response(st, "root", "P")
    assert policy[InformationSet("P", (("X", "c"),), ("l", "r"))] == win
    reduced, _ = dp.reduce_stack(st)
    root = maid.fixed_rules(reduced.nodes["root"].model)["D"]
    assert dict(root.rows) == {("a",): win, ("b",): win, ("c",): least}


def test_profile_rules_write_the_least_action_where_no_policy_reaches():
    game = observed_chance_game(NO_C)
    # "full" faces X=c, so the set is the game's; the objective gives it no weight
    x = IiMaid(("P",), "no_c", {
        "no_c": SubjectiveMaid("no_c", game, {"P": {"no_c": 1.0, "full": 0.0}}),
        "full": SubjectiveMaid("full", observed_chance_game({"a": 0.2, "b": 0.3, "c": 0.5}),
                               {"P": {"full": 1.0}}),
    })
    conv = iiefg.maid2efgII(x)
    at = {ctx: InformationSet("P", (("X", ctx),), ("l", "r")) for ctx in "abc"}
    answers = []
    for row_c in ({"l": 0.0, "r": 1.0}, {"l": 0.5, "r": 0.5}, {"l": 0.25, "r": 0.75}):
        profile = {at["a"]: {"l": 0.0, "r": 1.0}, at["b"]: {"l": 0.7, "r": 0.3},
                   at["c"]: row_c}
        rules = inc.profile_rules_for_model(game, profile)
        assert rules["D"].rows[("c",)] == {"l": 1.0, "r": 0.0}
        answers.append((
            maid.expected_utilities(game, rules),
            inc.subjective_expected_utility(x, "P", "no_c", profile),
            iiefg.verify_equivalence(x, conv, profiles=[profile]),
            simulate(game, rules, 200, 3),
        ))
    assert answers[0][2][0]
    assert all(repr(a) == repr(answers[0]) for a in answers)


def test_set_no_believed_model_realizes_is_never_resolved():
    st = observed_chance_stack({"a": 0.4, "b": 0.3, "c": 0.3}, NO_C)
    # X=c is in the child's domain, but its chance row rules it out
    assert dp.is_open_minded(st) == (
        False, [("root", "P", InformationSet("P", (("X", "c"),), ("l", "r")))])
    with pytest.raises(NotOpenMinded) as e:
        dp.reduce_stack(st)
    assert str(e.value) == (
        "InformationSet(agent='P', observation=(('X', 'c'),), actions=('l', 'r')) "
        "never resolved for root")


def test_believed_model_that_cannot_reach_the_observation_adds_nothing():
    full = {"a": 0.4, "b": 0.3, "c": 0.3}
    st = DepthStack(("P",), "root", {
        "root": SubjectiveMaid("root", observed_chance_game(full), {"P": {"c0": 0.5, "c1": 0.5}}),
        "c0": SubjectiveMaid("c0", observed_chance_game(NO_C), {}),
        "c1": SubjectiveMaid("c1", observed_chance_game(full), {}),
    })
    assert dp.validate_stack(st) == [] and dp.is_open_minded(st) == (True, [])
    res = dp.recursive_best_response(st)
    # c0 cannot reach X=c, so only c1's half of the belief prices it
    assert [(s.info_set.observation, s.action, pytest.approx(s.value), s.written_to)
            for s in res.trace] == [
        ((("X", "a"),), "r", 1.0, ("c0", "c1")),
        ((("X", "b"),), "r", 1.0, ("c0", "c1")),
        ((("X", "c"),), "r", 0.5, ("c1",)),
    ]
    assert dp.audit_trace(st, res) == []


def test_committed_rows_are_checked_only_by_the_model_that_commits_them(depth3):
    # each PostPolicyMaid of the solve checks the rules it is made with, 40
    # rows in all; reading the picks into rules checks none (18 more when
    # the rules' writer checked its rows too), and no conditional utility
    # checks the uniform rules it writes itself (14 more when each was
    # weighed on a network built by ``maid.induced_network``, 54 in all)
    assert row_checks(lambda: dp.recursive_best_response(depth3)) == 40


# X's row over a, b, c, from small integer weights, so that zeros are common
chance_rows = strategies.lists(
    strategies.integers(0, 2), min_size=3, max_size=3).filter(any).map(
    lambda w: {x: c / sum(w) for x, c in zip("abc", w)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chance_rows, strategies.lists(
    strategies.tuples(chance_rows, strategies.integers(1, 3)), min_size=1, max_size=3))
def test_open_minded_stacks_solve_and_the_rest_fail_up_front(root_row, believed):
    total = sum(w for _, w in believed)
    st = DepthStack(("P",), "root", {
        "root": SubjectiveMaid("root", observed_chance_game(root_row), {
            "P": {f"c{i}": w / total for i, (_, w) in enumerate(believed)}}),
        **{f"c{i}": SubjectiveMaid(f"c{i}", observed_chance_game(row), {})
           for i, (row, _) in enumerate(believed)},
    })
    ok, gaps = dp.is_open_minded(st)
    if ok:
        assert dp.audit_trace(st, dp.recursive_best_response(st)) == []
    else:
        with pytest.raises(NotOpenMinded) as e:
            dp.recursive_best_response(st)
        assert str(e.value) == f"{len(gaps)} unbelieved information sets, first: {gaps[0]}"


def test_reduce_drops_depth_by_one(depth3):
    depths, k = dp.classify_depth(depth3)
    st = depth3
    for want in range(k - 1, -1, -1):
        st, _ = dp.reduce_stack(st)
        assert dp.classify_depth(st)[1] == want


# ----------------------------------------------------- recursive best response


def test_recursive_best_response_trace(depth3):
    res = dp.recursive_best_response(depth3)
    assert res.depth == 3
    got = [(s.round, s.node, s.agent, s.info_set.observation, s.action,
            pytest.approx(s.value), s.written_to)
           for s in res.trace]
    assert got == [
        (1, "a_view", "H", (("D_A", "high"),), "not_deploy", 0.0, ("h_solo",)),
        (1, "a_view", "H", (("D_A", "low"),), "deploy", 1.0, ("h_solo",)),
        (2, "h_view", "A", (("C", "high"),), "low", 1.0, ("a_view",)),
        (2, "h_view", "A", (("C", "low"),), "low", 1.0, ("a_view",)),
        (3, "objective", "H", (("C", "high"), ("D_A", "high")), "deploy", 1.0, ("h_view",)),
        (3, "objective", "H", (("C", "high"), ("D_A", "low")), "not_deploy", 0.0, ("h_view",)),
        (3, "objective", "H", (("C", "low"), ("D_A", "high")), "not_deploy", 0.0, ("h_view",)),
        (3, "objective", "H", (("C", "low"), ("D_A", "low")), "deploy", 1.0, ("h_view",)),
    ]


def test_recursive_best_response_outcome(depth3):
    res = dp.recursive_best_response(depth3)
    rules = res.objective_rules
    assert {c: max(r, key=r.get) for c, r in rules["D_A"].rows.items()} == {
        ("high",): "low", ("low",): "low"}
    assert {c: max(r, key=r.get) for c, r in rules["D_H"].rows.items()} == {
        ("high", "high"): "deploy", ("high", "low"): "not_deploy",
        ("low", "high"): "not_deploy", ("low", "low"): "deploy"}
    final_model = res.final.nodes[res.final.objective].model
    assert maid.expected_utilities(final_model, {}) == pytest.approx(
        {"A": 0.8, "H": 0.9})


def test_audit_trace_accepts_fixture_run(depth3):
    res = dp.recursive_best_response(depth3)
    assert dp.audit_trace(depth3, res) == []


def test_rbr_on_committed_stack_is_vacuous(honesty):
    full = maid.PostPolicyMaid(honesty, dict(truthful_match_rules()))
    st = DepthStack(("A", "H"), "only",
                    {"only": SubjectiveMaid("only", full, {})})
    res = dp.recursive_best_response(st)
    assert res.depth == 0
    assert not res.trace and not res.profile
    assert dp.audit_trace(st, res) == []


# ---------------------------------------------------------------- unrolling


def test_unroll_builds_path_tree(example1):
    st1 = dp.unroll(example1, 1)
    assert sorted(st1.nodes) == [
        "objective", "objective/A:ai_belief", "objective/H:ground_truth"]
    st2 = dp.unroll(example1, 2)
    assert sorted(st2.nodes) == [
        "objective",
        "objective/A:ai_belief",
        "objective/A:ai_belief/H:ai_belief",
        "objective/H:ground_truth",
        "objective/H:ground_truth/A:ai_belief",
    ]
    assert dp.classify_depth(st2) == ({
        "objective": 2,
        "objective/A:ai_belief": 1,
        "objective/A:ai_belief/H:ai_belief": 0,
        "objective/H:ground_truth": 1,
        "objective/H:ground_truth/A:ai_belief": 0,
    }, 2)
    assert dp.validate_stack(st2) == []
    assert dp.is_open_minded(st2)[0]


def test_unrolled_best_response(example1):
    st = dp.unroll(example1, 2)
    res = dp.recursive_best_response(st)
    rules = res.objective_rules
    assert {c: max(r, key=r.get) for c, r in rules["D_A"].rows.items()} == {
        ("high",): "high", ("low",): "high"}
    assert {c: max(r, key=r.get) for c, r in rules["D_H"].rows.items()} == {
        ("high", "high"): "deploy", ("high", "low"): "not_deploy",
        ("low", "high"): "not_deploy", ("low", "low"): "deploy"}
    assert dp.audit_trace(st, res) == []


def unroll_recursive(x, k):
    """``dp.unroll`` as one recursive call per node: the oracle for its
    node ids, contents and insertion order."""
    nodes = {}

    def build(model_id, left, path, subject):
        src = x.models[model_id]
        if left == 0:
            rules = {}
            for agent in maid.base_maid(src.model).agents:
                if agent == subject:
                    continue
                for d in maid.free_decisions(src.model, agent):
                    rules[d] = maid.uniform_rule(src.model, d)
            model = (maid.PostPolicyMaid(maid.base_maid(src.model),
                                         {**maid.fixed_rules(src.model), **rules})
                     if rules else src.model)
            nodes[path] = SubjectiveMaid(path, model, {})
            return path
        beliefs = {}
        for agent in inc.believers(src):
            if agent == subject or not maid.free_decisions(src.model, agent):
                continue
            row = {}
            for target in sorted(src.beliefs[agent]):
                p = src.beliefs[agent][target]
                if p <= 0.0:
                    continue
                row[build(target, left - 1, f"{path}/{agent}:{target}", agent)] = p
            beliefs[agent] = row
        nodes[path] = SubjectiveMaid(path, src.model, beliefs)
        return path

    build(x.objective, k, "objective", None)
    return nodes


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_unroll_matches_the_recursive_builder(example1, k):
    games = [example1] + [generators.random_ii_game(random.Random(seed), 3, 2, 1, 1, 1)
                          for seed in range(3)]
    for x in games:
        want = unroll_recursive(x, k)
        got = dp.unroll(x, k).nodes
        assert list(got) == list(want)
        assert got == want


def test_unroll_deeper_than_the_recursion_limit(example1):
    # One model that both agents believe: each branch is a chain, so the
    # stack has 2k + 1 nodes and depth k.
    m = example1.models["ai_belief"]
    x = IiMaid(example1.agents, "m", {
        "m": SubjectiveMaid("m", m.model, {a: {"m": 1.0} for a in example1.agents})})
    st = dp.unroll(x, 5000)
    assert len(st.nodes) == 10001
    assert dp.classify_depth(st)[1] == 5000
