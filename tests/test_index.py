"""The per-object structural index: built once, shared, immutable, invisible."""
import ast
from pathlib import Path
from types import MappingProxyType

import pytest

from iimaid import bn, depth, efg, fixtures, gamedoc, iiefg, incomplete, maid
from iimaid.errors import GameError, MissingRule, UnknownAgent
from iimaid.fixtures import always_low_match_rules, truthful_match_rules
from iimaid.incomplete import InformationSet


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _counting_builds(monkeypatch, module, name):
    """Count the builds of the index ``module.name``: its undecorated
    builder wrapped in a counter and indexed in its place."""
    calls = []
    build = getattr(module, name).__wrapped__

    def counter(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(module, name, bn.indexed(counter))
    return calls


def test_second_is_nash_ii_rebuilds_no_structure(monkeypatch, example1, ne_profile):
    topo = _counting(monkeypatch, bn, "topo_sort")
    support = _counting(monkeypatch, incomplete, "_context_weights")
    first = incomplete.is_nash_ii(example1, ne_profile)
    assert topo and support
    topo.clear()
    support.clear()
    assert incomplete.is_nash_ii(example1, ne_profile) == first
    assert topo == [] and support == []


def test_post_policy_maids_share_their_base_support_contexts(monkeypatch, honesty):
    support = _counting(monkeypatch, incomplete, "_context_weights")
    truthful = maid.PostPolicyMaid(honesty, {"D_A": truthful_match_rules()["D_A"]})
    low = maid.PostPolicyMaid(honesty, {"D_A": always_low_match_rules()["D_A"]})
    slots = incomplete._decision_slots(honesty)
    assert incomplete._decision_slots(truthful) is slots
    assert incomplete._decision_slots(low) is slots
    assert sorted(name for _, _, name in support) == honesty.decisions()


def test_cached_structure_is_immutable(example1):
    gt = example1.models["ground_truth"].model
    assert isinstance(incomplete.model_information_sets(gt, "H"), frozenset)
    assert isinstance(incomplete.information_sets(example1, "H"), frozenset)
    assert isinstance(incomplete._faced_sets(gt), MappingProxyType)
    relevant, rest = incomplete._profile_slots(example1, "H", example1.objective)
    assert isinstance(relevant, tuple) and isinstance(rest, tuple)
    assert all(isinstance(d, tuple) for d in incomplete._faced_sets(gt).values())
    assert isinstance(maid._sweep_order(gt), tuple)

    # dict-valued answers are fresh copies, so a caller's edits stay local
    conv = iiefg.maid2efgII(example1)
    tree = conv.game.space.games["ground_truth"]
    cases = [
        lambda: efg.info_sets(tree, "H"),
        lambda: iiefg.belief_types(conv.game.space, "A"),
        lambda: iiefg.meta_information_sets(conv.game, "H"),
    ]
    for get in cases:
        first = get()
        want = {k: list(v) if isinstance(v, list) else v for k, v in first.items()}
        key = next(iter(first))
        if isinstance(first[key], list):
            first[key].append(-1)
        first.clear()
        assert get() == want


def _decorated_indexes():
    """Every module-level function in the package decorated ``@bn.indexed``
    (``@indexed`` in ``bn``), as (module, name)."""
    src = Path(bn.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(
                    getattr(d, "attr", getattr(d, "id", None)) == "indexed"
                    for d in node.decorator_list):
                found.add((path.stem, node.name))
    return found


def test_every_index_hands_back_the_value_it_kept(example1, ne_profile, honesty):
    conv = iiefg.maid2efgII(example1)
    g, tree = conv.game, conv.game.space.games["ground_truth"]
    gt = example1.models["ground_truth"].model
    cases = {
        ("bn", "weight_one"): (gt.variables["D_H"],),
        ("efg", "_info_sets"): (tree, "H"),
        ("efg", "_leaves"): (tree,),
        ("efg", "_parents"): (tree,),
        ("efg", "_expansion"): (gt, None),
        ("iiefg", "_belief_types"): (g.space, "A"),
        ("iiefg", "_believed_states"): (g.space, "A", "ground_truth"),
        ("iiefg", "_meta_information_sets"): (g, "H"),
        ("iiefg", "_state_cells"): (g, "ground_truth"),
        ("iiefg", "_sources"): (conv, tuple(ne_profile)),
        ("incomplete", "information_sets"): (example1, "H"),
        ("incomplete", "_build_decision_slots"): (gt,),
        ("incomplete", "_faced_sets"): (gt,),
        ("incomplete", "_profile_slots"): (example1, "H", example1.objective),
        ("incomplete", "_pure_slots"): (example1,),
        ("incomplete", "_every_information_set"): (example1,),
        ("incomplete", "_believed"): (example1, "H", example1.objective),
        ("maid", "_free_decisions"): (honesty, "H"),
        ("maid", "_sweep_order"): (honesty,),
        ("maid", "_pruned_order"): (honesty, None),
        ("maid", "_q_sweep"): (honesty, (("D_H", "H"),), False),
        ("maid", "_payoff_tables"): (gt,),
        ("depth", "_conditional_values"): (honesty, "H", "D_H"),
    }
    assert set(cases) == _decorated_indexes()
    modules = {"bn": bn, "depth": depth, "efg": efg, "iiefg": iiefg,
               "incomplete": incomplete, "maid": maid}
    for (module, name), args in cases.items():
        index = getattr(modules[module], name)
        first = index(*args)
        assert index(*args) is first, name
        assert first == index.__wrapped__(*args), name


def _index_keys(obj):
    return set(vars(obj).get("_index", {}))


def test_a_build_that_raises_keeps_nothing(example1, ne_profile):
    conv = iiefg.maid2efgII(example1)
    tree = conv.game.space.games["ground_truth"]
    # a good lift first: the conversion keeps its ``_sources`` and the game
    # the ``_meta_information_sets`` that a failing ``_sources`` build reads
    # before it raises
    iiefg.strategy_from_ii_policy(conv, ne_profile)
    stray = InformationSet("H", (("X", "x"),), ("high", "low"))
    cases = [
        (conv.game, lambda: iiefg.state_strategy(conv.game, {}, "elsewhere"),
         GameError, "unknown state: elsewhere"),
        (tree, lambda: efg.info_sets(tree, "Z"), UnknownAgent, "Z"),
        (conv, lambda: iiefg.strategy_from_ii_policy(
            conv, {**ne_profile, stray: {"high": 1.0, "low": 0.0}}),
         MissingRule, "unknown information set"),
    ]
    for obj, call, error, message in cases:
        before = _index_keys(obj)
        for _ in range(2):
            with pytest.raises(error, match=message):
                call()
            assert _index_keys(obj) == before


def test_index_leaves_equality_repr_and_serialization_alone():
    x, fresh_x = fixtures.evaluation_iimaid(), fixtures.evaluation_iimaid()
    m, fresh_m = x.models["ground_truth"].model, fresh_x.models["ground_truth"].model
    before = (repr(x), gamedoc.serialize_document(x), repr(m), gamedoc.serialize_document(m))
    incomplete.is_nash_ii(x, fixtures.ne_ii_profile())
    iiefg.verify_equivalence(x, iiefg.maid2efgII(x), profiles=[fixtures.ne_ii_profile()])
    assert vars(m).get("_index") and vars(x).get("_index")
    assert not vars(fresh_m).get("_index") and not vars(fresh_x).get("_index")
    assert x == fresh_x and m == fresh_m
    after = (repr(x), gamedoc.serialize_document(x), repr(m), gamedoc.serialize_document(m))
    assert after == before
    assert after == (repr(fresh_x), gamedoc.serialize_document(fresh_x),
                     repr(fresh_m), gamedoc.serialize_document(fresh_m))



def _shared_belief_game(x):
    """The bundled game with H splitting belief between both models, so
    both agents read the AI's model."""
    gt = x.models["ground_truth"]
    beliefs = {**gt.beliefs, "H": {"ai_belief": 0.5, "ground_truth": 0.5}}
    return incomplete.IiMaid(x.agents, x.objective, {
        **x.models,
        "ground_truth": incomplete.SubjectiveMaid("ground_truth", gt.model, beliefs),
    })


def test_is_nash_ii_makes_one_value_pass_per_agent_and_believed_model(
        monkeypatch, example1, ne_profile):
    x = _shared_belief_game(example1)
    passes = _counting(monkeypatch, incomplete, "_decision_values")
    evaluations = _counting(monkeypatch, incomplete, "_expected_utilities")
    incomplete.is_nash_ii(x, ne_profile)
    model_id = {id(s.model): sid for sid, s in x.models.items()}
    assert sorted((agent, model_id[id(model)]) for model, _, ((_, agent),) in passes) == [
        ("A", "ai_belief"), ("H", "ai_belief"), ("H", "ground_truth")]
    assert evaluations == []
    passes.clear()
    assert incomplete.is_nash_ii(example1, ne_profile) == (True, {"A": 0.0, "H": 0.0})
    assert len(passes) == 2


def test_belief_supports_build_once_per_key(monkeypatch, example1, ne_profile):
    believed = _counting_builds(monkeypatch, incomplete, "_believed")
    states = _counting_builds(monkeypatch, iiefg, "_believed_states")
    keys = _counting_builds(monkeypatch, incomplete, "_every_information_set")
    conv = iiefg.maid2efgII(example1)
    assert iiefg.verify_equivalence(example1, conv) == (True, 0.0)
    for _ in range(10):
        assert incomplete.is_nash_ii(example1, ne_profile) == (True, {"A": 0.0, "H": 0.0})
    at = example1.objective
    assert [(id(x), agent, where) for x, agent, where in believed] == [
        (id(example1), "A", at), (id(example1), "H", at)]
    assert [(id(space), agent, where) for space, agent, where in states] == [
        (id(conv.game.space), "A", at), (id(conv.game.space), "H", at)]
    assert [id(x) for x, in keys] == [id(example1)]


def _distinct_restrictions(x, conv, profiles):
    """How many model evaluations and tree walks ``verify_equivalence``
    needs: distinct (model, rules it reads) over the models some agent
    believes at the objective, and distinct (state, agent, strategy played
    there) over the states the agent believes."""
    models, trees = set(), set()
    for profile in profiles:
        sigma = iiefg.strategy_from_ii_policy(conv, profile)
        for agent in x.agents:
            for sid, w in x.models[x.objective].beliefs[agent].items():
                if w <= 0.0:
                    continue
                rules = incomplete.profile_rules_for_model(x.models[sid].model, profile)
                models.add((sid, repr(sorted((d, sorted(r.rows.items())) for d, r in rules.items()))))
                played = iiefg.state_strategy(conv.game, sigma, sid)
                trees.add((sid, agent, repr(sorted(played.items()))))
    return len(models), len(trees)


def test_verify_equivalence_evaluates_each_restriction_once(
        monkeypatch, example1, ne_profile):
    evaluations = _counting(monkeypatch, incomplete, "_expected_utilities")
    walks = _counting(monkeypatch, iiefg, "efg_expected_utility")
    conv = iiefg.maid2efgII(example1)
    profiles = list(incomplete.iter_pure_ii_profiles(example1))
    assert iiefg.verify_equivalence(example1, conv) == (True, 0.0)
    # A reads 16 restrictions of the AI's model, H 64 of the ground truth
    assert (len(evaluations), len(walks)) == (80, 80) == _distinct_restrictions(
        example1, conv, profiles)

    x = _shared_belief_game(example1)
    conv = iiefg.maid2efgII(x)
    profiles = list(incomplete.iter_pure_ii_profiles(x))[:3] + [ne_profile] * 2
    evaluations.clear()
    walks.clear()
    assert iiefg.verify_equivalence(x, conv, profiles=profiles)[0]
    assert (len(evaluations), len(walks)) == _distinct_restrictions(x, conv, profiles)
    assert len(evaluations) < len(profiles) * len(x.models)


def test_verify_equivalence_prices_a_full_read_model_once_per_profile(
        monkeypatch, honesty):
    # Both agents believe the one model, which reads all 6 rows of each of
    # 64 profiles: its result is kept for no later profile, but the second
    # agent of a profile reads the first one's.
    evaluations = _counting(monkeypatch, incomplete, "_expected_utilities")
    m = {a: {"m": 1.0} for a in honesty.agents}
    x = incomplete.IiMaid(honesty.agents, "m", {"m": incomplete.SubjectiveMaid("m", honesty, m)})
    conv = iiefg.maid2efgII(x)
    assert iiefg.verify_equivalence(x, conv) == (True, 0.0)
    profiles = list(incomplete.iter_pure_ii_profiles(x))
    assert len(evaluations) == _distinct_restrictions(x, conv, profiles)[0] == 64


def test_verify_equivalence_reads_rows_off_each_profile(monkeypatch, example1):
    # No strategy is lifted per profile, and no state's strategy built per
    # state believed: the rows come straight off the profile.
    lifts = _counting(monkeypatch, iiefg, "strategy_from_ii_policy")
    played = _counting(monkeypatch, iiefg, "state_strategy")
    assert iiefg.verify_equivalence(example1, iiefg.maid2efgII(example1)) == (True, 0.0)
    assert (len(lifts), len(played)) == (0, 0)


def test_verify_equivalence_keeps_only_results_that_can_repeat(
        monkeypatch, example1, honesty):
    kept = []
    original = iiefg._memo

    def spy(table, key, compute, *args):
        value = original(table, key, compute, *args)
        kept.append((id(table), key))
        return value

    monkeypatch.setattr(iiefg, "_memo", spy)
    # Each bundled restriction reads fewer rows than the 8 of a profile.
    assert iiefg.verify_equivalence(example1, iiefg.maid2efgII(example1)) == (True, 0.0)
    assert len(set(kept)) == 80 + 80

    # One model reading all 6 rows of each of 64 profiles, and one state
    # playing all 6: no key could repeat, so nothing is kept.
    kept.clear()
    m = {a: {"m": 1.0} for a in honesty.agents}
    x = incomplete.IiMaid(honesty.agents, "m", {"m": incomplete.SubjectiveMaid("m", honesty, m)})
    assert iiefg.verify_equivalence(x, iiefg.maid2efgII(x)) == (True, 0.0)
    assert kept == []


def test_recursive_best_response_builds_one_slot_table_per_base_diagram(
        monkeypatch, depth3):
    builds = _counting_builds(monkeypatch, incomplete, "_build_decision_slots")
    result = depth.recursive_best_response(depth3)
    bases = {id(maid.base_maid(s.model)) for s in depth3.nodes.values()}
    assert sorted(id(m) for m, in builds) == sorted(bases)
    # every committed model reuses its base's table
    assert {id(maid.base_maid(s.model)) for s in result.final.nodes.values()} == bases


def test_recursive_best_response_builds_one_faced_table_per_model(monkeypatch, depth3):
    builds = _counting_builds(monkeypatch, incomplete, "_faced_sets")
    depth.recursive_best_response(depth3)
    # the stack's 4 models, and 2 committed models the reductions read again
    assert len(builds) == len({id(m) for m, in builds}) == 6


def test_conditional_utility_builds_the_fallback_measure_only_when_needed(
        monkeypatch, depth3):
    def run(value_fn):
        calls = []

        def counted(*args):
            calls.append(args)
            return value_fn(*args)

        depth.recursive_best_response(depth3, value_fn=counted)
        return len(calls)

    # the committed measure rules out the observation in 4 of 16 calls
    tables = _counting_builds(monkeypatch, depth, "_conditional_values")
    assert (run(depth.conditional_utility), len(tables)) == (16, 4)
    # 3 committed measures, and the fallback: the base diagram itself
    assert sorted(type(measure).__name__ for measure, *_ in tables) == [
        "Maid", "PostPolicyMaid", "PostPolicyMaid", "PostPolicyMaid"]
    nets = _counting(monkeypatch, depth, "_net_rows")
    assert (run(depth._walk_conditional_utility), len(nets)) == (16, 20)


def test_free_decisions_hands_out_a_fresh_list(honesty):
    first = maid.free_decisions(honesty, "H")
    first.append("X")
    assert maid.free_decisions(honesty, "H") == ["D_H"]
    assert maid.free_decisions(honesty) == ["D_A", "D_H"]
