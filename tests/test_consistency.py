"""check_consistency against separate per-bound linear programs.

No game, coherent or not, makes a HiGHS solve: verdicts and type classes
equal, bounds and ``min_type_mass`` within 1e-12, and ``sample`` within
1e-12 where the optimum is unique, else the documented mixture.  Where a
realized class spans two components, ``sample`` is checked by optimality:
it reproduces the beliefs and gives every realized class at least
``min_type_mass``."""
import random
from unittest import mock

import pytest
import scipy.optimize

from iimaid import cli, gamedoc, incomplete as inc
from iimaid.bn import TOL
from iimaid.incomplete import IiMaid, SubjectiveMaid
from tests.test_incomplete import random_common_prior_iimaid, trivial_model

BOUND_DRIFT = 1e-12


def per_bound_consistency(x):
    """The common-prior analysis with one linear program per mass bound:
    2k + 1 solves for k models."""
    from scipy.optimize import linprog

    ids = sorted(x.models)
    k = len(ids)
    idx = {sid: j for j, sid in enumerate(ids)}
    full_agents = [a for a in x.agents if all(a in x.models[sid].beliefs for sid in ids)]
    type_classes = {a: inc.belief_type_classes(x, a) for a in x.agents}

    a_eq = [[1.0] * k]
    b_eq = [1.0]
    for agent in full_agents:
        for target in ids:
            coeffs = [0.0] * k
            coeffs[idx[target]] += 1.0
            for sid in ids:
                coeffs[idx[sid]] -= x.models[sid].beliefs[agent].get(target, 0.0)
            a_eq.append(coeffs)
            b_eq.append(0.0)

    classes = [members for agent in x.agents for members in type_classes[agent] if members]
    a_ub = []
    for members in classes:
        row = [0.0] * (k + 1)
        for sid in members:
            row[idx[sid]] = -1.0
        row[k] = 1.0
        a_ub.append(row)
    res = linprog(
        c=[0.0] * k + [-1.0],
        A_eq=[row + [0.0] for row in a_eq],
        b_eq=b_eq,
        A_ub=a_ub or None,
        b_ub=[0.0] * len(a_ub) or None,
        bounds=[(0.0, 1.0)] * k + [(0.0, 1.0)],
        method="highs",
    )
    if not res.success:
        return inc.ConsistencyReport(False, None, False, None, None, type_classes)

    sample = {sid: inc._snap(res.x[idx[sid]]) for sid in ids}
    min_type_mass = inc._snap(res.x[k])
    bounds = {}
    for sid in ids:
        lo_hi = []
        for sign in (1.0, -1.0):
            c = [0.0] * k
            c[idx[sid]] = sign
            r = linprog(c=c, A_eq=a_eq, b_eq=b_eq, bounds=[(0.0, 1.0)] * k,
                        method="highs")
            assert r.success, r.message
            lo_hi.append(inc._snap(abs(r.fun)))
        bounds[sid] = (lo_hi[0], lo_hi[1])
    return inc.ConsistencyReport(True, sample, min_type_mass > TOL, min_type_mass,
                                 bounds, type_classes)


def random_row(rng, ids):
    """A belief row over ``ids`` with about a third of its entries zero."""
    weights = {j: rng.choice((0.0, rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
               for j in ids}
    if not any(weights.values()):
        weights[rng.choice(ids)] = 1.0
    total = sum(weights.values())
    return {j: w / total for j, w in weights.items() if w}


def random_belief_iimaid(seed):
    """Belief rows drawn independently of any prior, so many games have no
    common prior; about a third of the entries are zero."""
    rng = random.Random(seed)
    agents = ("P1", "P2")
    ids = [f"m{i}" for i in range(rng.randint(2, 5))]
    base = trivial_model(agents)
    models = {}
    for mid in ids:
        beliefs = {}
        for agent in agents:
            beliefs[agent] = random_row(rng, ids)
        models[mid] = SubjectiveMaid(mid, base, beliefs)
    return IiMaid(agents, ids[0], models)


def assert_matches_per_bound(x):
    got, want = inc.check_consistency(x), per_bound_consistency(x)
    assert (got.eq_feasible, got.sample, got.strongly_consistent, got.min_type_mass,
            got.type_classes) == (want.eq_feasible, want.sample, want.strongly_consistent,
                                  want.min_type_mass, want.type_classes)
    if want.mass_bounds is None:
        assert got.mass_bounds is None
    else:
        assert got.mass_bounds.keys() == want.mass_bounds.keys()
        for sid, pair in want.mass_bounds.items():
            assert got.mass_bounds[sid] == pytest.approx(pair, rel=0, abs=BOUND_DRIFT)
    return want


def linprog_calls(x):
    """``check_consistency(x)`` and the number of solves it made."""
    with mock.patch.object(scipy.optimize, "linprog",
                           wraps=scipy.optimize.linprog) as counted:
        report = inc.check_consistency(x)
    return report, counted.call_count


def documented_mixture(x, bounds):
    """The closed form's strongest prior, rebuilt from per-bound solves.

    The models whose upper bound is positive fall into components linked by
    shared type classes and by each live model's rows of the agents with
    beliefs in every model, and each holds its upper bound in its
    component's vector.  Component K is weighted by 1 / m_K, m_K being its
    least realized class mass of the classes it holds."""
    live = {sid for sid, (_, hi) in bounds.items() if hi > 0.0}
    component = {sid: sid for sid in live}

    def root(sid):
        while component[sid] != sid:
            sid = component[sid]
        return sid

    classes = [members for agent in x.agents for members in inc.belief_type_classes(x, agent)]
    full = [a for a in x.agents if all(a in s.beliefs for s in x.models.values())]
    supports = [[sid, *(t for t, p in x.models[sid].beliefs[a].items() if p > 0.0)]
                for sid in live for a in full]
    for members in classes + supports:
        alive = [sid for sid in members if sid in live]
        for sid in alive[1:]:
            component[root(sid)] = root(alive[0])
    least = {}
    for members in classes:
        alive = [sid for sid in members if sid in live]
        if alive:
            mass = sum(bounds[sid][1] for sid in members)
            least[root(alive[0])] = min(least.get(root(alive[0]), mass), mass)
    scale = sum(1.0 / m for m in least.values())
    return {sid: (1.0 / least[root(sid)] / scale * bounds[sid][1] if sid in live else 0.0)
            for sid in bounds}


def belief_residual(x, prior):
    """The largest violation of the common-prior equations by ``prior``."""
    ids = sorted(x.models)
    worst = abs(sum(prior.values()) - 1.0)
    for agent in x.agents:
        if all(agent in x.models[sid].beliefs for sid in ids):
            for target in ids:
                flow = sum(x.models[sid].beliefs[agent].get(target, 0.0) * prior[sid]
                           for sid in ids)
                worst = max(worst, abs(prior[target] - flow))
    return worst


def assert_matches_closed_form(x, drift=BOUND_DRIFT):
    """The closed form's contract against the per-bound solves; ``drift``
    is larger only for class rows that differ within ``TOL``."""
    got, solves = linprog_calls(x)
    want = per_bound_consistency(x)
    assert solves == 0
    assert (got.eq_feasible, got.strongly_consistent, got.type_classes) == (
        want.eq_feasible, want.strongly_consistent, want.type_classes)
    if not want.eq_feasible:
        assert (got.sample, got.min_type_mass, got.mass_bounds) == (None, None, None)
        return want
    assert got.min_type_mass == pytest.approx(want.min_type_mass, rel=0, abs=drift)
    assert got.mass_bounds.keys() == want.mass_bounds.keys()
    for sid, pair in want.mass_bounds.items():
        assert got.mass_bounds[sid] == pytest.approx(pair, rel=0, abs=drift)
    if got.min_type_mass > 0.0:
        assert got.sample == pytest.approx(want.sample, rel=0, abs=drift)
    else:
        # every feasible prior is optimal: the sample is the mixture, not
        # whichever vertex the solver stops at
        assert belief_residual(x, got.sample) <= drift
        assert got.sample == pytest.approx(documented_mixture(x, want.mass_bounds),
                                           rel=0, abs=drift)
    return want


def random_class_row_iimaid(seed, perturb=0.0):
    """A coherent game: each agent's models are split into classes, and one
    row per class, drawn independently with about a third of its entries
    zero, is every member's belief.  With ``perturb``, each member's entries
    move by up to that much before renormalising."""
    rng = random.Random(seed)
    agents = ("P1", "P2")
    ids = [f"m{i}" for i in range(rng.randint(2, 6))]
    beliefs = {mid: {} for mid in ids}
    for agent in agents:
        shuffled = ids[:]
        rng.shuffle(shuffled)
        step = rng.randint(1, len(ids))
        for cell in (shuffled[i::step] for i in range(step)):
            row = random_row(rng, cell)
            for mid in cell:
                own = {j: max(0.0, p + rng.uniform(-perturb, perturb)) for j, p in row.items()}
                beliefs[mid][agent] = {j: p / sum(own.values()) for j, p in own.items()}
    base = trivial_model(agents)
    return IiMaid(agents, ids[0], {
        mid: SubjectiveMaid(mid, base, beliefs[mid]) for mid in ids})


def test_common_prior_games_match_per_bound_solves():
    kinds = set()
    for seed in range(120):
        want = assert_matches_closed_form(random_common_prior_iimaid(seed))
        assert want.eq_feasible
        kinds.add(all(lo == hi for lo, hi in want.mass_bounds.values()))
    # both unique priors (point feasible sets) and segments of priors occur
    assert kinds == {True, False}


def test_class_row_games_match_per_bound_solves():
    kinds = set()
    for seed in range(200):
        x = random_class_row_iimaid(seed)
        assert inc.validate_coherence(x) == []
        want = assert_matches_closed_form(x)
        kinds.add((want.eq_feasible, want.strongly_consistent))
    # infeasible, feasible with a forced-empty class, and strongly consistent
    assert kinds == {(False, False), (True, False), (True, True)}


def test_class_rows_perturbed_within_tol_keep_their_verdicts():
    # The closed form reads each class's least member's row, the solver
    # every member's own row, so bounds move by up to about TOL.
    for seed in range(100):
        x = random_class_row_iimaid(seed, perturb=0.4 * TOL)
        if inc.validate_coherence(x) == []:
            assert_matches_closed_form(x, drift=TOL)


def ratio_cycle(shift):
    """P1 tells {a, b} from {c, d}, P2 tells {a, c} from {b, d}, so the four
    rows fix the prior's ratios around a cycle.  They agree on the prior
    (.1, .2, .3, .4) until P2's {b, d} row is shifted by ``shift``."""
    ab, cd = {"a": 1 / 3, "b": 2 / 3}, {"c": 3 / 7, "d": 4 / 7}
    ac, bd = {"a": 0.25, "c": 0.75}, {"b": 1 / 3 + shift, "d": 2 / 3 - shift}
    rows = {"a": (ab, ac), "b": (ab, bd), "c": (cd, ac), "d": (cd, bd)}
    base = trivial_model(("P1", "P2"))
    return IiMaid(("P1", "P2"), "a", {
        mid: SubjectiveMaid(mid, base, {"P1": p1, "P2": p2})
        for mid, (p1, p2) in rows.items()})


@pytest.mark.parametrize("shift", [0.0, 0.5 * TOL, 1e-6, 1e-3])
def test_ratio_cycle_matches_per_bound_solves(shift):
    x = ratio_cycle(shift)
    assert inc.validate_coherence(x) == []
    want = assert_matches_closed_form(x, drift=TOL)
    assert want.eq_feasible is (shift < TOL)


def test_ratio_cycle_rejected_beyond_tol_but_within_solver_tolerance():
    # No prior reproduces these rows: the cycle's ratios disagree by 1e-8,
    # beyond the closed form's TOL.  The per-bound solves call the same
    # game feasible, because HiGHS accepts residuals of about 1e-7.
    rep, solves = linprog_calls(ratio_cycle(1e-8))
    assert solves == 0
    assert (rep.eq_feasible, rep.sample, rep.mass_bounds) == (False, None, None)


def leak_iimaid(leak):
    """P2's class {b, c} believes c, so b has mass 0; P1's class {a, b}
    puts ``leak`` on b, so a has mass 0 too, and only c remains."""
    base = trivial_model(("P1", "P2"))
    ab, bc = {"a": 1.0 - leak, "b": leak}, {"c": 1.0}
    rows = {"a": (ab, {"a": 1.0}), "b": (ab, bc), "c": ({"c": 1.0}, bc)}
    return IiMaid(("P1", "P2"), "a", {
        mid: SubjectiveMaid(mid, base, {"P1": p1, "P2": p2})
        for mid, (p1, p2) in rows.items()})


@pytest.mark.parametrize("leak", [1e-3, 0.1 * TOL])
def test_class_putting_mass_on_a_forced_zero_is_forced_to_zero(leak):
    x = leak_iimaid(leak)
    assert inc.validate_coherence(x) == []
    rep, solves = linprog_calls(x)
    assert solves == 0
    assert rep.mass_bounds == {"a": (0.0, 0.0), "b": (0.0, 0.0), "c": (1.0, 1.0)}
    assert rep.sample == {"a": 0.0, "b": 0.0, "c": 1.0}
    assert not rep.strongly_consistent
    if leak > TOL:
        assert_matches_closed_form(x)
    # Below TOL the per-bound solves let a range over [0, 1] and call the
    # game strongly consistent, as HiGHS accepts the leak as a residual.


def spanning_class_iimaid():
    """P1's point rows make every model its own component; P2 holds beliefs
    in a and b only, and its one class spans both."""
    base = trivial_model(("P1", "P2"))
    half = {"a": 0.5, "b": 0.5}
    return IiMaid(("P1", "P2"), "a", {
        "a": SubjectiveMaid("a", base, {"P1": {"a": 1.0}, "P2": half}),
        "b": SubjectiveMaid("b", base, {"P1": {"b": 1.0}, "P2": half}),
        "c": SubjectiveMaid("c", base, {"P1": {"c": 1.0}}),
    })


def test_class_spanning_two_components_matches_per_bound_solves():
    x = spanning_class_iimaid()
    assert inc.validate_coherence(x) == []
    rep = inc.check_consistency(x)
    assert rep.min_type_mass == pytest.approx(1 / 3)
    assert_matches_per_bound(x)


def test_arbitrary_belief_games_match_per_bound_solves():
    kinds = set()
    for seed in range(400):
        x = random_belief_iimaid(seed)
        want = assert_matches_closed_form(x)
        kinds.add((bool(inc.validate_coherence(x)), want.eq_feasible, want.strongly_consistent))
    # incoherent games that are infeasible, feasible with a forced-empty
    # class, and strongly consistent
    assert {(True, False, False), (True, True, False), (True, True, True)} <= kinds


def test_bundled_game_matches_per_bound_solves(example1):
    assert_matches_closed_form(example1)
    rep = inc.check_consistency(example1)
    assert rep.sample == {"ai_belief": 1.0, "ground_truth": 0.0}
    assert rep.mass_bounds == {"ai_belief": (1.0, 1.0), "ground_truth": (0.0, 0.0)}


def cyclic_iimaid(k):
    """An incoherent game with a common prior: P1 in model j is sure of
    model j + 1 (mod k), P2 is uniform; the uniform prior is the only one."""
    ids = [f"m{i}" for i in range(k)]
    uniform = {j: 1.0 / k for j in ids}
    base = trivial_model(("P1", "P2"))
    return IiMaid(("P1", "P2"), ids[0], {
        mid: SubjectiveMaid(mid, base, {"P1": {ids[(i + 1) % k]: 1.0}, "P2": uniform})
        for i, mid in enumerate(ids)})


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cyclic_game_makes_no_solve(k):
    # P1's classes form one closed group whose stationary vector is uniform.
    x = cyclic_iimaid(k)
    assert inc.validate_coherence(x) != []
    rep, solves = linprog_calls(x)
    assert rep.eq_feasible and rep.strongly_consistent
    assert rep.mass_bounds == {sid: (1 / k, 1 / k) for sid in x.models}
    assert solves == 0


def shifted_cycle(shift):
    """``cyclic_iimaid(3)`` with P2's row in m0 moved by ``shift`` from m1
    to m0, so that P2's stationary vector is no longer uniform."""
    x = cyclic_iimaid(3)
    m0 = x.models["m0"]
    row = {**m0.beliefs["P2"]}
    row["m0"] += shift
    row["m1"] -= shift
    return IiMaid(x.agents, x.objective, {
        **x.models, "m0": SubjectiveMaid("m0", m0.model, {**m0.beliefs, "P2": row})})


@pytest.mark.parametrize("shift, feasible", [
    (0.0, True), (1e-9, True), (5e-9, False), (1e-8, False), (1e-7, False)])
def test_incoherent_cycle_accepted_within_tol_of_the_prior(shift, feasible):
    # P2's group vector moves from uniform by about shift / 3, so the prior
    # that P1's cycle fixes is rejected once that passes TOL.  The per-bound
    # solves still call the game feasible at 5e-9 and 1e-8, because HiGHS
    # accepts residuals of about 1e-7.
    x = shifted_cycle(shift)
    assert inc.validate_coherence(x) != []
    rep, solves = linprog_calls(x)
    assert solves == 0
    assert rep.eq_feasible is feasible
    if not feasible:
        assert (rep.sample, rep.mass_bounds) == (None, None)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_coherent_game_makes_no_solve(k):
    ids = [f"m{i}" for i in range(k)]
    uniform = {j: 1.0 / k for j in ids}
    base = trivial_model(("P1", "P2"))
    x = IiMaid(("P1", "P2"), ids[0], {
        mid: SubjectiveMaid(mid, base, {"P1": uniform, "P2": uniform}) for mid in ids})
    rep, solves = linprog_calls(x)
    assert rep.eq_feasible and rep.strongly_consistent
    assert solves == 0


def random_spanning_iimaid(seed):
    """P1's rows split the models into blocks, and every member of a block
    holds the block's row, so each block with a live member is a component.
    P2 holds beliefs in some models only, one row per P2 class, so its
    classes can span blocks."""
    rng = random.Random(seed)
    agents = ("P1", "P2")
    ids = [f"m{i}" for i in range(rng.randint(2, 6))]
    beliefs = {mid: {} for mid in ids}
    shuffled = ids[:]
    rng.shuffle(shuffled)
    step = rng.randint(1, len(ids))
    for block in (shuffled[i::step] for i in range(step)):
        row = random_row(rng, block)
        for mid in block:
            beliefs[mid]["P1"] = row
    holders = rng.sample(ids, rng.randint(1, len(ids) - 1))
    step = rng.randint(1, len(holders))
    for cls in (holders[i::step] for i in range(step)):
        row = random_row(rng, ids)
        for mid in cls:
            beliefs[mid]["P2"] = row
    base = trivial_model(agents)
    return IiMaid(agents, ids[0], {
        mid: SubjectiveMaid(mid, base, beliefs[mid]) for mid in ids})


def test_classes_spanning_components_match_per_bound_solves():
    spanning = 0
    for seed in range(300):
        x = random_spanning_iimaid(seed)
        got, solves = linprog_calls(x)
        want = per_bound_consistency(x)
        assert solves == 0
        assert (got.eq_feasible, got.strongly_consistent, got.type_classes) == (
            want.eq_feasible, want.strongly_consistent, want.type_classes)
        assert got.min_type_mass == pytest.approx(want.min_type_mass, rel=0,
                                                  abs=BOUND_DRIFT)
        assert got.mass_bounds.keys() == want.mass_bounds.keys()
        for sid, pair in want.mass_bounds.items():
            assert got.mass_bounds[sid] == pytest.approx(pair, rel=0, abs=BOUND_DRIFT)
        # an optimum need not be unique: check the sample by optimality
        assert belief_residual(x, got.sample) <= BOUND_DRIFT
        classes = [members for a in x.agents for members in got.type_classes[a]]
        for members in classes:
            assert sum(got.sample[sid] for sid in members) >= (
                got.min_type_mass - BOUND_DRIFT)
        # a P2 class whose live members hold different P1 rows spans two
        # components
        p1 = {sid: cls[0] for cls in got.type_classes["P1"] for sid in cls}
        spanning += any(
            len({p1[sid] for sid in members if got.mass_bounds[sid][1] > 0.0}) > 1
            for members in got.type_classes["P2"])
    assert spanning >= 30


def test_document_without_beliefs_is_strongly_consistent(tmp_path, capsys):
    # No type class is realized, so the components weigh the same and the
    # least class mass is 1.0.
    base = trivial_model(("P1", "P2"))
    x = IiMaid(("P1", "P2"), "a", {
        mid: SubjectiveMaid(mid, base, {}) for mid in ("a", "b")})
    rep = inc.check_consistency(x)
    assert (rep.eq_feasible, rep.strongly_consistent, rep.min_type_mass) == (True, True, 1.0)
    assert rep.sample == {"a": 0.5, "b": 0.5}
    want = per_bound_consistency(x)
    assert (want.min_type_mass, want.mass_bounds) == (1.0, rep.mass_bounds)
    path = tmp_path / "beliefless.iimaid.json"
    path.write_text(gamedoc.serialize_document(x))
    assert cli.run(["check-consistency", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
