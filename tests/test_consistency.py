"""check_consistency against the separate per-bound linear programs it
batches: every field but ``mass_bounds`` equal, ``mass_bounds`` within
1e-12, and two solves per call whatever the number of models."""
import random

import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult

from iimaid import cli, fixtures, incomplete as inc
from iimaid.bn import TOL
from iimaid.errors import GameError
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
            weights = {j: rng.choice((0.0, rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)))
                       for j in ids}
            if not any(weights.values()):
                weights[rng.choice(ids)] = 1.0
            total = sum(weights.values())
            beliefs[agent] = {j: w / total for j, w in weights.items() if w}
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


def test_common_prior_games_match_per_bound_solves():
    kinds = set()
    for seed in range(120):
        want = assert_matches_per_bound(random_common_prior_iimaid(seed))
        assert want.eq_feasible
        kinds.add(all(lo == hi for lo, hi in want.mass_bounds.values()))
    # both unique priors (point feasible sets) and segments of priors occur
    assert kinds == {True, False}


def test_arbitrary_belief_games_match_per_bound_solves():
    feasible = []
    for seed in range(80):
        feasible.append(assert_matches_per_bound(random_belief_iimaid(seed)).eq_feasible)
    assert any(feasible) and not all(feasible)


def test_bundled_game_matches_per_bound_solves(example1):
    assert_matches_per_bound(example1)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_one_solve_for_all_mass_bounds(monkeypatch, k):
    calls = []
    real = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    ids = [f"m{i}" for i in range(k)]
    uniform = {j: 1.0 / k for j in ids}
    base = trivial_model(("P1", "P2"))
    x = IiMaid(("P1", "P2"), ids[0], {
        mid: SubjectiveMaid(mid, base, {"P1": uniform, "P2": uniform}) for mid in ids})
    assert inc.check_consistency(x).eq_feasible
    assert len(calls) == 2
    calls.clear()
    assert inc.check_consistency(x, include_bounds=False).mass_bounds is None
    assert len(calls) == 1


def _failing_bounds_solve(monkeypatch):
    """Let the strong-consistency solve through and fail the one after it."""
    real = scipy.optimize.linprog
    calls = []

    def linprog(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            return real(*args, **kwargs)
        return OptimizeResult(x=None, fun=None, success=False, status=4,
                              message="Numerical difficulties encountered. "
                                      "(HiGHS Status 7: model_status is Unknown)")

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)


def test_failed_bounds_solve_raises_instead_of_zero_bounds(monkeypatch, example1):
    _failing_bounds_solve(monkeypatch)
    with pytest.raises(GameError, match="HiGHS Status 7"):
        inc.check_consistency(example1)


def test_failed_bounds_solve_exits_two(monkeypatch, tmp_path, capsys):
    fixtures.write_data_files(tmp_path)
    _failing_bounds_solve(monkeypatch)
    code = cli.run(["check-consistency", str(tmp_path / "evaluation_game.iimaid.json")])
    assert code == 2
    assert "HiGHS Status 7" in capsys.readouterr().err
