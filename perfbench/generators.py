"""Seeded game generators for the benchmark.

Ported from the test suite's random games (criterion 8's base game and depth-2
stack, and the common-prior subjective game) and extended along the axes the
benchmark scales: chance-variable count, observed parents per decision, model
count and stack depth.  They are copies, not imports, so that editing a test
cannot change the benchmark's inputs.

Every chance row is strictly positive, so the cost of exact enumeration
depends on a game's shape (its sizes), not on its seeded numbers.
"""

from __future__ import annotations

import random
from itertools import product

from iimaid import bn, maid
from iimaid.bn import Cpd
from iimaid.depth import DepthStack
from iimaid.incomplete import IiMaid, SubjectiveMaid

P1, P2 = "P1", "P2"
OUTCOMES = ("a", "b")
ACTIONS = ("l", "r")
PAYOFF_LABELS = tuple(f"v{j}" for j in range(8))


def chance_names(n: int) -> list[str]:
    # zero-padded so that name order is index order
    return [f"X{i:02d}" for i in range(n)]


def _chance_part(rng: random.Random, n: int, chain: bool):
    """``n`` binary chance variables.  Each has two random earlier parents
    (one for the second), or, for a chain, just its predecessor."""
    names = chance_names(n)
    variables = [bn.chance(x, OUTCOMES) for x in names]
    edges, cpds = [], []
    for i, x in enumerate(names):
        if chain:
            pa = names[i - 1:i]
        else:
            pa = sorted(rng.sample(names[:i], min(i, 2)))
        edges += [(p, x) for p in pa]
        rows = {}
        for ctx in product(OUTCOMES, repeat=len(pa)):
            p = rng.uniform(0.05, 0.95)
            rows[ctx] = {"a": p, "b": 1.0 - p}
        cpds.append(Cpd(x, tuple(pa), rows))
    return names, variables, edges, cpds


def _utilities(rng: random.Random, payoff_parent: str):
    """Criterion 8's payoffs: each agent's utility reads both decisions and one
    chance variable, on a coarse grid that invites ties."""
    u_pa = ("D1", "D2", payoff_parent)
    variables, edges, cpds = [], [], []
    for name, owner in (("U1", P1), ("U2", P2)):
        values, rows = {}, {}
        for j, ctx in enumerate(product(ACTIONS, ACTIONS, OUTCOMES)):
            values[PAYOFF_LABELS[j]] = rng.randrange(-8, 9) * 0.25
            rows[ctx] = bn.point_row(PAYOFF_LABELS, PAYOFF_LABELS[j])
        variables.append(bn.utility(name, owner, values))
        edges += [(p, name) for p in u_pa]
        cpds.append(Cpd(name, u_pa, rows))
    return variables, edges, cpds


def _observed(rng: random.Random, names: list[str], k: int) -> list[str]:
    """``k`` observed chance variables, always including the last one.

    Enumeration cost depends on where a decision falls in the variables'
    order; observing the last chance variable puts every decision, and so
    every utility, after all chance variables, fixing that cost per shape.
    """
    return sorted([names[-1], *rng.sample(names[:-1], k - 1)])


def random_base_game(
    rng: random.Random,
    n_chance: int,
    d1_obs: int,
    d2_obs: int,
    d2_sees_d1: bool = False,
    chain: bool = False,
) -> maid.Maid:
    """Two agents, one binary decision each, over a random chance DAG.

    D1 (P1) observes ``d1_obs`` chance variables and D2 (P2) observes
    ``d2_obs``, plus D1 itself when ``d2_sees_d1``.
    """
    names, variables, edges, cpds = _chance_part(rng, n_chance, chain)
    d1_pa = _observed(rng, names, d1_obs)
    d2_pa = _observed(rng, names, d2_obs)
    variables += [bn.decision("D1", P1, ACTIONS), bn.decision("D2", P2, ACTIONS)]
    edges += [(p, "D1") for p in d1_pa] + [(p, "D2") for p in d2_pa]
    if d2_sees_d1:
        edges.append(("D1", "D2"))
    u_vars, u_edges, u_cpds = _utilities(rng, rng.choice(names))
    return maid.Maid.build((P1, P2), variables + u_vars, edges + u_edges, cpds + u_cpds)


def random_pure_rule(m: maid.Maid, d: str, rng: random.Random) -> Cpd:
    pa = m.parents[d]
    dom = m.variables[d].domain
    rows = {
        ctx: bn.point_row(dom, rng.choice(dom))
        for ctx in product(*(m.variables[p].domain for p in pa))
    }
    return Cpd(d, pa, rows)


def random_pure_profile(m: maid.Maid, rng: random.Random) -> dict[str, Cpd]:
    return {d: random_pure_rule(m, d, rng) for d in m.decisions()}


def _reobserve(m: maid.Maid, decision: str, observed: list[str]) -> maid.Maid:
    """The same game with ``decision`` observing ``observed`` instead."""
    edges = [
        (p, v) for v in m.variables for p in m.parents[v] if v != decision
    ] + [(p, decision) for p in observed]
    return maid.Maid.build(m.agents, m.variables.values(), edges, m.cpds.values())


def _redraw(m: maid.Maid, rng: random.Random) -> maid.Maid:
    """The same graph with fresh chance rows and fresh payoff values."""
    variables, cpds = [], []
    for name in sorted(m.variables):
        v = m.variables[name]
        if v.kind == bn.UTILITY:
            v = bn.utility(name, v.owner, {k: rng.randrange(-8, 9) * 0.25 for k in v.values})
        variables.append(v)
    for name in sorted(m.cpds):
        cpd = m.cpds[name]
        if m.kind(name) == bn.CHANCE:
            rows = {}
            for ctx in sorted(cpd.rows):
                p = rng.uniform(0.05, 0.95)
                rows[ctx] = {"a": p, "b": 1.0 - p}
            cpd = Cpd(name, cpd.parents, rows)
        cpds.append(cpd)
    edges = [(p, v) for v in m.variables for p in m.parents[v]]
    return maid.Maid.build(m.agents, variables, edges, cpds)


def random_ii_game(
    rng: random.Random,
    n_models: int,
    n_chance: int,
    d1_obs: int,
    d2_obs: int,
    d2_variant_obs: int | None = None,
) -> IiMaid:
    """A subjective-model game whose beliefs come from one common prior.

    Every model shares one graph and draws its own numbers.  With
    ``d2_variant_obs`` set, the last model lets D2 observe that many other
    chance variables instead, which adds information sets the way the bundled
    game's two evaluations do.  Beliefs condition one positive prior on a
    partition per agent, as ``random_common_prior_iimaid`` in the tests does,
    so they are coherent and strongly consistent by construction.
    """
    ids = [f"m{i}" for i in range(n_models)]
    base = random_base_game(rng, n_chance, d1_obs, d2_obs)
    games = {mid: _redraw(base, rng) for mid in ids}
    if d2_variant_obs is not None:
        last = games[ids[-1]]
        unseen = [x for x in chance_names(n_chance) if x not in last.parents["D2"]]
        games[ids[-1]] = _reobserve(last, "D2", sorted(rng.sample(unseen, d2_variant_obs)))

    weights = {i: rng.uniform(0.1, 1.0) for i in ids}
    total = sum(weights.values())
    prior = {i: w / total for i, w in weights.items()}
    # At the objective model P1 cannot tell it from one other model and P2
    # from all but one; which models those are is random, except that P2
    # never tells the variant model from the objective one, so the variant's
    # information sets always enter P2's best response.  Fixing the cells'
    # sizes, and the variant's cell, fixes how many models each agent's
    # values sum over and how many policies a best response enumerates.
    partitions = {}
    for agent, size in ((P1, 2), (P2, n_models - 1)):
        others = ids[1:]
        rng.shuffle(others)
        if agent == P2 and d2_variant_obs is not None:
            others.remove(ids[-1])
            others.insert(0, ids[-1])
        cells = [[ids[0], *others[: size - 1]], others[size - 1:]]
        partitions[agent] = [cell for cell in cells if cell]
    models = {}
    for mid in ids:
        beliefs = {}
        for agent in (P1, P2):
            cell = next(c for c in partitions[agent] if mid in c)
            mass = sum(prior[j] for j in cell)
            beliefs[agent] = {j: prior[j] / mass for j in cell}
        models[mid] = SubjectiveMaid(mid, games[mid], beliefs)
    return IiMaid((P1, P2), ids[0], models)


def random_depth2_stack(rng: random.Random, n_chance: int, obs: int) -> DepthStack:
    """Criterion 8's stack: each agent best-responds to a view in which the
    other best-responds to a fixed pure rule."""
    m = random_base_game(rng, n_chance, obs, obs)
    xi1 = random_pure_rule(m, "D1", rng)
    xi2 = random_pure_rule(m, "D2", rng)
    return DepthStack((P1, P2), "root", {
        "root": SubjectiveMaid("root", m, {P1: {"p1_view": 1.0}, P2: {"p2_view": 1.0}}),
        "p1_view": SubjectiveMaid("p1_view", m, {P2: {"p2_inner": 1.0}}),
        "p2_view": SubjectiveMaid("p2_view", m, {P1: {"p1_inner": 1.0}}),
        "p2_inner": SubjectiveMaid("p2_inner", maid.PostPolicyMaid(m, {"D1": xi1}), {}),
        "p1_inner": SubjectiveMaid("p1_inner", maid.PostPolicyMaid(m, {"D2": xi2}), {}),
    })


def random_depth3_stack(rng: random.Random, n_chance: int, obs: int) -> DepthStack:
    """The bundled depth-3 shape over a random game.

    D2 observes D1, as the overseer sees the report.  P2 models the game
    correctly but thinks P1 reasons inside a variant where D2 sees D1 alone;
    there P2 is a one-level reasoner facing a fixed pure D1 rule, so contexts
    that rule never produces have probability zero.
    """
    m = random_base_game(rng, n_chance, obs, obs, d2_sees_d1=True)
    variant = _reobserve(m, "D2", ["D1"])
    xi1 = random_pure_rule(variant, "D1", rng)
    return DepthStack((P1, P2), "objective", {
        "objective": SubjectiveMaid("objective", m, {P1: {"a_view": 1.0}, P2: {"h_view": 1.0}}),
        "h_view": SubjectiveMaid("h_view", m, {P1: {"a_view": 1.0}}),
        "a_view": SubjectiveMaid("a_view", variant, {P2: {"h_solo": 1.0}}),
        "h_solo": SubjectiveMaid("h_solo", maid.PostPolicyMaid(variant, {"D1": xi1}), {}),
    })
