"""Game trees with state-dependent payoffs and subjective state beliefs.

A belief space couples a finite set of states, one game tree per state, and
per-agent beliefs over states.  Agents know their own belief row but not the
state, so strategies are measurable with respect to meta information sets:
an ordinary information-set class crossed with the agent's belief type.
Solution concepts evaluate each agent's belief-weighted (interim) utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping

from . import bn
from .bn import Row, TOL
from .efg import Efg, _info_sets, efg_expected_utility, info_sets, maid2efg, observation_of
from .errors import (
    GameError,
    MissingRule,
    SearchSpaceTooLarge,
    UnknownAgent,
    ValidationError,
)
from .incomplete import (
    IiMaid,
    InformationSet,
    _per_model_utilities,
    _rows_close,
    _subjective_value,
    iter_pure_ii_profiles,
    model_information_sets,
)
from .maid import DEFAULT_CAP, Cpd, Maid, Model, PostPolicyMaid, base_maid, fixed_rules

IiPolicy = Mapping[InformationSet, Row]


@dataclass(frozen=True)
class BeliefSpace:
    """States, one game per state, and per-agent beliefs over states."""

    states: tuple[str, ...]
    games: Mapping[str, Efg]
    beliefs: Mapping[str, Mapping[str, Mapping[str, float]]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(sorted(self.states)))
        object.__setattr__(self, "games", dict(self.games))
        object.__setattr__(
            self,
            "beliefs",
            {
                agent: {w: dict(row) for w, row in by_state.items()}
                for agent, by_state in self.beliefs.items()
            },
        )

    @property
    def agents(self) -> tuple[str, ...]:
        return tuple(sorted(self.beliefs))


def validate_belief_space(space: BeliefSpace, tol: float = TOL) -> list[str]:
    """Well-formedness plus belief coherence.

    Coherence: whenever an agent gives a state positive mass, their belief row
    at that state must equal the row they hold now, so believed states are
    subjectively indistinguishable from the current one.
    """
    issues = []
    if set(space.games) != set(space.states):
        issues.append("games-do-not-match-states")
    for agent in space.agents:
        by_state = space.beliefs[agent]
        if set(by_state) != set(space.states):
            issues.append(f"belief-rows-missing-states: {agent}")
            continue
        for w in space.states:
            row = by_state[w]
            if set(row) - set(space.states):
                issues.append(f"belief-row-over-unknown-states: {agent}@{w}")
            if abs(sum(row.values()) - 1.0) > tol or any(
                p < -tol for p in row.values()
            ):
                issues.append(f"belief-row-not-normalized: {agent}@{w}")
            for w2, p in sorted(row.items()):
                if p > tol and not _rows_close(by_state.get(w2, {}), row, tol):
                    issues.append(
                        f"incoherent-beliefs: {agent} at {w} trusts {w2} "
                        "which holds a different row"
                    )
    for w in space.states:
        g = space.games.get(w)
        if g is not None and not set(space.agents) <= set(g.agents):
            issues.append(f"game-missing-agents: {w}")
    return issues


def belief_types(space: BeliefSpace, agent: str) -> dict[str, str]:
    """Group states by identical belief rows; each maps to its least member."""
    return dict(_belief_types(space, agent))


def _belief_types(space: BeliefSpace, agent: str) -> Mapping[str, str]:
    """``belief_types`` as a read-only mapping, built once per space and agent."""
    if agent not in space.beliefs:
        raise UnknownAgent(agent)
    return bn.indexed(space, _build_belief_types, agent)


def _build_belief_types(space: BeliefSpace, agent: str) -> Mapping[str, str]:
    reps: dict[str, str] = {}
    groups: list[tuple[Mapping[str, float], str]] = []
    for w in space.states:
        row = space.beliefs[agent][w]
        for other, rep in groups:
            if _rows_close(row, other, TOL):
                reps[w] = rep
                break
        else:
            groups.append((row, w))
            reps[w] = w
    return MappingProxyType(reps)


@dataclass(frozen=True, order=True)
class MetaInfoSet:
    """What an agent can condition on: in-game observation plus belief type."""

    agent: str
    observation: tuple
    actions: tuple[str, ...]
    type_rep: str


@dataclass(frozen=True)
class IiEfg:
    """A belief space with an observation labelling that aligns states.

    ``iset_obs`` maps (agent, state, in-game info-set key) to an observation
    label shared across states; when absent, the positional observation of
    the info set inside its own tree is used.
    """

    space: BeliefSpace
    iset_obs: Mapping[tuple[str, str, Hashable], tuple] | None = None

    @property
    def agents(self) -> tuple[str, ...]:
        return self.space.agents

    def observation(self, agent: str, state: str, key: Hashable) -> tuple:
        if self.iset_obs is not None:
            try:
                return self.iset_obs[(agent, state, key)]
            except KeyError:
                raise MissingRule(
                    f"no observation label for {agent} at {state}:{key!r}"
                ) from None
        return tuple(observation_of(self.space.games[state], agent, key))


Strategy = Mapping[MetaInfoSet, Row]


def meta_information_sets(
    g: IiEfg, agent: str
) -> dict[MetaInfoSet, tuple[tuple[str, Hashable], ...]]:
    """All (observation class x belief type) cells, with their in-game members.

    Cells are built as the full product of observation classes and realized
    types, so a cell may have no member at states of its own type; strategies
    still assign it a row, which is what lets one policy serve every type.
    """
    return dict(_meta_information_sets(g, agent))


def _meta_information_sets(
    g: IiEfg, agent: str
) -> Mapping[MetaInfoSet, tuple[tuple[str, Hashable], ...]]:
    """``meta_information_sets`` as a read-only mapping, built once per game."""
    if agent not in g.agents:
        raise UnknownAgent(agent)
    return bn.indexed(g, _build_meta_information_sets, agent)


def _build_meta_information_sets(
    g: IiEfg, agent: str
) -> Mapping[MetaInfoSet, tuple[tuple[str, Hashable], ...]]:
    classes: dict[tuple[tuple, tuple[str, ...]], list[tuple[str, Hashable]]] = {}
    for w in g.space.states:
        game = g.space.games[w]
        for key, members in sorted(_info_sets(game, agent).items(), key=repr):
            actions = game.nodes[members[0]].actions
            obs = g.observation(agent, w, key)
            classes.setdefault((obs, actions), []).append((w, key))
    types = _belief_types(g.space, agent)
    out: dict[MetaInfoSet, tuple[tuple[str, Hashable], ...]] = {}
    for (obs, actions), members in sorted(classes.items(), key=repr):
        for rep in sorted(set(types.values())):
            cell = MetaInfoSet(agent, obs, actions, rep)
            out[cell] = tuple(
                (w, key) for w, key in members if types[w] == rep
            )
    return MappingProxyType(out)


def _observation_classes(
    g: IiEfg, agent: str
) -> Mapping[tuple[tuple, tuple[str, ...]], tuple[MetaInfoSet, ...]]:
    """The agent's cells grouped by (observation, actions), one per belief type."""
    return bn.indexed(g, _build_observation_classes, agent)


def _build_observation_classes(
    g: IiEfg, agent: str
) -> Mapping[tuple[tuple, tuple[str, ...]], tuple[MetaInfoSet, ...]]:
    out: dict[tuple[tuple, tuple[str, ...]], list[MetaInfoSet]] = {}
    for cell in _meta_information_sets(g, agent):
        out.setdefault((cell.observation, cell.actions), []).append(cell)
    return MappingProxyType({k: tuple(v) for k, v in out.items()})


def state_strategy(
    g: IiEfg, sigma: Strategy, state: str
) -> dict[tuple[str, Hashable], Row]:
    """The behaviour profile actually played at one state.

    Each agent plays the rows of their own belief type at that state.
    """
    out: dict[tuple[str, Hashable], Row] = {}
    game = g.space.games[state]
    for agent in g.agents:
        rep = _belief_types(g.space, agent)[state]
        for key, members in _info_sets(game, agent).items():
            actions = game.nodes[members[0]].actions
            cell = MetaInfoSet(agent, g.observation(agent, state, key), actions, rep)
            row = sigma.get(cell)
            if row is None:
                raise MissingRule(f"strategy lacks a row at {cell}")
            out[(agent, key)] = row
    return out


def interim_utility(g: IiEfg, sigma: Strategy, agent: str, state: str) -> float:
    """Belief-weighted expected payoff at a state.

    Believed states are evaluated under the profile as played there, so other
    agents' types may differ from their types at the given state.
    """
    return _interim_value(g, agent, state, lambda w: state_strategy(g, sigma, w))


def _interim_value(
    g: IiEfg, agent: str, state: str, plays: Callable[[str], Mapping]
) -> float:
    """``interim_utility`` with ``plays(w)`` the profile as played at ``w``."""
    if agent not in g.agents:
        raise UnknownAgent(agent)
    if state not in g.space.states:
        raise GameError(f"unknown state: {state}")
    total = 0.0
    for w, p in sorted(g.space.beliefs[agent][state].items()):
        if p <= 0.0:
            continue
        total += p * efg_expected_utility(g.space.games[w], plays(w), agent)
    return total


def _deviation_cells(g: IiEfg, agent: str, state: str) -> list[MetaInfoSet]:
    """Cells of the agent's type at the state that their interim utility reads."""
    types = _belief_types(g.space, agent)
    rep = types[state]
    support = [
        w for w, p in g.space.beliefs[agent][state].items() if p > 0.0
    ]
    cells = set()
    for w in support:
        game = g.space.games[w]
        if types[w] != rep:
            continue
        for key, members in _info_sets(game, agent).items():
            actions = game.nodes[members[0]].actions
            cells.add(
                MetaInfoSet(agent, g.observation(agent, w, key), actions, rep)
            )
    return sorted(cells)


def is_interim_nash(
    g: IiEfg,
    sigma: Strategy,
    state: str,
    tol: float = 1e-6,
    cap: int = DEFAULT_CAP,
) -> tuple[bool, dict[str, float]]:
    """No agent can gain more than ``tol`` by a pure deviation at the state.

    Deviations rewrite the agent's rows on the cells of their belief type at
    the state; rows of other types stay as given.
    """
    regrets = {}
    for agent in g.agents:
        base = interim_utility(g, sigma, agent, state)
        cells = _deviation_cells(g, agent, state)
        size = 1
        for cell in cells:
            size *= len(cell.actions)
            if size > cap:
                raise SearchSpaceTooLarge(f"{agent} deviations exceed {cap}")
        best = base
        for combo in product(*(cell.actions for cell in cells)):
            trial = dict(sigma)
            for cell, action in zip(cells, combo):
                trial[cell] = bn.point_row(cell.actions, action)
            best = max(best, interim_utility(g, trial, agent, state))
        regrets[agent] = max(0.0, best - base)
    return all(r <= tol for r in regrets.values()), regrets


def is_bayesian_equilibrium(
    g: IiEfg, sigma: Strategy, tol: float = 1e-6, cap: int = DEFAULT_CAP
) -> tuple[bool, dict[str, dict[str, float]]]:
    """Interim stability at every state at once."""
    report = {}
    for w in g.space.states:
        _, regrets = is_interim_nash(g, sigma, w, tol, cap)
        report[w] = regrets
    ok = all(r <= tol for regrets in report.values() for r in regrets.values())
    return ok, report


def as_plain_maid(model: Model) -> Maid:
    """Recast committed decisions as chance moves, leaving open ones intact."""
    if isinstance(model, Maid):
        return model
    assert isinstance(model, PostPolicyMaid)
    m = base_maid(model)
    variables = []
    for name in m.variables:
        v = m.variables[name]
        if name in fixed_rules(model):
            variables.append(bn.Variable(name, v.domain, bn.CHANCE, None, None))
        else:
            variables.append(v)
    edges = [(u, v) for v in m.variables for u in m.parents[v]]
    cpds = list(m.cpds.values()) + list(fixed_rules(model).values())
    return Maid.build(m.agents, variables, edges, cpds)


@dataclass(frozen=True)
class IiConversion:
    game: IiEfg
    correspondence: dict[InformationSet, MetaInfoSet]


def maid2efgII(x: IiMaid) -> IiConversion:
    """Unfold an incomplete-information diagram into a belief space of trees.

    States are the model ids, each carrying its model's tree; belief rows copy
    across via the state-model identification.  Observation labels reuse the
    diagram-level observations, which aligns information sets across states
    and yields a one-to-one correspondence between the diagram's information
    sets and the meta cells of the objective state's belief types.
    """
    for mid in sorted(x.models):
        for agent in x.agents:
            if agent not in x.models[mid].beliefs:
                raise ValidationError(
                    [f"agent-without-beliefs-in-model: {agent} in {mid}"]
                )

    games = {}
    obs_map: dict[tuple[str, str, Hashable], tuple] = {}
    for mid in sorted(x.models):
        plain = as_plain_maid(x.models[mid].model)
        game, _ = maid2efg(plain)
        games[mid] = game
        for agent in x.agents:
            for key in info_sets(game, agent):
                var, ctx = key
                obs_map[(agent, mid, key)] = tuple(zip(plain.parents[var], ctx))

    beliefs = {
        agent: {mid: dict(x.models[mid].beliefs[agent]) for mid in sorted(x.models)}
        for agent in x.agents
    }
    space = BeliefSpace(tuple(sorted(x.models)), games, beliefs)
    g = IiEfg(space, obs_map)

    correspondence: dict[InformationSet, MetaInfoSet] = {}
    for agent in x.agents:
        rep = _belief_types(space, agent)[x.objective]
        cells = _meta_information_sets(g, agent)
        for mid in sorted(x.models):
            for iset in sorted(model_information_sets(x.models[mid].model, agent)):
                cell = MetaInfoSet(agent, iset.observation, iset.actions, rep)
                if cell not in cells:
                    raise GameError(f"conversion lost the cell for {iset}")
                correspondence[iset] = cell
    return IiConversion(g, correspondence)


def strategy_from_ii_policy(conv: IiConversion, profile: IiPolicy) -> dict[MetaInfoSet, Row]:
    """Lift a diagram policy to the unfolded game.

    Each information set's row lands on its corresponding cell and is copied
    to the same observation class at every other belief type, so the lifted
    strategy is defined wherever any type plays.
    """
    g = conv.game
    sigma: dict[MetaInfoSet, Row] = {}
    for iset in sorted(profile):
        cell = conv.correspondence.get(iset)
        if cell is None:
            raise MissingRule(f"policy covers unknown information set {iset}")
        row = dict(profile[iset])
        sigma[cell] = row
        siblings = _observation_classes(g, cell.agent)[(cell.observation, cell.actions)]
        for other in siblings:
            if other != cell:
                sigma.setdefault(other, row)
    return sigma


def verify_equivalence(
    x: IiMaid,
    conv: IiConversion,
    profiles: Iterable[IiPolicy] | None = None,
    tol: float = TOL,
    cap: int = DEFAULT_CAP,
) -> tuple[bool, float]:
    """Check subjective utilities survive the unfolding, profile for profile.

    Compares each agent's diagram-level subjective utility at the objective
    model with the interim utility of the lifted strategy at the objective
    state; returns the largest absolute deviation seen.  Per profile, each
    model's expected utilities and each state's played strategy are
    computed once and shared by every agent, with the same arithmetic as
    ``subjective_expected_utility`` and ``interim_utility``.
    """
    if profiles is None:
        profiles = iter_pure_ii_profiles(x, cap)
    worst = 0.0
    for profile in profiles:
        sigma = strategy_from_ii_policy(conv, profile)
        utilities = _per_model_utilities(x, profile)
        plays = cache(lambda w, sigma=sigma: state_strategy(conv.game, sigma, w))
        for agent in x.agents:
            lhs = _subjective_value(x, agent, x.objective, utilities)
            rhs = _interim_value(conv.game, agent, x.objective, plays)
            worst = max(worst, abs(lhs - rhs))
    return worst <= tol, worst
