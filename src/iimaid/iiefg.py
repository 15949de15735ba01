"""Game trees with state-dependent payoffs and subjective state beliefs.

A belief space couples a finite set of states, one game tree per state, and
per-agent beliefs over states.  Agents know their own belief row but not the
state, so strategies are measurable with respect to meta information sets:
an ordinary information-set class crossed with the agent's belief type.
Solution concepts evaluate each agent's belief-weighted (interim) utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

from . import bn
from .bn import Row, TOL
from .efg import (
    Efg,
    _info_sets,
    efg_expected_utility,
    maid2efg,
)
from .errors import (
    GameError,
    MissingRule,
    UnknownAgent,
    ValidationError,
)
from .incomplete import (
    IiMaid,
    InformationSet,
    _decision_slots,
    _faced_sets,
    _profile_utilities,
    _pure_slots,
    _row_classes,
    _row_issues,
    _rows_close,
    _subjective_value,
    information_sets,
    iter_pure_ii_profiles,
)
from .maid import DEFAULT_CAP, _first_max, _iter_pure

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


def validate_belief_space(space: BeliefSpace) -> list[str]:
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
            if not bn.is_distribution(row):
                issues.append(f"belief-row-not-normalized: {agent}@{w}")
            for w2, p in sorted(row.items()):
                if p > TOL and not _rows_close(by_state.get(w2, {}), row):
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


@bn.indexed
def _belief_types(space: BeliefSpace, agent: str) -> Mapping[str, str]:
    """``belief_types`` as a read-only mapping, built once per space and agent."""
    if agent not in space.beliefs:
        raise UnknownAgent(agent)
    by_state = space.beliefs[agent]
    classes = _row_classes((w, by_state[w]) for w in space.states)
    return MappingProxyType({w: members[0] for members in classes for w in members})


class MetaInfoSet(NamedTuple):
    """What an agent can condition on: in-game observation plus belief type.

    A named tuple, like ``incomplete.InformationSet``, so it hashes and
    compares in C, by field order; it is also ``==`` to a plain tuple of
    its fields.
    """

    agent: str
    observation: tuple
    actions: tuple[str, ...]
    type_rep: str


@dataclass(frozen=True)
class IiEfg:
    """A belief space with an observation labelling that aligns states.

    ``iset_obs`` maps (agent, state, in-game info-set key) to an observation
    label shared across states.
    """

    space: BeliefSpace
    iset_obs: Mapping[tuple[str, str, Hashable], tuple]

    @property
    def agents(self) -> tuple[str, ...]:
        return self.space.agents

    def observation(self, agent: str, state: str, key: Hashable) -> tuple:
        try:
            return self.iset_obs[(agent, state, key)]
        except KeyError:
            raise MissingRule(
                f"no observation label for {agent} at {state}:{key!r}"
            ) from None


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


@bn.indexed
def _meta_information_sets(
    g: IiEfg, agent: str
) -> Mapping[MetaInfoSet, tuple[tuple[str, Hashable], ...]]:
    """``meta_information_sets`` as a read-only mapping, built once per game."""
    if agent not in g.agents:
        raise UnknownAgent(agent)
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


@bn.indexed
def _state_cells(
    g: IiEfg, state: str
) -> tuple[tuple[tuple[str, Hashable], MetaInfoSet], ...]:
    """Each (agent, in-game key) of the state's tree with the cell it plays.

    The cell is the agent's observation class at the state crossed with
    their belief type there.  Agents come in ``g.agents`` order, keys in
    the tree's information-set order; built once per game and state.
    """
    if state not in g.space.states:
        raise GameError(f"unknown state: {state}")
    game = g.space.games[state]
    out = []
    for agent in g.agents:
        rep = _belief_types(g.space, agent)[state]
        for key, members in _info_sets(game, agent).items():
            actions = game.nodes[members[0]].actions
            cell = MetaInfoSet(agent, g.observation(agent, state, key), actions, rep)
            out.append(((agent, key), cell))
    return tuple(out)


def state_strategy(
    g: IiEfg, sigma: Strategy, state: str
) -> dict[tuple[str, Hashable], Row]:
    """The behaviour profile actually played at one state.

    Each agent plays the rows of their own belief type at that state.
    """
    out: dict[tuple[str, Hashable], Row] = {}
    for slot, cell in _state_cells(g, state):
        row = sigma.get(cell)
        if row is None:
            raise MissingRule(f"strategy lacks a row at {cell}")
        out[slot] = row
    return out


def interim_utility(g: IiEfg, sigma: Strategy, agent: str, state: str) -> float:
    """Belief-weighted expected payoff at a state.

    Believed states are evaluated under the profile as played there, so other
    agents' types may differ from their types at the given state.
    """
    return _interim_value(
        g,
        agent,
        state,
        lambda w: efg_expected_utility(
            g.space.games[w], state_strategy(g, sigma, w), agent
        ),
    )


def _interim_value(
    g: IiEfg, agent: str, state: str, payoff: Callable[[str], float]
) -> float:
    """``interim_utility`` with ``payoff(w)`` the agent's payoff at ``w``,
    summed over ``_believed_states``: indexed, so a bad agent or state
    still raises on every call."""
    total = 0.0
    for w, p in _believed_states(g.space, agent, state):
        total += p * payoff(w)
    return total


@bn.indexed
def _believed_states(
    space: BeliefSpace, agent: str, state: str
) -> tuple[tuple[str, float], ...]:
    """(state, weight) for each state the agent does not rule out at
    ``state``, in state order; built once per space, agent and state."""
    if agent not in space.agents:
        raise UnknownAgent(agent)
    if state not in space.states:
        raise GameError(f"unknown state: {state}")
    return bn.positive(space.beliefs[agent][state])


def _deviation_cells(g: IiEfg, agent: str, state: str) -> list[MetaInfoSet]:
    """Cells of the agent's type at the state that their interim utility reads."""
    if state not in g.space.states:
        raise GameError(f"unknown state: {state}")
    types = _belief_types(g.space, agent)
    rep = types[state]
    cells = set()
    for w, _ in _believed_states(g.space, agent, state):
        if types[w] == rep:
            cells.update(cell for (a, _), cell in _state_cells(g, w) if a == agent)
    return sorted(cells)


def is_interim_nash(
    g: IiEfg,
    sigma: Strategy,
    state: str,
    tol: float = 1e-6,
    cap: int = DEFAULT_CAP,
) -> tuple[bool, dict[str, float]]:
    """No agent can gain more than ``tol`` by a pure deviation at the state.

    Deviations rewrite the agent's rows only on the cells of their type at
    the state (``_deviation_cells``); ``incomplete.is_nash_ii`` agrees only
    for introspective agents (``tests/test_properties.py``).  ``cap`` is
    checked, by ``maid._iter_pure``, before any utility is computed.
    """
    ok, report = _interim_report(g, sigma, (state,), tol, cap)
    return ok, report[state]


def is_bayesian_equilibrium(
    g: IiEfg, sigma: Strategy, tol: float = 1e-6, cap: int = DEFAULT_CAP
) -> tuple[bool, dict[str, dict[str, float]]]:
    """Interim stability at every state at once: ``is_interim_nash``'s
    regrets at each state, in state order."""
    return _interim_report(g, sigma, g.space.states, tol, cap)


def _interim_report(
    g: IiEfg, sigma: Strategy, states: Iterable[str], tol: float, cap: int
) -> tuple[bool, dict[str, dict[str, float]]]:
    """Each agent's regret at each of ``states``.  It reads a state only
    through the agent's ``_deviation_cells`` and ``_believed_states`` there,
    so it is computed once per distinct (agent, cells, believed states)."""
    report: dict[str, dict[str, float]] = {}
    regret_of: dict[tuple, float] = {}
    for w in states:
        regrets = report[w] = {}
        for agent in g.agents:
            cells = _deviation_cells(g, agent, w)
            key = (agent, tuple(cells), _believed_states(g.space, agent, w))
            if key not in regret_of:
                slots = [(cell, cell.actions) for cell in cells]
                trials = _iter_pure(slots, f"deviations for {agent}", cap)
                _, best = _first_max(({**sigma, **rows} for rows in trials),
                                     lambda trial: interim_utility(g, trial, agent, w))
                regret_of[key] = max(0.0, best - interim_utility(g, sigma, agent, w))
            regrets[agent] = regret_of[key]
    return all(r <= tol for regrets in report.values() for r in regrets.values()), report


@dataclass(frozen=True)
class IiConversion:
    game: IiEfg
    correspondence: Mapping[InformationSet, MetaInfoSet]

    def __post_init__(self) -> None:
        # Frozen, because the lift built from it is kept on the conversion.
        object.__setattr__(
            self, "correspondence", MappingProxyType(dict(self.correspondence))
        )


def maid2efgII(x: IiMaid) -> IiConversion:
    """Unfold an incomplete-information diagram into a belief space of trees.

    States are the model ids, each carrying its model's tree; belief rows copy
    across via the state-model identification.  Observation labels reuse the
    diagram-level observations, which aligns information sets across states
    and yields a one-to-one correspondence between the diagram's information
    sets and the meta cells of the objective state's belief types.

    Information sets come from support contexts judged with every decision
    free, while each tree (``efg.maid2efg`` of the model) prunes the zero
    branches of its committed rules.  So an information set may be reached
    in no tree at all; it still gets its own cell, which has no in-game
    members and is therefore not among ``meta_information_sets``.
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
        model = x.models[mid].model
        game, _ = maid2efg(model)
        games[mid] = game
        slots = _decision_slots(model)
        for agent in x.agents:
            for key in _info_sets(game, agent):
                var, ctx = key
                obs_map[(agent, mid, key)] = slots[var].cells[ctx][0].observation

    beliefs = {
        agent: {mid: dict(x.models[mid].beliefs[agent]) for mid in sorted(x.models)}
        for agent in x.agents
    }
    space = BeliefSpace(tuple(sorted(x.models)), games, beliefs)
    g = IiEfg(space, obs_map)

    correspondence: dict[InformationSet, MetaInfoSet] = {}
    for agent in x.agents:
        rep = _belief_types(space, agent)[x.objective]
        for iset in sorted(information_sets(x, agent)):
            correspondence[iset] = MetaInfoSet(agent, iset.observation, iset.actions, rep)
    return IiConversion(g, correspondence)


class _Sources(NamedTuple):
    """Where each row of a profile's lift comes from.

    ``cells`` maps every cell the lift fills to the information set whose
    row it takes, in the order the lift fills them.  ``states`` maps each
    state to the position, in the profile's key order, of the set whose
    row each of its ``_state_cells`` slots plays, or, where a slot's cell
    takes no row, to None and the first such cell.
    """

    cells: Mapping[MetaInfoSet, InformationSet]
    states: Mapping[str, tuple[tuple[int, ...] | None, MetaInfoSet | None]]


@bn.indexed
def _sources(conv: IiConversion, keys: tuple[InformationSet, ...]) -> _Sources:
    """The row sources of a profile whose information sets are ``keys``, in
    the profile's order: the whole rule of the lift, built once per
    conversion and key order.

    Each set the correspondence maps to a cell, in sorted order, takes that
    cell, over any row already there (so among sets sharing one cell, the
    last wins), and then each sibling cell, one of the cell's observation
    class (same agent, observation and actions) at another belief type,
    that no earlier set has reached.  A set the correspondence does not know
    raises ``MissingRule``; a corresponded agent the game does not know
    raises ``UnknownAgent``, whatever the keys.  It is kept on the
    conversion rather than on its game, because two conversions may share
    one game under different correspondences.
    """
    classes: dict[tuple, list[MetaInfoSet]] = {}  # by agent, observation, actions
    for agent in sorted({cell.agent for cell in conv.correspondence.values()}):
        for cell in _meta_information_sets(conv.game, agent):
            classes.setdefault(cell[:3], []).append(cell)
    cells: dict[MetaInfoSet, InformationSet] = {}
    for iset in sorted(keys):
        if iset not in conv.correspondence:
            raise MissingRule(f"policy covers unknown information set {iset}")
        cell = conv.correspondence[iset]
        cells[cell] = iset
        for other in classes.get(cell[:3], ()):
            cells.setdefault(other, iset)
    position = {iset: i for i, iset in enumerate(keys)}
    states = {}
    for w in conv.game.space.states:
        slots = _state_cells(conv.game, w)
        lacking = next((cell for _, cell in slots if cell not in cells), None)
        if lacking is None:
            states[w] = (tuple(position[cells[cell]] for _, cell in slots), None)
        else:
            states[w] = (None, lacking)
    return _Sources(MappingProxyType(cells), MappingProxyType(states))


def strategy_from_ii_policy(conv: IiConversion, profile: IiPolicy) -> dict[MetaInfoSet, Row]:
    """Lift a diagram policy to the unfolded game.

    Each information set's row lands on its corresponding cell and is copied
    to the same observation class at every other belief type, so the lifted
    strategy is defined wherever any type plays.  Where several sets reach
    one cell, ``_sources`` says whose row it takes.
    """
    sources = _sources(conv, tuple(profile))
    rows = {iset: dict(row) for iset, row in profile.items()}
    return {cell: rows[iset] for cell, iset in sources.cells.items()}


def _memo(table: dict, key: Hashable, compute: Callable[..., object], *args):
    """``table[key]``, computed as ``compute(*args)`` on a miss; an error
    leaves no entry."""
    try:
        return table[key]
    except KeyError:
        value = table[key] = compute(*args)
        return value


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
    state; returns the largest absolute deviation seen.

    A model's utilities depend only on the rows of the information sets its
    open decisions face (``incomplete._faced_sets``), the only rows that
    ``profile_rules_for_model`` reads, and a state's payoffs only on the
    rows its tree plays (Koller & Milch 2003, strategic relevance).  So
    each believed model is evaluated once per distinct restriction of the
    profiles to the former, and each believed state's tree walked once per
    distinct restriction to the latter and agent believing it.  The cost is the sum
    over models and states of their restricted profile spaces, not the
    number of profiles times the number of models and states: the bundled
    game's 256 pure profiles take 80 model evaluations and 80 tree walks.

    Restrictions are compared by row contents (items, in order): each row
    is interned to a small integer once per profile, and a restriction's
    key is the tuple of its rows' integers.  Which rows a model or a state
    reads is worked out once per key order of the profiles
    (``_model_reads``, ``_sources``), so no lifted strategy is built, and a
    state's rows are gathered only for a tree walk.  The belief supports
    (``incomplete._believed``, ``_believed_states``) are indexed, built
    once per game, agent and standpoint, and the two value functions the
    sums read are made once per check.  Per profile the check interns its
    rows, clears one dict of the models' utilities, and builds each
    restriction key it looks up.  A shared result is the
    very arithmetic of ``subjective_expected_utility`` and
    ``interim_utility`` on the lifted strategy, and the answer is the same
    bit for bit.  Each profile the caller passes is checked on entry, as
    ``subjective_expected_utility`` checks it (``incomplete._row_issues``),
    and a bad row raises what that would raise; the default enumeration's
    point rows are valid by construction and are not checked.  A result is
    kept across profiles only where the restriction reads fewer rows than
    the profile has; otherwise, among distinct profiles, its key could not
    come again, and only the agents believing its model within the profile
    share it.  So the default enumeration keeps at most each restricted
    space, never an entry per profile.
    """
    given = profiles is not None
    if not given:
        profiles = iter_pure_ii_profiles(x, cap)
    interned: dict[tuple, int] = {}
    models: dict[tuple, Mapping[str, float]] = {}
    trees: dict[tuple, float] = {}
    done: dict[str, Mapping[str, float]] = {}  # this profile's, by model

    # Both read the loop's current profile, rows, sources and agent, so they
    # are made once for the whole check.
    def utilities(sid: str) -> Mapping[str, float]:
        try:
            return done[sid]
        except KeyError:
            value = done[sid] = _model_utilities(x, profile, ids, reads, models, sid)
            return value

    def payoff(w: str) -> float:
        return _state_payoff(conv.game, profile, ids, sources, trees, agent, w)

    keys = None
    worst = 0.0
    for profile in profiles:
        if given and (issues := _row_issues(profile, _pure_slots(x))):
            raise ValidationError(issues)
        order = tuple(profile)
        if order != keys:
            sources = _sources(conv, order)
            reads = _model_reads(x, order)
            keys = order
        ids = [interned.setdefault(tuple(row.items()), len(interned))
               for row in profile.values()]
        done.clear()
        for agent in x.agents:
            lhs = _subjective_value(x, agent, x.objective, utilities)
            rhs = _interim_value(conv.game, agent, x.objective, payoff)
            worst = max(worst, abs(lhs - rhs))
    return worst <= tol, worst


def _model_reads(
    x: IiMaid, keys: tuple[InformationSet, ...]
) -> dict[str, tuple[int, ...] | None]:
    """Each model's faced sets (``incomplete._faced_sets``) as positions in
    the key order ``keys``, or None where one is missing: the rows its
    evaluation reads, or a sign that it raises."""
    position = {iset: i for i, iset in enumerate(keys)}
    out = {}
    for sid, s in x.models.items():
        faced = _faced_sets(s.model)
        if all(iset in position for iset in faced):
            out[sid] = tuple(position[iset] for iset in faced)
        else:
            out[sid] = None
    return out


def _model_utilities(
    x: IiMaid,
    profile: IiPolicy,
    ids: list[int],
    reads: Mapping[str, tuple[int, ...] | None],
    memo: dict,
    sid: str,
) -> Mapping[str, float]:
    """Model ``sid``'s utilities, shared by profiles agreeing on what it
    reads; ``ids`` holds the profile's interned rows."""
    model = x.models[sid].model
    read = reads[sid]
    if read is None or len(read) >= len(profile):
        return _profile_utilities(model, profile)
    key = (sid, tuple(map(ids.__getitem__, read)))
    return _memo(memo, key, _profile_utilities, model, profile)


def _state_payoff(
    g: IiEfg,
    profile: IiPolicy,
    ids: list[int],
    sources: _Sources,
    memo: dict,
    agent: str,
    w: str,
) -> float:
    """The agent's payoff at ``w`` under the lifted profile; one tree walk
    per distinct strategy played there and agent.  The rows played are
    read off the profile, and gathered into a strategy only for a walk."""
    slots = _state_cells(g, w)  # raises for a state the game lacks
    supply, lacking = sources.states[w]
    if lacking is not None:
        raise MissingRule(f"strategy lacks a row at {lacking}")
    if len(supply) >= len(profile):
        return _walk(g, w, profile, slots, supply, agent)
    key = (w, agent, tuple(map(ids.__getitem__, supply)))
    return _memo(memo, key, _walk, g, w, profile, slots, supply, agent)


def _walk(
    g: IiEfg,
    w: str,
    profile: IiPolicy,
    slots: tuple[tuple[tuple[str, Hashable], MetaInfoSet], ...],
    supply: tuple[int, ...],
    agent: str,
) -> float:
    """One tree walk at ``w``, each slot playing the profile row ``supply``
    names for it."""
    rows = tuple(profile.values())
    plays = {slot: rows[i] for (slot, _), i in zip(slots, supply)}
    return efg_expected_utility(g.space.games[w], plays, agent)
