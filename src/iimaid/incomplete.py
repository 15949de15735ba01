"""Influence-diagram games with subjective, possibly wrong, beliefs.

Each agent holds a distribution over candidate models (subjective MAIDs),
and each model in turn ascribes beliefs to every agent, so belief graphs may
be cyclic.  Agents act on information sets identified by what they observe
and what they can do, which lets a single policy span models that disagree
about the world.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple

from . import bn
from .bn import Row, TOL
from .errors import (
    GameError,
    MissingRule,
    SearchSpaceTooLarge,
    UnknownAgent,
    ValidationError,
)
from .maid import (
    DEFAULT_CAP,
    Cpd,
    Maid,
    Model,
    _best_row,
    _context_weights,
    _count_pure,
    _decision_values,
    _expected_utilities,
    _first_max,
    _free_decisions,
    _iter_pure,
    _priced,
    argmax_action,
    base_maid,
    has_perfect_recall,
)

MAX_ROUNDS = 1000  # of find_nash_ii's iterated best response


class InformationSet(NamedTuple):
    """What an agent knows when acting: an observation plus an action set.

    ``observation`` is a sorted tuple of (variable, outcome) pairs; ``actions``
    is the sorted action domain.  Two decision contexts in different models
    with the same observation and actions are the same information set.

    A named tuple, so it hashes and compares in C, by field order.  It is
    also ``==`` to a plain tuple of its fields; ``validate_ii_policy``
    checks that a profile's keys are of this very type.
    """

    agent: str
    observation: tuple[tuple[str, str], ...]
    actions: tuple[str, ...]


# An II policy profile: information set -> distribution over its actions.
IiPolicy = Mapping[InformationSet, Row]


@dataclass(frozen=True)
class SubjectiveMaid:
    """A candidate model of the game plus the beliefs it ascribes to agents.

    ``beliefs`` maps agent -> distribution over model ids.  Agents whose
    behaviour is already fixed inside ``model`` carry no entry.
    """

    id: str
    model: Model
    beliefs: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "beliefs", {a: dict(row) for a, row in self.beliefs.items()}
        )


@dataclass(frozen=True)
class IiMaid:
    """A family of subjective models with a designated objective one."""

    agents: tuple[str, ...]
    objective: str
    models: Mapping[str, SubjectiveMaid]

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(sorted(self.agents)))
        object.__setattr__(self, "models", dict(self.models))
        issues = _structural_issues(self.agents, self.objective, self.models, "model")
        if issues:
            raise ValidationError(issues)


def _structural_issues(
    agents: tuple[str, ...],
    objective: str,
    members: Mapping[str, SubjectiveMaid],
    noun: str,
) -> list[str]:
    """Shape checks of a family of subjective models, ``IiMaid`` or
    ``depth.DepthStack``, whose members are called ``noun``s in messages:
    a known objective, ids matching keys, known agents and believers, and
    normalised belief rows over known members."""
    issues: list[str] = []
    if not members:
        issues.append(f"empty-{noun}-set")
        return issues
    if objective not in members:
        issues.append(f"unknown-objective: {objective}")
    for sid in sorted(members):
        s = members[sid]
        if s.id != sid:
            issues.append(f"{noun}-id-mismatch: {sid} vs {s.id}")
        if not set(base_maid(s.model).agents) <= set(agents):
            issues.append(f"unknown-agents-in-{noun}: {sid}")
        for agent in sorted(s.beliefs):
            if agent not in agents:
                issues.append(f"unknown-believer: {agent} in {sid}")
                continue
            row = s.beliefs[agent]
            for target in sorted(row):
                if target not in members:
                    issues.append(f"dangling-belief: {sid}.{agent} -> {target}")
            if not bn.is_distribution(row):
                issues.append(f"belief-row-not-normalized: {sid}.{agent}")
    return issues


def believers(s: SubjectiveMaid) -> list[str]:
    return sorted(s.beliefs)


def _rows_close(a: Mapping[str, float], b: Mapping[str, float]) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= TOL for k in keys)


@dataclass(frozen=True)
class CoherenceViolation:
    agent: str
    model: str
    compatible_mass: float


def validate_coherence(x: IiMaid) -> list[CoherenceViolation]:
    """Check that agents are certain of their own beliefs.

    For each agent and model, the belief row must put all its mass on models
    ascribing that agent the very same row.
    """
    violations = []
    for sid in sorted(x.models):
        s = x.models[sid]
        for agent in believers(s):
            row = s.beliefs[agent]
            mass = 0.0
            for target, p in row.items():
                other = x.models[target].beliefs.get(agent)
                if other is not None and _rows_close(row, other):
                    mass += p
            if abs(mass - 1.0) > TOL:
                violations.append(CoherenceViolation(agent, sid, mass))
    return violations


def _row_classes(rows: Iterable[tuple[str, Mapping[str, float]]]) -> list[list[str]]:
    """Group ids by belief row: the connected components of ``_rows_close``,
    each sorted, ordered by least id.  Rows chained within ``TOL`` of each
    other share a class, so the classes do not depend on how ids are named."""
    classes: list[list[tuple[str, Mapping[str, float]]]] = []
    for sid, row in rows:
        merged, rest = [(sid, row)], []
        for members in classes:
            if any(_rows_close(row, other) for _, other in members):
                merged += members
            else:
                rest.append(members)
        classes = rest + [merged]
    return sorted(sorted(sid for sid, _ in members) for members in classes)


def belief_type_classes(x: IiMaid, agent: str) -> list[list[str]]:
    """Partition of the models (where the agent holds beliefs) by belief row."""
    if agent not in x.agents:
        raise UnknownAgent(agent)
    rows = ((sid, x.models[sid].beliefs.get(agent)) for sid in sorted(x.models))
    return _row_classes((sid, row) for sid, row in rows if row is not None)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the common-prior feasibility analysis.

    ``eq_feasible`` says whether any prior reproduces every agent's beliefs by
    conditioning.  ``strongly_consistent`` additionally requires some solution
    to give positive mass to every belief type that actually occurs.
    ``mass_bounds`` gives the feasible [min, max] prior mass per model, which
    exposes forced-zero models.  ``sample`` is a prior that maximizes the
    least realized type-class mass, which is ``min_type_mass``.  The three
    are None when no prior is feasible.  ``check_consistency`` states how
    each field is computed and how closely it matches separate per-bound
    linear programs.
    """

    eq_feasible: bool
    sample: dict[str, float] | None
    strongly_consistent: bool
    min_type_mass: float | None
    mass_bounds: dict[str, tuple[float, float]] | None
    type_classes: dict[str, list[list[str]]]


def check_consistency(x: IiMaid) -> ConsistencyReport:
    """Solve the common-prior equations.

    The unknown is a prior p over models satisfying, for every agent i with
    beliefs in every model and every model S', p(S') = sum_S P_i^S(S') p(S):
    p is stationary for each such agent's belief matrix.  Strong consistency
    maximizes the minimum prior mass over realized belief-type classes and
    asks for an optimum above ``TOL``.

    One rule decides every game.  Each such agent's stationary priors mix
    one vector per closed group of its type classes (``_closed_groups``), so
    the feasible priors mix one vector v_K per component K of those vectors'
    supports; a component whose vector does not reproduce every member's own
    row within ``TOL`` has mass 0 (``_prior_components``).  A model's bounds
    are (v_K, v_K) with one component, (0, v_K) with several, and (0, 0) in
    none.  ``sample`` weighs the v_K to maximize the least mass of a
    realized class with a live member, solved exactly
    (``_strongest_weights``); ``min_type_mass`` is that mass, 0.0 if a
    realized class has no live member and 1.0 if no class is realized.
    Where each such class lies in one component and each component holds
    one, v_K weighs 1 / m_K, m_K being the least mass v_K gives such a
    class, normalised; so that mixture is ``sample`` also where
    ``min_type_mass`` is 0 and every feasible prior is optimal.

    Against separate per-bound linear programs on generated games, coherent
    and not, ``type_classes`` and the verdicts are the same, and the bounds,
    ``min_type_mass`` and a unique strongest ``sample`` are within 1e-12.
    Class rows are read off each class's least member, so rows that differ
    within ``TOL`` move the bounds by up to about ``TOL``.  Rows whose
    ratios disagree by more than ``TOL`` are rejected, and a class row with
    any mass on a model of mass 0 gives its class mass 0, also where a
    solver, which accepts residuals of about 1e-7, finds a prior.
    """
    ids = sorted(x.models)
    type_classes = {a: belief_type_classes(x, a) for a in x.agents}
    full = [a for a in x.agents if all(a in x.models[sid].beliefs for sid in ids)]
    groups = [group for a in full for group in _closed_groups(x, a, type_classes[a])]
    components, component, vector = _prior_components(ids, groups)
    if not components:
        return ConsistencyReport(False, None, False, None, None, type_classes)

    # Per realized class, the mass each component's vector gives it.
    masses = []
    for members in (m for classes in type_classes.values() for m in classes):
        by: dict[int, float] = {}
        for s in members:
            if s in vector:
                by[component[s]] = by.get(component[s], 0.0) + vector[s]
        masses.append(by)
    weight, least = _strongest_weights(len(components), [by for by in masses if by])
    min_type_mass = least if all(masses) else 0.0
    sample = {
        sid: _snap(weight[component[sid]] * vector[sid]) if sid in vector else 0.0
        for sid in ids
    }
    bounds = {
        sid: (0.0 if len(components) > 1 else _snap(vector[sid]), _snap(vector[sid]))
        if sid in vector else (0.0, 0.0)
        for sid in ids
    }
    return ConsistencyReport(
        True, sample, min_type_mass > TOL, min_type_mass, bounds, type_classes
    )


# A group of type classes: its vector, and each member's own vector.
_Group = tuple[Row, dict[str, Row]]


def _closed_groups(x: IiMaid, agent: str, classes: list[list[str]]) -> list[_Group]:
    """The groups of an agent with beliefs in every model.

    The agent's rows are the same on a class C, so its equations say that
    q(C) = p(C) is stationary for the chain over classes that moves from C
    to C' with weight r_C(C'), C's least member's row summed over C', and
    that p = sum_C q(C) r_C.  The chain's stationary vectors live on its
    closed groups (Kemeny & Snell 1960): a group G holds p = p(G) w_G with
    w_G = sum_{C in G} pi_C r_C, pi being G's stationary vector, and every
    other class is a group of its own with an empty vector: mass 0.  A
    member's own vector is w_G with its own row standing for its class's.
    A group of one class C has w_C = r_C, and only weights above ``TOL``
    link classes, so in a coherent game every class is such a group.
    """
    n = len(classes)
    rows = [x.models[members[0]].beliefs[agent] for members in classes]
    of = {s: c for c, members in enumerate(classes) for s in members}
    weights = [[0.0] * n for _ in classes]
    for c, row in enumerate(rows):
        for t, p in row.items():
            weights[c][of[t]] += p
    reach = [{t for t in range(n) if t == c or weights[c][t] > TOL} for c in range(n)]
    for m in range(n):
        for seen in reach:
            if m in seen:
                seen |= reach[m]
    groups: list[_Group] = []
    for c, seen in enumerate(reach):
        if any(c not in reach[t] for t in seen):
            groups.append(({}, dict.fromkeys(classes[c], {})))
        elif seen == {c}:
            groups.append((rows[c], {s: x.models[s].beliefs[agent] for s in classes[c]}))
        elif c == min(seen):
            group = sorted(seen)
            pi = _stationary([[weights[u][t] for t in group] for u in group])
            own: dict[str, Row] = {}
            for u in group:
                for s in classes[u]:
                    vec = own[s] = {}
                    for d, w in zip(group, pi):
                        for t, p in (x.models[s].beliefs[agent] if d == u else rows[d]).items():
                            vec[t] = vec.get(t, 0.0) + w * p
            # the least member's row is its class's row, so its vector is w_G
            groups.append((own[classes[c][0]], own))
    return groups


def _stationary(weights: list[list[float]]) -> list[float]:
    """The stationary vector of an irreducible chain by Grassmann-Taksar-
    Heyman elimination, which reads only the off-diagonal weights and never
    subtracts."""
    a = [row[:] for row in weights]
    for k in range(len(a) - 1, 0, -1):
        out = sum(a[k][:k])
        for i in range(k):
            a[i][k] /= out
            for j in range(k):
                a[i][j] += a[i][k] * a[k][j]
    pi = [1.0]
    for k in range(1, len(a)):
        pi.append(sum(pi[i] * a[i][k] for i in range(k)))
    total = sum(pi)
    return [p / total for p in pi]


def _prior_components(
    ids: list[str], groups: list[_Group]
) -> tuple[list[list[str]], dict[str, int], dict[str, float]]:
    """The components of the feasible priors, each a normalised vector.

    A feasible prior is, on each group's members, the group's mass times
    its vector.  So members outside the vector's support have mass 0, and
    so does every member of a group whose vector puts mass on a model of
    mass 0 (to a fixpoint).  The live models and the vectors' live supports
    form components, whose ratios the vectors fix.  A component whose
    posterior on a group is not within ``TOL`` of each live member's own
    vector has mass 0 too; in a coherent game that says each member's own
    row is the posterior on its class.  Returns the components' members,
    each live model's component and its mass in that component's vector.
    """
    zero: set[str] = set()
    while True:
        grew = True
        while grew:
            grew = False
            for row, members in groups:
                if any(p > 0.0 and t in zero for t, p in row.items()):
                    dead = members
                else:
                    dead = [s for s in members if not row.get(s, 0.0) > 0.0]
                if not zero.issuperset(dead):
                    zero.update(dead)
                    grew = True
        # Each vector with a live member links its live support; a
        # breadth-first walk over those links fixes every component's ratios.
        links: dict[str, list[Mapping[str, float]]] = {}
        for row, members in groups:
            if not zero.issuperset(members):
                for t, p in row.items():
                    if p > 0.0 and t not in zero:
                        links.setdefault(t, []).append(row)
        vector: dict[str, float] = {}
        component: dict[str, int] = {}
        components: list[list[str]] = []
        for start in ids:
            if start in zero or start in component:
                continue
            members_k = [start]
            component[start] = len(components)
            vector[start] = 1.0
            for u in members_k:
                for row in links.get(u, ()):
                    mass = vector[u] / row[u]
                    for t, p in row.items():
                        if p > 0.0 and t not in zero and t not in component:
                            component[t] = len(components)
                            vector[t] = mass * p
                            members_k.append(t)
            total = sum(vector[s] for s in members_k)
            for s in members_k:
                vector[s] /= total
            components.append(members_k)
        failed = set()
        for _, own in groups:
            if zero.issuperset(own):
                continue
            mass = sum(vector.get(s, 0.0) for s in own)
            posterior = {s: vector.get(s, 0.0) / mass for s in own}
            for s, row in own.items():
                if s not in zero and not _rows_close(row, posterior):
                    failed.add(component[s])
        if not failed:
            return components, component, vector
        for j in failed:
            zero.update(components[j])


def _strongest_weights(
    n: int, masses: list[dict[int, float]]
) -> tuple[dict[int, float], float]:
    """The weights of ``n`` component vectors that maximize the least mass
    of a class (given per component in ``masses``), and that mass.

    An exact simplex over ``Fraction`` maximizes Z = sum_C y_C subject to
    sum_C masses[C][j] y_C <= 1 per component j and y >= 0, from the slack
    basis by Bland's rule, which never cycles; Z is finite, as each class
    has mass in some component.  The price u_j of j's slack gives weight
    u_j / Z, under which each class has mass at least 1 / Z (LP duality).
    Without classes the weights are equal and the mass is 1.
    """
    if not masses:
        return dict.fromkeys(range(n), 1.0 / n), 1.0
    # A class with at least another's mass in every component is never the
    # least, so only the classes that no other lies under are kept.
    kept: list[dict[int, float]] = []
    for by in sorted(masses, key=lambda by: sum(by.values())):
        if not any(all(by.get(j, 0.0) >= p for j, p in low.items()) for low in kept):
            kept.append(by)
    masses, m = kept, len(kept)
    rows = [[Fraction(by.get(j, 0.0)) for by in masses]
            + [Fraction(i == j) for i in range(n)] + [Fraction(1)] for j in range(n)]
    cost = [Fraction(1)] * m + [Fraction(0)] * (n + 1)  # reduced costs; cost[-1] is -Z
    basis = list(range(m, m + n))
    while (enter := next((c for c in range(m + n) if cost[c] > 0), None)) is not None:
        _, _, r = min((row[-1] / row[enter], basis[i], i)
                      for i, row in enumerate(rows) if row[enter] > 0)
        pivot = rows[r]
        pivot[:] = [v / pivot[enter] for v in pivot]
        for row in (*rows[:r], *rows[r + 1:], cost):
            if row[enter]:
                f = row[enter]
                row[:] = [v - f * p for v, p in zip(row, pivot)]
        basis[r] = enter
    z = -cost[-1]
    return {j: float(-cost[m + j] / z) for j in range(n)}, _snap(float(1 / z))


def _snap(v: float) -> float:
    if abs(v) < 1e-12:
        return 0.0
    if abs(v - 1.0) < 1e-12:
        return 1.0
    return float(v)


def model_information_sets(model: Model, agent: str) -> frozenset[InformationSet]:
    """The agent's information sets that the model's open decisions face:
    by the package's one rule (``_faced_sets``), at supported contexts only."""
    return frozenset(iset for iset in _faced_sets(model) if iset.agent == agent)


@bn.indexed
def information_sets(x: IiMaid, agent: str) -> frozenset[InformationSet]:
    """Union of the agent's information sets over every model in the family."""
    if agent not in x.agents:
        raise UnknownAgent(agent)
    out: set[InformationSet] = set()
    for sid in sorted(x.models):
        out |= model_information_sets(x.models[sid].model, agent)
    return frozenset(out)


def is_encounterable(iset: InformationSet, s: SubjectiveMaid) -> bool:
    """Whether some open decision in the model faces this information set at
    a supported context, the rule of ``model_information_sets``."""
    return iset in _faced_sets(s.model)


class _DecisionSlots(NamedTuple):
    """One decision's slots in a diagram.

    ``cells`` maps each parent context to its information set and whether
    the context is in the decision's support.
    """

    parents: tuple[str, ...]
    actions: tuple[str, ...]
    cells: Mapping[tuple[str, ...], tuple[InformationSet, bool]]


def _decision_slots(model: Model) -> Mapping[str, _DecisionSlots]:
    """Every decision's slots, by owner then name: the one place where parent
    contexts meet their information sets and their support, the contexts
    ``maid._context_weights`` reaches with every decision at ``bn.weight_one``
    (committed ones too).  Indexed on the base diagram; callers pick the open
    decisions through ``maid._free_decisions``."""
    return _build_decision_slots(base_maid(model))


@bn.indexed
def _build_decision_slots(m: Maid) -> Mapping[str, _DecisionSlots]:
    free = {e: bn.weight_one(m.variables[e]) for e in m.decisions()}
    out = {}
    for agent in m.agents:
        for d in m.decisions(agent):
            pa, actions = m.parents[d], m.variables[d].domain
            support = _context_weights(m, free, d)[0]
            cells = {
                ctx: (InformationSet(agent, tuple(zip(pa, ctx)), actions), ctx in support)
                for ctx in product(*(m.variables[p].domain for p in pa))
            }
            out[d] = _DecisionSlots(pa, actions, MappingProxyType(cells))
    return MappingProxyType(out)


@bn.indexed
def _faced_sets(model: Model) -> Mapping[InformationSet, tuple[str, ...]]:
    """Each information set that an open decision of the model faces at a
    supported context (positive probability with every decision free), mapped
    to those decisions in name order: the one rule for which sets a model
    can face."""
    slots = _decision_slots(model)
    out: dict[InformationSet, tuple[str, ...]] = {}
    for d in _free_decisions(model, None):
        for iset, supported in slots[d].cells.values():
            if supported:
                out[iset] = out.get(iset, ()) + (d,)
    return MappingProxyType(out)


def _rules_from_rows(
    model: Model,
    decisions: Collection[str],
    rows: Mapping[InformationSet, Row],
    missing: Callable[[InformationSet], GameError],
) -> dict[str, Cpd]:
    """Rules for ``decisions``, by owner then name, read off information-set
    rows: the package's one writer of such rules.

    A supported context takes its set's row; one without a row raises
    ``missing(iset)``.  Any other context, which no policy can reach, takes
    the least action, whatever ``rows`` holds (see ``maid``).  Rows are not
    checked here: the public entry that received them has (``_row_issues``),
    or a ``PostPolicyMaid`` checks the rules ``depth`` commits.
    """
    rules: dict[str, Cpd] = {}
    for d, (pa, actions, cells) in _decision_slots(model).items():
        if d not in decisions:
            continue
        out = {}
        for ctx, (iset, supported) in cells.items():
            if not supported:
                out[ctx] = _best_row(actions)
            elif (row := rows.get(iset)) is None:
                raise missing(iset)
            else:
                out[ctx] = row
        rules[d] = Cpd(d, pa, out)
    return rules


def profile_rules_for_model(model: Model, profile: IiPolicy) -> dict[str, Cpd]:
    """The model's open decision rules read off an information-set policy,
    by ``_rules_from_rows``.

    Every set the model faces (``_faced_sets``) that has a row must hold a
    distribution over its actions, or ``ValidationError`` lists each
    ``row-not-normalized`` set, so the rules need no further check.  Every
    supported context must be covered, or ``MissingRule`` is raised.
    Contexts that no policy can reach take the least action, whatever the
    profile holds for their set.
    """
    issues = _row_issues(profile, _faced_sets(model))
    if issues:
        raise ValidationError(issues)
    return _rules_from_rows(model, _free_decisions(model, None), profile, _no_rule)


def _row_issues(profile: IiPolicy, isets: Iterable[InformationSet]) -> list[str]:
    """``row-not-normalized`` for each of ``isets`` whose row in the profile
    is not a distribution over the set's actions; a set without a row is
    not judged here.  The one check of an information-set row: each public
    entry runs it once on the profile it receives, and no kernel checks a
    row again.  Rows are looked up by ``profile.get``, so a profile keyed by
    plain tuples equal to the sets is checked the same."""
    return [
        f"row-not-normalized: {iset}"
        for iset in isets
        if (row := profile.get(iset)) is not None
        and not bn.is_distribution(row, iset.actions)
    ]


def _no_rule(iset: InformationSet) -> MissingRule:
    """The error of a supported context whose set has no row in a profile."""
    return MissingRule(f"no rule for {iset}")


def _profile_utilities(model: Model, profile: IiPolicy) -> dict[str, float]:
    """Every agent's expected utility in the model under the profile, whose
    rows the caller has checked (see ``_rules_from_rows``)."""
    rules = _rules_from_rows(model, _free_decisions(model, None), profile, _no_rule)
    return _expected_utilities(model, rules)


@bn.indexed
def _believed(x: IiMaid, agent: str, at: str) -> tuple[tuple[str, float], ...]:
    """(model id, weight) for each model the agent believes positively at
    ``at``, by model id; built once per game, agent and standpoint.  A bad
    agent or standpoint keeps nothing, so it raises on every call."""
    if agent not in x.agents:
        raise UnknownAgent(agent)
    if at not in x.models:
        raise ValidationError([f"unknown-model: {at}"])
    weights = x.models[at].beliefs.get(agent)
    if weights is None:
        raise UnknownAgent(f"{agent} holds no beliefs in {at}")
    return bn.positive(weights)


def _per_model_utilities(
    x: IiMaid, profile: IiPolicy
) -> Callable[[str], Mapping[str, float]]:
    """Model id -> ``_profile_utilities``, each model evaluated on first use
    and kept in the closure's dict."""
    done: dict[str, Mapping[str, float]] = {}

    def utilities(sid: str) -> Mapping[str, float]:
        try:
            return done[sid]
        except KeyError:
            value = done[sid] = _profile_utilities(x.models[sid].model, profile)
            return value

    return utilities


def _subjective_value(
    x: IiMaid, agent: str, at: str, utilities: Callable[[str], Mapping[str, float]]
) -> float:
    """The belief-weighted sum of the agent's per-model utilities."""
    total = 0.0
    for sid, w in _believed(x, agent, at):
        total += w * utilities(sid).get(agent, 0.0)
    return total


def subjective_expected_utility(
    x: IiMaid, agent: str, at: str, profile: IiPolicy
) -> float:
    """The agent's belief-weighted expected utility from the standpoint ``at``.

    Each positively believed model is evaluated under the profile restricted
    to it; models the agent gives probability zero are skipped entirely.
    Every row the profile holds for a set of the game is checked first, read
    or not (``_row_issues``).
    """
    issues = _row_issues(profile, _pure_slots(x))
    if issues:
        raise ValidationError(issues)
    return _subjective_value(x, agent, at, _per_model_utilities(x, profile))


def _eu_report(x: IiMaid, profile: IiPolicy) -> tuple[dict[str, float], Mapping[str, float]]:
    """``cli eu``'s report: the subjective expected utility of each agent
    holding beliefs at the objective model, and that model's expected
    utilities, with the public calls' values and first error, but each row
    checked once and each model evaluated once."""
    at = x.objective
    believing = [agent for agent in x.agents if agent in x.models[at].beliefs]
    issues = _row_issues(profile, _pure_slots(x) if believing else _faced_sets(x.models[at].model))
    if issues:
        raise ValidationError(issues)
    utilities = _per_model_utilities(x, profile)
    subjective = {agent: _subjective_value(x, agent, at, utilities) for agent in believing}
    return subjective, utilities(at)


@bn.indexed
def _profile_slots(
    x: IiMaid, agent: str, at: str
) -> tuple[tuple[InformationSet, ...], tuple[InformationSet, ...]]:
    """Split the agent's info sets into believed-relevant and the rest."""
    believed = [x.models[sid] for sid, _ in _believed(x, agent, at)]
    relevant, rest = [], []
    for iset in sorted(information_sets(x, agent)):
        if any(is_encounterable(iset, s) for s in believed):
            relevant.append(iset)
        else:
            rest.append(iset)
    return tuple(relevant), tuple(rest)


# Belief-weighted action values: a constant term (models where the agent has
# no free decision) and, per information set, the value of each action.
_ActionValues = tuple[float, dict[InformationSet, dict[str, float]]]


def _action_values(
    x: IiMaid,
    agent: str,
    at: str,
    profile: IiPolicy,
    utilities: Callable[[str], Mapping[str, float]],
) -> _ActionValues | None:
    """The agent's subjective value at ``at`` as a sum over information sets.

    With at most one free decision in every positively believed model,
    utility is additive over information sets (Koller & Milch 2003).  Each
    such model adds its ``maid.decision_values`` table, weighted by belief,
    into ``values[iset][action]``; no rule is built for the agent's own
    decision, so their rows in ``profile`` are not read.  A model where the
    agent has no free decision adds its weighted utility, from
    ``utilities``, to the constant.  So any policy's value is
    ``maid._priced(constant, values, rows)``.  Returns None when the agent
    has two or more free decisions in a believed model.  The other
    decisions' rules read ``profile``'s rows unchecked: the public entry
    checked them (see ``_rules_from_rows``).
    """
    models = []
    for sid, w in _believed(x, agent, at):
        model = x.models[sid].model
        own = _free_decisions(model, agent)
        if len(own) > 1:
            return None
        models.append((model, sid, w, own))
    constant = 0.0
    values: dict[InformationSet, dict[str, float]] = {}
    for model, sid, w, own in models:
        if not own:
            constant += w * utilities(sid).get(agent, 0.0)
            continue
        (d,) = own
        rules = _rules_from_rows(
            model, [e for e in _free_decisions(model, None) if e != d], profile, _no_rule
        )
        cells = _decision_slots(model)[d].cells
        (table,) = _decision_values(model, rules, ((d, agent),))
        for ctx, q_row in table.items():
            iset = cells[ctx][0]
            total = values.get(iset)
            if total is None:
                total = values[iset] = dict.fromkeys(iset.actions, 0.0)
            for label, q in q_row.items():
                total[label] += w * q
    return constant, values


def _argmax_rows(
    x: IiMaid, agent: str, at: str, values: dict[InformationSet, dict[str, float]]
) -> dict[InformationSet, Row]:
    """Per information set, ``maid._best_row`` of its values, if it has any."""
    relevant, rest = _profile_slots(x, agent, at)
    return {iset: _best_row(iset.actions, values.get(iset)) for iset in relevant + rest}


def best_response_ii(
    x: IiMaid,
    agent: str,
    others: IiPolicy,
    at: str | None = None,
    cap: int = DEFAULT_CAP,
) -> tuple[dict[InformationSet, Row], float]:
    """Best pure information-set policy against the others' rules; rows in
    ``others`` for the agent's own information sets are not read.

    When the agent has at most one free decision in every positively
    believed model, subjective value is a sum over information sets: each
    believed model's ``maid.decision_values`` table is added, weighted by
    belief, into per-information-set action values, and each information set
    takes ``maid._best_row`` of its values (see ``maid``).
    Information sets never reached with positive probability, and those not
    encounterable in any believed model, take the least action.  Every row
    in ``others`` for a set of the game, the agent's own included, is
    checked first (``_row_issues``), read or not.  The value
    returned is then read off those action values rather than recomputed by
    ``subjective_expected_utility``, from which it may differ by rounding
    (at most 1e-12 in the tests).  Otherwise every pure policy over the
    encounterable information sets is enumerated and ``maid._first_max``
    picks one; ``cap`` bounds only that fallback.
    """
    issues = _row_issues(others, _pure_slots(x))
    if issues:
        raise ValidationError(issues)
    return _best_response_ii(x, agent, others, x.objective if at is None else at, cap)


def _best_response_ii(
    x: IiMaid, agent: str, others: IiPolicy, at: str, cap: int
) -> tuple[dict[InformationSet, Row], float]:
    """``best_response_ii`` on rows already checked."""
    table = _action_values(x, agent, at, others, _per_model_utilities(x, others))
    if table is None:
        return _best_response_ii_exhaustive(x, agent, others, at, cap)
    best = _argmax_rows(x, agent, at, table[1])
    return best, _priced(*table, best)


def _best_response_ii_exhaustive(
    x: IiMaid, agent: str, others: IiPolicy, at: str, cap: int = DEFAULT_CAP
) -> tuple[dict[InformationSet, Row], float]:
    """Best response by enumerating every pure policy over the encounterable
    information sets (``maid._iter_pure``, at most ``cap``), the rest at the
    least action; ``maid._first_max`` in that order wins.  Candidates are
    point rows, so none is checked."""
    relevant, rest = _profile_slots(x, agent, at)
    fallback = {iset: _best_row(iset.actions) for iset in rest}
    slots = [(iset, iset.actions) for iset in relevant]
    return _first_max(
        ({**cells, **fallback} for cells in _iter_pure(slots, "candidate policies", cap)),
        lambda cand: _subjective_value(
            x, agent, at, _per_model_utilities(x, {**dict(others), **cand})
        ),
    )


def validate_ii_policy(x: IiMaid, profile: IiPolicy) -> list[str]:
    """Every information set of the game, and no other key, with a row that
    is a distribution over the set's actions.  A key must be an
    ``InformationSet`` itself: a plain tuple equal to one is unknown, and
    the set it stands for lacks its rule."""
    wanted = _every_information_set(x)
    known = {k for k in profile if type(k) is InformationSet and k in wanted}
    slots = _pure_slots(x)  # sorted
    issues = [f"missing-rule: {iset}" for iset in slots if iset not in known]
    if len(known) < len(profile):
        unknown = [k for k in profile if type(k) is not InformationSet or k not in wanted]
        issues += [f"unknown-information-set: {k}" for k in sorted(unknown, key=repr)]
    return issues + _row_issues(profile, [iset for iset in slots if iset in known])


def is_nash_ii(
    x: IiMaid, profile: IiPolicy, tol: float = 1e-6, cap: int = DEFAULT_CAP
) -> tuple[bool, dict[str, float]]:
    """Check the profile for unilateral deviations in subjective value.

    Each agent's value is taken at the objective model's beliefs and compared
    with their best response there, over every set the agent meets in its
    believed models (``_profile_slots``; see ``iiefg.is_interim_nash``).  A
    regret above ``tol`` fails the check; the ``maid`` module docstring sets
    out the tolerance defaults and the tie rule both equilibrium families share.

    Where ``best_response_ii`` takes its per-information-set path, one
    ``maid.decision_values`` pass per believed model yields both values: the
    achieved one prices the profile's rows, the best one sums each set's
    ``argmax_action`` entry (the argmax rows' price, with no row built), off
    the same action values.  They may differ from a
    ``subjective_expected_utility`` recomputation by rounding (at most 1e-12
    in the tests), and a pure profile agreeing with the best response has a
    regret of exactly 0.0.  In the exhaustive fallback the achieved value
    comes from each model's expected utilities, computed once per call and
    shared by every agent.
    """
    issues = validate_ii_policy(x, profile)
    if issues:
        raise ValidationError(issues)
    return _is_nash_ii(x, profile, tol, cap)


def _is_nash_ii(
    x: IiMaid, profile: IiPolicy, tol: float, cap: int
) -> tuple[bool, dict[str, float]]:
    """``is_nash_ii`` on a valid profile: one ``validate_ii_policy`` passes,
    or one ``find_nash_ii`` builds.  No kernel below checks a row, so each
    row is checked at most once, by the entry."""
    at = x.objective
    utilities = _per_model_utilities(x, profile)
    regrets: dict[str, float] = {}
    for agent in x.agents:
        if agent not in x.models[at].beliefs:
            continue
        table = _action_values(x, agent, at, profile, utilities)
        if table is None:
            _, brv = _best_response_ii_exhaustive(x, agent, profile, at, cap)
            achieved = _subjective_value(x, agent, at, utilities)
        else:
            # ``_priced`` against ``_argmax_rows``, bit for bit, without the
            # rows: each set's best entry, as ``maid._best_value`` sums them
            brv, values = table
            for q in values.values():
                brv += q[argmax_action(q)]
            achieved = _priced(*table, profile)
        regrets[agent] = brv - achieved
    return all(r <= tol for r in regrets.values()), regrets


@bn.indexed
def _pure_slots(x: IiMaid) -> tuple[InformationSet, ...]:
    """Every agent's information sets, sorted: the slots of a pure profile."""
    return tuple(sorted(iset for agent in x.agents for iset in information_sets(x, agent)))


@bn.indexed
def _every_information_set(x: IiMaid) -> frozenset[InformationSet]:
    """``_pure_slots`` as a set: the keys a valid profile holds."""
    return frozenset(_pure_slots(x))


def count_pure_ii_profiles(x: IiMaid, cap: int | None = None) -> int:
    """How many pure profiles ``iter_pure_ii_profiles`` yields; with ``cap``,
    ``maid._count_pure``'s running-product check over the sorted sets."""
    slots = [(iset, iset.actions) for iset in _pure_slots(x)]
    return _count_pure(slots, "pure profiles", cap)


def iter_pure_ii_profiles(
    x: IiMaid, cap: int = DEFAULT_CAP
) -> Iterator[dict[InformationSet, Row]]:
    """Every pure profile, over ``_pure_slots`` in sorted order, the last
    set's action varying fastest; ``cap`` is checked at the first draw.  The
    profiles share their point rows (see ``maid._iter_pure``), so a caller
    that edits a profile replaces rows instead of mutating them.
    """
    slots = [(iset, iset.actions) for iset in _pure_slots(x)]
    yield from _iter_pure(slots, "pure profiles", cap)


def find_nash_ii(
    x: IiMaid,
    tol: float = 1e-6,
    cap: int = DEFAULT_CAP,
) -> dict[InformationSet, Row] | None:
    """Search for an equilibrium profile.

    Tries exhaustive pure-profile enumeration first (lexicographic order,
    first hit wins).  If the pure space exceeds the cap, falls back to at
    most ``MAX_ROUNDS`` rounds of iterated best responses from the uniform
    profile; returns None when neither stage produces a profile passing the
    check.  Profiles of both stages are valid by construction, so none is
    validated, and both list their information sets in sorted order.
    """
    if (lapse := _recall_lapse(x)) is not None:
        raise ValidationError([f"imperfect-recall: {lapse[0]} in {lapse[1]}"])
    try:
        count_pure_ii_profiles(x, cap)
    except SearchSpaceTooLarge:
        pass
    else:
        # No inner cap can trip: an exhaustive best response enumerates some
        # of ``_pure_slots``, whose product the count has checked.
        for profile in iter_pure_ii_profiles(x, cap):
            ok, _ = _is_nash_ii(x, profile, tol, cap)
            if ok:
                return profile
        return None

    profile = {iset: bn.uniform_row(iset.actions) for iset in _pure_slots(x)}
    for _ in range(MAX_ROUNDS):
        changed = False
        for agent in x.agents:
            if agent not in x.models[x.objective].beliefs:
                continue
            br, _ = _best_response_ii(x, agent, profile, x.objective, cap)
            for iset, row in br.items():
                if not _rows_close(profile[iset], row):
                    changed = True
                profile[iset] = row
        ok, _ = _is_nash_ii(x, profile, tol, cap)
        if ok:
            return profile
        if not changed:
            return None
    return None


def has_perfect_recall_ii(x: IiMaid) -> bool:
    """Perfect recall of every agent in every model of the family."""
    return _recall_lapse(x) is None


def _recall_lapse(x: IiMaid) -> tuple[str, str] | None:
    """The first ``(agent, model id)``, by agent then sorted model id, where
    the agent lacks perfect recall, or None."""
    for agent in x.agents:
        for sid in sorted(x.models):
            if not has_perfect_recall(x.models[sid].model, agent)[0]:
                return agent, sid
    return None
