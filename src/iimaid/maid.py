"""Multi-agent influence diagrams: ownership, policies, and equilibria.

A MAID is a Bayes net whose variables are partitioned into chance, decision
and utility kinds, with decisions and utilities owned by agents.  Policies
supply the missing decision CPDs; everything else reduces to exact inference
on the induced network: one ``bn.sweep`` with the rules as tables.  No sweep
expands a utility: each is summed out first into its expected payoff per
parent context (``_payoff_tables``, which ``efg.maid2efg`` prices tree
leaves from), and a sweep's leaf adds its weight times each entry, in
utility-name order, reading every key through a reader made once per sweep
(``bn.context_reader``); on point utility rows this is the same arithmetic.
A Q-table's free decision is priced at the leaf, every action at once,
unless a swept variable reads it (``decision_values``).  These steps keep
every operand and its order, so each sum is bit-identical to that of a walk
that builds every key by name and branches on the Q-table's decision.

A Q-table's sweep and a context weight's visit only the variables their
leaves depend on (``_pruned_order``): the parents of every decision and
utility, or of the one decision, and their ancestors.  The others are
barren, and leaving them out is the first step of Shachter's (1986)
evaluation of influence diagrams; it moves a Q entry by rounding only.
``is_nash`` prices every agent with one free decision in one sweep where
none of those decisions is read or followed by a kept variable
(``_decision_values``); each table is bit-identical to the agent's own
sweep's.  Expected utilities still sweep every variable, and so do the
Q-tables of a backward induction over several decisions
(``_best_response``), whose value a regret compares with an expected
utility.

Public functions check each rule their caller passes once, on entry, and
a ``PostPolicyMaid`` checks its committed rules when it is made.  A public
function rejects a rule for a committed decision (``committed-decision``)
rather than lay it over the commitment.  The
``_``-prefixed kernels assume checked rules and add the model's committed
ones themselves.  The ii layer keeps the same rule for information-set
profile rows: its public entries check each row they receive once, with
``incomplete._row_issues``, and no kernel checks a row again.

Tolerances and ties
-------------------
Every solver picks its action, its candidate and its default by one rule,
``_first_max``: the first candidate, in a fixed order, whose value is within
``bn.TOL`` (1e-9) of the greatest, with its own value.  Over an action table
in sorted domain order it is ``argmax_action``, the least action within
``TOL`` of the maximum; ``_best_row`` writes its point row, or the least
action's where a context has no values (probability zero, so every action
is worth the same): the package's one least-action default.  Users:
``best_response``, ``is_nash`` and ``find_pure_nash`` here,
``incomplete.best_response_ii``, ``is_nash_ii`` and ``_rules_from_rows``,
``depth.final_decision_assignment`` and ``recursive_best_response``, and
the exhaustive searches below.

A context that no policy can reach has probability zero with every
decision free, as ``incomplete._decision_slots`` judges support.  Every
rule written from information-set rows (``incomplete.profile_rules_for_model``
and the rules ``depth`` commits, both through
``incomplete._rules_from_rows``) gives such a context the least action,
whatever row its set holds; no sweep, sample or tree ever reads it.

Equilibrium checks compare each agent's regret (best-response value minus
achieved value) with a separate, caller-chosen tolerance.  The library
defaults differ: ``is_nash`` and ``find_pure_nash`` use ``tol=1e-9``, while
``incomplete.is_nash_ii`` and ``incomplete.find_nash_ii`` use ``tol=1e-6``;
the CLI passes 1e-6 to both families unless ``--tol`` says otherwise.

Both families price achieved and best values off the same Q-table
(``decision_values``; belief-weighted per information set in
``incomplete``) with one helper, ``_priced``, rather than re-evaluating the
profile.  ``best_response`` takes its value off the table of the agent's
earliest decision; ``is_nash`` and ``find_pure_nash`` price both values off
one table for an agent with exactly one free decision, and so do
``incomplete.best_response_ii`` and ``incomplete.is_nash_ii`` on their
per-information-set path.  Where only the best value is wanted,
``_best_value`` (for ``is_nash`` and ``find_pure_nash``) and
``incomplete.is_nash_ii`` sum each context's or set's ``argmax_action``
entry, in the table's order, instead of building the argmax point rows:
``_priced`` against those rows bit for bit.  These values may differ from an
``expected_utilities`` (or ``incomplete.subjective_expected_utility``)
recomputation by rounding, at most 1e-12 in the tests.  Achieved and best
values are summed in the same order, so a pure profile agreeing with the
best response at every reached context has a regret of exactly 0.0.  A
rule that takes another action tied with the best within ``bn.TOL`` can
leave a regret of rounding size instead (1.1e-16 seen).  In ``is_nash`` and
``find_pure_nash`` an agent with no free decision has regret 0.0 unpriced;
agents with several, and the exhaustive fallbacks, take their values from
expected utilities.

Where no per-context or per-information-set path applies, a solver
enumerates pure choices (``_best_response_exhaustive``,
``incomplete._best_response_ii_exhaustive``, ``iiefg.is_interim_nash``) by
``_iter_pure`` under one cap rule, ``_count_pure``, checked before any value
is computed, and keeps their ``_first_max``.  That order puts the least
action first at every slot, so a fast path and its oracle pick the same
rule unless several contexts each hold actions within ``TOL`` (the gaps can
add up past ``TOL``) or an agent's earlier decision ties exactly (backward
induction keeps its least action, the oracle the first whole policy).  A
chosen action may be worth up to ``TOL`` less than another, so a regret can
be negative down to ``-TOL``.

A kernel that replaces ``bn.sweep`` must give every expected utility
(``expected_utilities``, and so ``incomplete.subjective_expected_utility``)
and every Q-table entry (``decision_values``) within 1e-12 absolute of a
``bn.sweep`` over every variable, with an entry at exactly the contexts it
reaches.  The pruned Q-table sweeps keep to this bound while each barren
row sums to one up to rounding.  A barren row may sum to one only within
``bn.TOL``, as any row may: a pruned sweep never reads it, so it counts as
exactly one there, and only the sweeps over every variable read the
excess.  A regret never mixes the two: an agent with one free decision
prices both of its values off one pruned table, and an agent with several
compares a backward induction over every variable with an expected
utility.  Utilities and regrets may then move by rounding within that
bound, but every verdict and every chosen action, and so every rule and
profile returned, stays bit-identical, and so does the CLI's text and JSON
output on the bundled documents, numbers included.

``depth.conditional_utility`` divides a Q-table by each context's
probability.  Its trace values lie within 1e-12 absolute of a recomputation
by ``depth._walk_conditional_utility``; the trace's actions, order and
``written_to``, the profile and the objective rules are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

from . import bn
from .bn import CHANCE, DECISION, TOL, UTILITY, Cpd, Row, Variable
from .errors import (
    MissingRule,
    SearchSpaceTooLarge,
    UnknownAgent,
    ValidationError,
)

DEFAULT_CAP = 10_000_000

# A (possibly partial) policy profile: decision variable name -> rule.
PolicyRules = Mapping[str, Cpd]

# A decision's Q-table: parent context -> action -> value (see decision_values).
QTable = dict[tuple[str, ...], dict[str, float]]

# What a table of action values is keyed by: parent contexts or information sets.
K = TypeVar("K")
C = TypeVar("C")  # a candidate of an exhaustive search (see _first_max)


@dataclass(frozen=True)
class Maid:
    """A DAG over chance, decision and utility variables with agent ownership.

    ``parents`` fixes the whole graph, including informational edges into
    decisions.  CPDs exist for every non-decision variable; decisions are
    parameterised later by policies.
    """

    agents: tuple[str, ...]
    variables: Mapping[str, Variable]
    parents: Mapping[str, tuple[str, ...]]
    cpds: Mapping[str, Cpd]

    @classmethod
    def build(
        cls,
        agents: Iterable[str],
        variables: Iterable[Variable],
        edges: Iterable[tuple[str, str]],
        cpds: Iterable[Cpd],
    ) -> "Maid":
        vs = {v.name: v for v in variables}
        issues: list[str] = []
        pa: dict[str, set[str]] = {name: set() for name in vs}
        for src, dst in edges:
            if src not in vs or dst not in vs:
                issues.append(f"dangling-edge: {src}->{dst}")
                continue
            pa[dst].add(src)
        m = cls(
            tuple(sorted(set(agents))),
            vs,
            {name: tuple(sorted(ps)) for name, ps in pa.items()},
            {c.child: c for c in cpds},
        )
        issues.extend(validate_maid(m))
        if issues:
            raise ValidationError(issues)
        return m

    def kind(self, name: str) -> str:
        return self.variables[name].kind

    def decisions(self, agent: str | None = None) -> list[str]:
        return sorted(
            n
            for n, v in self.variables.items()
            if v.kind == DECISION and (agent is None or v.owner == agent)
        )

    def utilities(self, agent: str | None = None) -> list[str]:
        return sorted(
            n
            for n, v in self.variables.items()
            if v.kind == UTILITY and (agent is None or v.owner == agent)
        )

    def chance_variables(self) -> list[str]:
        return sorted(n for n, v in self.variables.items() if v.kind == CHANCE)


def validate_maid(m: Maid) -> list[str]:
    issues: list[str] = []
    for name in sorted(m.variables):
        v = m.variables[name]
        if v.kind not in (CHANCE, DECISION, UTILITY):
            issues.append(f"unknown-kind: {name} is {v.kind!r}")
            continue
        if v.kind in (DECISION, UTILITY) and v.owner not in m.agents:
            issues.append(f"unknown-agent: {name} owned by {v.owner!r}")
        if v.kind in (CHANCE, DECISION) and len(v.domain) < 2:
            issues.append(f"degenerate-domain: {name}")
        if v.kind == UTILITY:
            if not v.values or set(v.values) != set(v.domain):
                issues.append(f"missing-utility-values: {name}")
            if any(name in m.parents[c] for c in m.variables):
                issues.append(f"utility-not-leaf: {name}")
        if v.kind == DECISION and name in m.cpds:
            issues.append(f"decision-with-cpd: {name}")
        if v.kind != DECISION and name not in m.cpds:
            issues.append(f"missing-cpd: {name}")
    for child in sorted(m.cpds):
        if child in m.variables and child in m.parents:
            if tuple(m.cpds[child].parents) != m.parents[child]:
                issues.append(f"cpd-parents-mismatch: {child}")
    if not issues:
        net = bn.BayesNet(
            m.variables, {**m.cpds, **{d: uniform_rule(m, d) for d in m.decisions()}}
        )
        issues.extend(bn.validate_net(net))
    return issues


@dataclass(frozen=True)
class PostPolicyMaid:
    """A MAID where some decisions are pre-committed to fixed rules.

    Committed decisions behave as part of the environment: their rules travel
    with the model, and only the remaining decisions are open to policies.
    """

    base: Maid
    assigned: Mapping[str, Cpd]

    def __post_init__(self) -> None:
        # read-only: the rules are checked here, once
        object.__setattr__(self, "assigned", MappingProxyType(dict(self.assigned)))
        issues = []
        for name, rule in self.assigned.items():
            if name not in self.base.variables or self.base.kind(name) != DECISION:
                issues.append(f"assigned-non-decision: {name}")
                continue
            issues.extend(_check_rule(self.base, name, rule))
        if issues:
            raise ValidationError(issues)


Model = Union[Maid, PostPolicyMaid]


def base_maid(model: Model) -> Maid:
    return model.base if isinstance(model, PostPolicyMaid) else model


def fixed_rules(model: Model) -> Mapping[str, Cpd]:
    return model.assigned if isinstance(model, PostPolicyMaid) else {}


def free_decisions(model: Model, agent: str | None = None) -> list[str]:
    """The open decisions (of one agent, or of all), sorted by name."""
    return list(_free_decisions(model, agent))


@bn.indexed
def _free_decisions(model: Model, agent: str | None) -> tuple[str, ...]:
    """``free_decisions`` as a tuple, built once per model and agent (None
    for all agents, passed at every call so that it is one index key)."""
    committed = set(fixed_rules(model))
    return tuple(d for d in base_maid(model).decisions(agent) if d not in committed)


def _check_rule(m: Maid, name: str, rule: Cpd) -> list[str]:
    if tuple(rule.parents) != m.parents[name]:
        return [f"rule-parents-mismatch: {name}"]
    if set(rule.rows) != set(product(*(m.variables[p].domain for p in rule.parents))):
        return [f"rule-context-mismatch: {name}"]
    return [
        f"rule-row-invalid: {name}{ctx}"
        for ctx in sorted(rule.rows)
        if not bn.is_distribution(rule.rows[ctx], m.variables[name].domain)
    ]


def uniform_rule(model: Model, name: str) -> Cpd:
    domain = base_maid(model).variables[name].domain
    return decision_rule(model, name, lambda ctx: bn.uniform_row(domain))


def decision_rule(model: Model, name: str, choose) -> Cpd:
    """Tabulate a rule from ``choose(context) -> label or distribution``."""
    m = base_maid(model)
    return bn.tabulate(
        name,
        m.variables[name].domain,
        {p: m.variables[p].domain for p in m.parents[name]},
        choose,
    )


def _checked_rules(
    model: Model, rules: PolicyRules, open_decisions: Iterable[str] = ()
) -> dict[str, Cpd]:
    """The caller's rules but those for ``open_decisions``, checked; they
    must cover every other free decision, and none may be for a committed
    one, whose rule the model already fixes."""
    m = base_maid(model)
    rules = {d: r for d, r in rules.items() if d not in open_decisions}
    for d in _free_decisions(model, None):
        if d not in rules and d not in open_decisions:
            raise MissingRule(f"no rule for decision {d}")
    committed = fixed_rules(model)
    issues = []
    for name, rule in rules.items():
        if name not in m.variables or m.kind(name) != DECISION:
            raise MissingRule(f"rule for non-decision {name}")
        if name in committed:
            issues.append(f"committed-decision: {name}")
        else:
            issues.extend(_check_rule(m, name, rule))
    if issues:
        raise ValidationError(issues)
    return rules


def induced_network(model: Model, rules: PolicyRules) -> bn.BayesNet:
    """The Bayes net obtained by plugging decision rules into the diagram."""
    m = base_maid(model)
    rules = _checked_rules(model, rules)
    return bn.BayesNet(m.variables, {**m.cpds, **fixed_rules(model), **rules})


@bn.indexed
def _sweep_order(m: Maid) -> tuple[str, ...]:
    """The ``bn.topo_sort`` order of the diagram without its utilities, which
    ``_payoff_tables`` sums out; built once per base diagram."""
    return tuple(bn.topo_sort({v: m.parents[v] for v in m.variables if m.kind(v) != UTILITY}))


@bn.indexed
def _payoff_tables(
    m: Maid,
) -> tuple[tuple[str, tuple[str, ...], Mapping[tuple[str, ...], float]], ...]:
    """Each utility's owner, parents and expected payoff per parent context,
    utilities in name order; built once per base diagram.  An entry sums, in
    the row's order, each payoff times its probability where that is positive."""
    out = []
    for u in m.utilities():
        values, cpd = m.variables[u].values, m.cpds[u]
        table = {
            ctx: sum(values[lbl] * p for lbl, p in row.items() if p > 0.0)
            for ctx, row in cpd.rows.items()
        }
        out.append((m.variables[u].owner, cpd.parents, MappingProxyType(table)))
    return tuple(out)


def expected_utilities(model: Model, rules: PolicyRules) -> dict[str, float]:
    """Each agent's expected sum of utility variables under the profile."""
    return _expected_utilities(model, _checked_rules(model, rules))


def _expected_utilities(model: Model, rules: PolicyRules) -> dict[str, float]:
    """``expected_utilities`` given a checked rule for every open decision."""
    m = base_maid(model)
    payoffs = [(owner, bn.context_reader(parents), table)
               for owner, parents, table in _payoff_tables(m)]
    totals = dict.fromkeys(m.agents, 0.0)

    def leaf(a: dict[str, str], weight: float) -> None:
        for owner, key, table in payoffs:
            totals[owner] += weight * table[key(a)]

    tables = {**m.cpds, **fixed_rules(model), **rules}
    bn.sweep(m.variables, tables, _sweep_order(m), leaf)
    return totals


def expected_utility(model: Model, rules: PolicyRules, agent: str) -> float:
    if agent not in base_maid(model).agents:
        raise UnknownAgent(agent)
    return expected_utilities(model, rules)[agent]


def decision_values(
    model: Model, rules: PolicyRules, d: str, agent: str
) -> dict[tuple[str, ...], dict[str, float]]:
    """The agent's Q-table for the free decision ``d`` under the other rules.

    One ``bn.sweep`` over the variables its leaves depend on
    (``_pruned_order``), with a leaf keyed by ``d``'s parent context.
    ``Q[context][action]`` is the probability mass of the context times the
    agent's expected utility after taking the action there, so any rule
    ``r`` for ``d`` is worth ``sum(r(a | ctx) * Q[ctx][a])``.  Contexts of
    probability zero have no entry.  A rule for ``d`` in ``rules`` is ignored.

    When no swept variable reads ``d`` (``_q_sweep``), the sweep leaves
    ``d`` out and each leaf adds its weight times the payoff under every
    action; otherwise it branches on ``d``'s ``bn.weight_one`` table.  Both
    give the same table bit for bit: ``weight_one`` multiplies only by an
    exact ``1.0``, and no row after ``d`` reads it, so each (context, action)
    gets the same terms in the same depth-first order, and contexts are keyed
    in the same order.  A one-utility agent's leaf adds ``weight * x``, not a
    ``sum``'s ``0 + x``, which differs only in a zero's sign, lost in a Q
    entry's ``0.0``.
    """
    if agent not in base_maid(model).agents:
        raise UnknownAgent(agent)
    if d not in _free_decisions(model, None):
        raise ValidationError([f"not-a-free-decision: {d}"])
    (q,) = _decision_values(model, _checked_rules(model, rules, (d,)), ((d, agent),))
    return q


@bn.indexed
def _pruned_order(m: Maid, d: str | None) -> tuple[str, ...]:
    """``_sweep_order(m)`` restricted to the parents of ``d`` and their
    ancestors, or, for None, to those of every decision and utility: the
    variables that a context weight's or a Q-table's leaves depend on.  The
    others are barren (Shachter 1986): no leaf reads them and each of their
    rows sums to one, so a sweep leaves them out.  Built once per base
    diagram and decision (None passed at every call, as one index key)."""
    readers = [v for v in m.variables if m.kind(v) != CHANCE] if d is None else [d]
    keep, order = {p for v in readers for p in m.parents[v]}, _sweep_order(m)
    for v in reversed(order):
        if v in keep:
            keep.update(m.parents[v])
    return tuple(v for v in order if v in keep)


def _context_weights(
    model: Model, rules: PolicyRules, d: str
) -> tuple[dict[tuple[str, ...], float], float]:
    """Each parent context of ``d`` that one sweep over only its parents and their
    ancestors reaches, with its weight, and their total, added as ``bn.marginal`` does."""
    m = base_maid(model)
    context, weights, total = bn.context_reader(m.parents[d]), {}, 0.0

    def leaf(a: dict[str, str], weight: float) -> None:
        nonlocal total
        ctx = context(a)
        weights[ctx] = weights.get(ctx, 0.0) + weight
        total += weight

    tables = {**m.cpds, **fixed_rules(model), **rules}
    bn.sweep(m.variables, tables, _pruned_order(m, d), leaf)
    return weights, total


@bn.indexed
def _q_sweep(
    m: Maid, targets: tuple[tuple[str, str], ...], whole: bool
) -> tuple[tuple[str, ...], tuple[tuple[bool, tuple[str, ...]], ...]] | None:
    """The one sweep that prices the Q-table of every (decision, agent) of
    ``targets``, or None where there is none; built once per base diagram,
    targets and choice.

    The sweep walks ``_pruned_order(m, None)``, or ``_sweep_order(m)`` when
    ``whole``, without the targets' decisions, but with a lone target's
    decision where a variable of the order reads it.  Several targets share
    a sweep only where no variable of the order reads one of their
    decisions and those it holds are its tail; their leaves walk that tail.
    Each target's plan says whether its leaf branches on its decision, and
    which of the tail's decisions its leaf walks, innermost first.
    """
    names = {d for d, _ in targets}
    order = _sweep_order(m) if whole else _pruned_order(m, None)
    rest = tuple(v for v in order if v not in names)
    kept = tuple(v for v in order if v in names)
    read = any(d in m.parents[v] for v in order for d in names)
    if not targets or len(targets) > 1 and (read or order != rest + kept):
        return None
    if read:  # a lone target, whose sweep branches on its decision
        return order, ((True, ()),)
    return rest, tuple((False, tuple(e for e in reversed(kept) if e != d)) for d, _ in targets)


def _decision_values(
    model: Model, rules: PolicyRules, targets: tuple[tuple[str, str], ...], whole: bool = False
) -> list[QTable]:
    """``decision_values`` for each (decision, agent) of ``targets``, in
    order, given a checked rule for every other open decision.  A lone
    target's rule, if any, is ignored; several targets read each other's.
    ``whole`` sweeps every variable, barren ones included, for a table
    whose value is compared with an expected utility (see
    ``_best_response``).

    Several targets share one sweep where ``_q_sweep`` finds one.  For each
    target, a leaf then walks the other targets' positive rule entries in
    order position, depth first, multiplying its weight as ``bn.sweep`` does
    (``_walking``), and prices every action of the target at the end.  So
    each (context, action) gets the same terms in the same order as from
    the target's own sweep, bit for bit.  Elsewhere each target has its own.
    """
    m = base_maid(model)
    sweep = _q_sweep(m, targets, whole)
    if sweep is None:
        return [_decision_values(model, rules, (t,), whole)[0] for t in targets]
    order, plans = sweep
    tables = {**m.cpds, **fixed_rules(model), **rules}
    if len(targets) == 1:  # no leaves to gather and no decisions to walk
        ((d, agent),), ((branch, _),) = targets, plans
        if branch:
            tables[d] = bn.weight_one(m.variables[d])
        q: QTable = {}
        bn.sweep(m.variables, tables, order, _pricer(m, d, agent, branch, q))
        return [q]
    qs: list[QTable] = [{} for _ in targets]
    leaves = []
    for (d, agent), q, (_, walk) in zip(targets, qs, plans):
        price = _pricer(m, d, agent, False, q)
        for e in walk:
            price = _walking(e, tables[e], m.variables[e].domain, price)
        leaves.append(price)

    def leaf(a: dict[str, str], weight: float) -> None:
        for price in leaves:
            price(a, weight)

    bn.sweep(m.variables, tables, order, leaf)
    return qs


def _pricer(
    m: Maid, d: str, agent: str, branch: bool, q: QTable
) -> Callable[[dict[str, str], float], None]:
    """A sweep's leaf that adds its weight times the agent's payoff under
    every action of ``d``, or under ``a[d]`` only when ``branch``, into ``q``
    at ``d``'s parent context (see ``decision_values``)."""
    payoffs = [(bn.context_reader(parents), table)
               for owner, parents, table in _payoff_tables(m) if owner == agent]
    context = bn.context_reader(m.parents[d])
    actions = m.variables[d].domain

    if len(payoffs) == 1:
        ((key, table),) = payoffs

        def price(a: dict[str, str], weight: float) -> None:
            ctx = context(a)
            q_row = q.get(ctx) or q.setdefault(ctx, dict.fromkeys(actions, 0.0))
            for action in ((a[d],) if branch else actions):
                a[d] = action
                q_row[action] += weight * table[key(a)]
    else:
        def price(a: dict[str, str], weight: float) -> None:
            ctx = context(a)
            q_row = q.get(ctx) or q.setdefault(ctx, dict.fromkeys(actions, 0.0))
            for action in ((a[d],) if branch else actions):
                a[d] = action
                q_row[action] += weight * sum(table[key(a)] for key, table in payoffs)
    return price


def _walking(
    name: str, table: Cpd, labels: Sequence[str], leaf: Callable[[dict[str, str], float], None]
) -> Callable[[dict[str, str], float], None]:
    """``leaf`` behind a walk over ``name``'s labels in ``table``, taken as
    ``bn.sweep`` takes a step: smallest label first, entries that are not
    positive skipped, the weight times each entry."""
    rows, key = table.rows, bn.context_reader(table.parents)

    def walk(a: dict[str, str], weight: float) -> None:
        row = rows[key(a)]
        for label in labels:
            p = row.get(label, 0.0)
            if p <= 0.0:
                continue
            a[name] = label
            leaf(a, weight * p)
    return walk


def argmax_action(values: Mapping[str, float]) -> str:
    """The least action whose value is within ``TOL`` of the maximum, by
    ``_first_max``; see the module docstring."""
    return _first_max(sorted(values), values.__getitem__)[0]


def _best_row(actions: Sequence[str], values: Mapping[str, float] | None = None) -> Row:
    """The point row on ``argmax_action(values)``, or on the least action
    where there are no values: the package's one least-action default."""
    return bn.point_row(actions, actions[0] if values is None else argmax_action(values))


def _policy_slots(model: Model, decisions: Iterable[str]) -> list:
    """A ``((decision, context), actions)`` slot per cell of a pure policy."""
    m = base_maid(model)
    return [((d, ctx), m.variables[d].domain) for d in sorted(decisions)
            for ctx in product(*(m.variables[p].domain for p in m.parents[d]))]


def _count_pure(slots: Iterable[tuple[object, Sequence[str]]], noun: str, cap: int | None) -> int:
    """How many pure choices the ``(key, actions)`` slots give.  The one cap
    rule: past ``cap`` the running product ``n`` raises
    ``SearchSpaceTooLarge("{n} {noun} exceeds cap {cap}")``."""
    count = 1
    for _, actions in slots:
        count *= len(actions)
        if cap is not None and count > cap:
            raise SearchSpaceTooLarge(f"{count} {noun} exceeds cap {cap}")
    return count


def _iter_pure(
    slots: Sequence[tuple[K, Sequence[str]]], noun: str, cap: int
) -> Iterator[dict[K, Row]]:
    """Every pure choice over the slots as ``{key: point row}``, in
    ``itertools.product`` order, checking ``cap`` at the first draw.  The
    choices share one point row per (slot, action), which must not be mutated."""
    _count_pure(slots, noun, cap)
    choices = [[(key, bn.point_row(actions, a)) for a in actions] for key, actions in slots]
    yield from map(dict, product(*choices))


def _first_max(candidates: Iterable[C], value: Callable[[C], float]) -> tuple[C, float]:
    """The first candidate whose ``value`` is within ``TOL`` of the greatest,
    and its own value.  One pass keeps those within ``TOL`` of the running
    maximum that beat every earlier one kept: no other can come first."""
    near: list[tuple[C, float]] = []
    for cand in candidates:
        v = value(cand)
        if not near or v > near[-1][1]:
            near = [kept for kept in near if kept[1] >= v - TOL]
            near.append((cand, v))
    return near[0]


def count_pure_policies(model: Model, decisions: Iterable[str]) -> int:
    return _count_pure(_policy_slots(model, decisions), "pure policies", None)


def iter_pure_rules(
    model: Model, decisions: Iterable[str], cap: int = DEFAULT_CAP
) -> Iterator[dict[str, Cpd]]:
    """All pure policies over ``decisions`` in lexicographic order.

    Order is by (decision name, parent context, action label), so the very
    first policy picks the least action everywhere.
    """
    m = base_maid(model)
    for cells in _iter_pure(_policy_slots(model, decisions), "pure policies", cap):
        rows: dict[str, dict[tuple[str, ...], Row]] = {}
        for (d, ctx), row in cells.items():
            rows.setdefault(d, {})[ctx] = row
        yield {d: Cpd(d, m.parents[d], r) for d, r in rows.items()}


def _priced(
    constant: float, values: Mapping[K, Mapping[str, float]], rows: Mapping[K, Row]
) -> float:
    """The value of ``rows`` against a table of action values, plus ``constant``.

    ``values`` maps a key to ``{action: q}`` and ``rows`` maps the same keys
    to distributions over actions: a Q-table from ``decision_values`` against
    a rule's ``rows``, or ``incomplete``'s per-information-set values against
    a profile.  Only the keys of ``values`` are read, and a row's
    non-positive entries are skipped (see ``bn``).  Every caller sums in
    this one order, so a pure rule agreeing with the best response is worth
    exactly the best-response value.
    """
    total = constant
    for key, q in values.items():
        row = rows[key]
        total += sum(p * v for label, v in q.items() if (p := row[label]) > 0.0)
    return total


def best_response(
    model: Model, others: PolicyRules, agent: str, cap: int = DEFAULT_CAP
) -> tuple[dict[str, Cpd], float]:
    """The agent's best pure policy against fixed opponent rules.

    With perfect recall this is backward induction: the agent's free
    decisions are solved in reverse recall order, each by ``argmax_action``
    per parent context of its ``decision_values`` table, with earlier own
    decisions uniform and later ones at the rules already chosen.  Contexts
    that have probability zero under the returned profile get the least
    action.  The value is the returned rules priced off the earliest
    decision's table, so it may differ from an ``expected_utilities``
    recomputation by rounding (see the module docstring).  An agent with no
    free decision gets ``({}, expected_utilities(...)[agent])``.  Without
    perfect recall every pure policy is enumerated, its expected utility is
    the value, and ``cap`` bounds only that fallback.
    """
    if agent not in base_maid(model).agents:
        raise UnknownAgent(agent)
    own = _free_decisions(model, agent)
    return _best_response(model, _checked_rules(model, others, own), agent, cap)


def _best_response(
    model: Model, others: PolicyRules, agent: str, cap: int = DEFAULT_CAP
) -> tuple[dict[str, Cpd], float]:
    """``best_response`` given checked rules for the other open decisions.

    Over several decisions each Q-table sweeps every variable, as the
    expected utilities that ``is_nash`` and ``find_pure_nash`` compare its
    value with do, so a barren row that sums to one only within ``TOL``
    scales both alike (see the module docstring)."""
    recall, order = has_perfect_recall(model, agent)
    if not recall:
        return _best_response_exhaustive(model, others, agent, cap)
    assert order is not None
    if not order:
        return {}, _expected_utilities(model, others)[agent]
    tables: dict[str, QTable] = {}
    chosen: dict[str, Cpd] = {}
    for i in reversed(range(len(order))):
        d = order[i]
        earlier = {e: uniform_rule(model, e) for e in order[:i]}
        (q,) = _decision_values(
            model, {**others, **earlier, **chosen}, ((d, agent),), len(order) > 1)
        tables[d] = q
        chosen[d] = _argmax_rule(model, d, q, lambda ctx: True)
    # The earliest table holds the later decisions at the rules chosen so
    # far; the fix-up below changes them only at contexts of probability
    # zero, so that table still prices the returned rules.
    value = _priced(0.0, tables[order[0]], chosen[order[0]].rows)
    for i in range(1, len(order)):
        # Perfect recall puts every earlier own decision among d's parents, so
        # a context is unreachable exactly when an earlier rule never takes
        # the action recorded in it; such contexts fall back to the least.
        reachable = lambda ctx, i=i: all(
            chosen[e].row_for(ctx)[ctx[e]] > 0.0 for e in order[:i]
        )
        chosen[order[i]] = _argmax_rule(model, order[i], tables[order[i]], reachable)
    return {d: chosen[d] for d in sorted(chosen)}, value


def _best_value(
    model: Model, others: PolicyRules, agent: str, cap: int = DEFAULT_CAP
) -> tuple[float, QTable | None]:
    """``_best_response``'s value without its rules, and, when the agent has
    exactly one free decision, its Q-table, which prices any rule for it.

    With one free decision the value is the table's ``argmax_action`` entry
    summed over its contexts, which is ``_priced`` against the argmax rule's
    point rows bit for bit (the other terms are ``0.0 * q``), so no rule is
    built.
    """
    own = _free_decisions(model, agent)
    if len(own) != 1:
        return _best_response(model, others, agent, cap)[1], None
    (q,) = _decision_values(model, others, ((own[0], agent),))
    return _argmax_total(q), q


def _argmax_total(q: QTable) -> float:
    """The table's ``argmax_action`` entry summed over its contexts, in order."""
    value = 0.0
    for row in q.values():
        value += row[argmax_action(row)]
    return value


def _argmax_rule(
    model: Model, d: str, q: Mapping[tuple[str, ...], Mapping[str, float]], reachable
) -> Cpd:
    m = base_maid(model)
    key, actions = bn.context_reader(m.parents[d]), m.variables[d].domain
    return decision_rule(model, d, lambda ctx: _best_row(
        actions, q.get(key(ctx)) if reachable(ctx) else None))


def _best_response_exhaustive(
    model: Model, others: PolicyRules, agent: str, cap: int = DEFAULT_CAP
) -> tuple[dict[str, Cpd], float]:
    """Best response by enumerating every pure policy (at most ``cap``).

    ``_first_max`` in ``iter_pure_rules`` order wins, which takes the least
    action at indifferent contexts.  It checks no rule.
    """
    return _first_max(
        iter_pure_rules(model, free_decisions(model, agent), cap),
        lambda cand: _expected_utilities(model, {**others, **cand})[agent],
    )


def _regrets(
    model: Model,
    rules: PolicyRules,
    best: Mapping[str, tuple[float, QTable | None]],
) -> dict[str, float]:
    """Each agent's best value, from ``best``, minus its achieved value, in
    agent order; an agent with no free decision has no entry and regret 0.0.

    An agent with a Q-table prices its own rule off it; the others share one
    ``_expected_utilities`` of the profile, computed only if some agent needs
    it.
    """
    regrets = dict.fromkeys(base_maid(model).agents, 0.0)
    achieved: dict[str, float] | None = None
    for agent, (brv, q) in best.items():
        if q is not None:
            (d,) = _free_decisions(model, agent)
            regrets[agent] = brv - _priced(0.0, q, rules[d].rows)
            continue
        if achieved is None:
            achieved = _expected_utilities(model, rules)
        regrets[agent] = brv - achieved[agent]
    return regrets


def is_nash(
    model: Model, rules: PolicyRules, tol: float = 1e-9, cap: int = DEFAULT_CAP
) -> tuple[bool, dict[str, float]]:
    """Check the profile for unilateral pure deviations; returns per-agent regret.

    For an agent with exactly one free decision, one ``decision_values``
    table prices both the best response and the profile's rule, so a pure
    rule agreeing with the best response at every reached context has
    regret exactly 0.0.  Those tables come from one sweep where
    ``_decision_values`` can share one, else from one sweep each.  An agent
    with no free decision has regret 0.0 and costs no sweep.  Other agents
    compare ``best_response``'s value with the profile's expected utility,
    computed at most once per call.  A regret above ``tol`` fails the
    check; see the module docstring for how this default relates to
    ``incomplete.is_nash_ii``'s.
    """
    m = base_maid(model)
    rules = _checked_rules(model, rules)
    single = tuple((own[0], agent) for agent in m.agents
                   if len(own := _free_decisions(model, agent)) == 1)
    best = {agent: (_argmax_total(q), q)
            for (_, agent), q in zip(single, _decision_values(model, rules, single))}
    for agent in m.agents:
        if len(own := _free_decisions(model, agent)) > 1:
            others = {d: r for d, r in rules.items() if d not in own}
            best[agent] = _best_value(model, others, agent, cap)
    regrets = _regrets(model, rules, best)
    return all(r <= tol for r in regrets.values()), regrets


def find_pure_nash(
    model: Model, tol: float = 1e-9, cap: int = DEFAULT_CAP
) -> list[dict[str, Cpd]]:
    """All pure-policy Nash equilibria, in lexicographic profile order.

    The verdict per profile is ``is_nash``'s, with the same arithmetic.  An
    agent's best-response value, and the Q-table that prices its own rule
    when it has one free decision, depend only on the other agents' rules,
    so they are computed once per agent and choice of the others' actions
    and reused across profiles.  A profile's expected utilities are computed
    only if some agent has several free decisions.  The profiles are valid
    by construction, so no rule is checked.
    """
    m = base_maid(model)
    decisions = free_decisions(model)
    slots = _policy_slots(model, decisions)
    own = {agent: set(free_decisions(model, agent)) for agent in m.agents}
    others_at = {
        agent: [i for i, ((d, _), _) in enumerate(slots) if d not in own[agent]]
        for agent in m.agents
        if own[agent]
    }
    cache: dict[tuple[str, tuple[str, ...]], tuple[float, QTable | None]] = {}
    found = []
    # iter_pure_rules enumerates the same slots in the same product order
    for combo, profile in zip(
        product(*(actions for _, actions in slots)),
        iter_pure_rules(model, decisions, cap),
    ):
        best = {}
        for agent in others_at:
            key = (agent, tuple(combo[i] for i in others_at[agent]))
            if key not in cache:
                others = {d: r for d, r in profile.items() if d not in own[agent]}
                cache[key] = _best_value(model, others, agent, cap)
            best[agent] = cache[key]
        if all(r <= tol for r in _regrets(model, profile, best).values()):
            found.append(profile)
    return found


def has_perfect_recall(model: Model, agent: str) -> tuple[bool, list[str] | None]:
    """Whether the agent's open decisions admit a recall-compatible total order.

    Returns (True, order) where each later decision observes every earlier
    decision and all of its informational parents, or (False, None).
    """
    m = base_maid(model)
    if agent not in m.agents:
        raise UnknownAgent(agent)
    ds = sorted(free_decisions(model, agent), key=lambda d: (len(m.parents[d]), d))
    for i, early in enumerate(ds):
        for late in ds[i + 1 :]:
            needed = set(m.parents[early]) | {early}
            if not needed <= set(m.parents[late]):
                return False, None
    return True, ds
