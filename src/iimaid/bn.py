"""Discrete Bayesian networks with exact inference by enumeration.

All types here are immutable values and the operations are pure functions.
Variables and outcome labels are iterated in sorted order everywhere, so
identical inputs always produce identical outputs.  Inference is one
enumeration kernel, ``sweep``, with zero-probability pruning, exact and fast
enough for the network sizes this package targets (roughly twenty binary
variables).  It walks one loop over an explicit stack, not one call per
variable, so a diagram's depth is not bounded by the recursion limit.
``marginal`` and ``maid``'s expected utilities, Q-tables and context weights
(a decision's support and, with its Q-table, ``depth``'s conditional
utilities) are leaves over it.  The diagram kernels pass it no utility
variable: ``maid`` sums each one out first, the first step of variable
elimination, into a table of expected payoffs per parent context.  Its
Q-table and context-weight sweeps pass it no barren variable either, only
the ancestors of what their leaves read (``maid._pruned_order``), except
a backward induction over several decisions, whose value is compared with
an expected utility.
``enumerate_support`` is the one oracle kept apart from it, and still
recurses once per variable; ``depth._walk_conditional_utility`` is a leaf
over that.

Every CPD, decision-rule and belief row is judged by one predicate,
``is_distribution``: each entry within ``TOL`` of [0, 1] (NaN and infinite
entries never are), a sum within ``TOL`` of one, and, when a domain is
given, exactly its labels.  Callers keep their own issue codes.

So a valid row may hold an entry down to ``-TOL``, and every reader counts
an entry only when it is ``> 0.0``: a CPD or decision-rule entry in each
sweep, sample, joint probability, payoff table, tree expansion and tree
pricing, and pricing (``maid._priced``), and a belief entry in each
support, which ``positive`` gives.  The kernels test their entries inline.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import wraps
from itertools import product
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
    CycleError,
    PartialAssignment,
    ZeroProbabilityEvidence,
)

TOL = 1e-9

CHANCE = "chance"
DECISION = "decision"
UTILITY = "utility"

Row = Mapping[str, float]
Assignment = Mapping[str, str]
T = TypeVar("T")


@dataclass(frozen=True)
class Variable:
    """A named discrete variable.

    The domain is stored sorted so iteration order is canonical.  Utility
    variables carry a real payoff per outcome label in ``values``.
    """

    name: str
    domain: tuple[str, ...]
    kind: str = CHANCE
    owner: str | None = None
    values: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(sorted(self.domain)))
        if self.values is not None:
            object.__setattr__(self, "values", dict(self.values))


def chance(name: str, domain: Iterable[str]) -> Variable:
    return Variable(name, tuple(domain), CHANCE)


def decision(name: str, owner: str, domain: Iterable[str]) -> Variable:
    return Variable(name, tuple(domain), DECISION, owner)


def utility(name: str, owner: str, values: Mapping[str, float]) -> Variable:
    """A utility variable whose domain is the key set of ``values``."""
    return Variable(name, tuple(values), UTILITY, owner, dict(values))


@dataclass(frozen=True)
class Cpd:
    """A conditional probability table.

    ``rows`` maps parent-outcome tuples, aligned with ``parents``, to a
    distribution over the child's domain.  Parents are kept sorted by name;
    rows supplied against a differently ordered parent list are re-keyed.
    """

    child: str
    parents: tuple[str, ...]
    rows: Mapping[tuple[str, ...], Row]

    def __post_init__(self) -> None:
        parents = tuple(self.parents)
        if list(parents) != sorted(parents):
            perm = sorted(range(len(parents)), key=lambda i: parents[i])
            rekeyed = {
                tuple(key[i] for i in perm): dict(row) for key, row in self.rows.items()
            }
            object.__setattr__(self, "parents", tuple(sorted(parents)))
            object.__setattr__(self, "rows", rekeyed)
        else:
            object.__setattr__(self, "parents", parents)
            object.__setattr__(
                self, "rows", {tuple(k): dict(v) for k, v in self.rows.items()}
            )

    def row_for(self, assignment: Assignment) -> Row:
        return self.rows[tuple(assignment[p] for p in self.parents)]


def bad_entry(row: Row) -> str | None:
    """The first label whose entry is not within ``TOL`` of [0, 1], or None."""
    for label, p in row.items():
        if not -TOL <= p <= 1.0 + TOL:
            return label
    return None


def is_distribution(row: Row, domain: Iterable[str] | None = None) -> bool:
    """Whether ``row`` is a distribution (over ``domain``); see the module docstring."""
    if domain is not None and set(row) != set(domain):
        return False
    return bad_entry(row) is None and abs(sum(row.values()) - 1.0) <= TOL


def positive(row: Row) -> tuple[tuple[str, float], ...]:
    """(label, entry) for each entry ``> 0.0``, by label: a belief row's
    support (see the module docstring)."""
    return tuple((label, p) for label, p in sorted(row.items()) if p > 0.0)


def point_row(domain: Sequence[str], label: str) -> dict[str, float]:
    if label not in domain:
        raise ValueError(f"label {label!r} not in domain {tuple(domain)}")
    return {o: (1.0 if o == label else 0.0) for o in domain}


def uniform_row(domain: Sequence[str]) -> dict[str, float]:
    p = 1.0 / len(domain)
    return {o: p for o in domain}


def tabulate(child, child_domain, parent_domains: Mapping[str, Sequence[str]], choose) -> Cpd:
    """Build a CPD by calling ``choose(context)`` for every parent context.

    ``choose`` may return an outcome label (producing a point mass) or a full
    distribution mapping.
    """
    parents = tuple(sorted(parent_domains))
    rows = {}
    for combo in product(*(tuple(sorted(parent_domains[p])) for p in parents)):
        out = choose(dict(zip(parents, combo)))
        rows[combo] = point_row(child_domain, out) if isinstance(out, str) else dict(out)
    return Cpd(child, parents, rows)


@dataclass(frozen=True)
class BayesNet:
    variables: Mapping[str, Variable]
    cpds: Mapping[str, Cpd]


def indexed(build: Callable[..., T]) -> Callable[..., T]:
    """Decorate ``build(obj, *args)`` so that it runs once per ``obj`` and
    ``args``, its value kept on ``obj``.

    This is the package's one structural index.  ``obj`` is a frozen
    dataclass, so whatever is derived from it alone holds for its lifetime.
    Values are keyed on the decorated function and its extra arguments,
    which must be hashable and passed by position, and live in a private
    ``_index`` attribute of ``obj`` that is not a dataclass field: it takes
    no part in ``==``, ``hash``, ``repr`` or serialization, and it is freed
    with the object.  ``build`` must return an immutable value, because
    every later caller receives that same value.  A build that raises keeps
    nothing, so every call raises again.
    """

    @wraps(build)
    def lookup(obj, *args: Hashable) -> T:
        index = vars(obj).get("_index")
        if index is None:
            index = {}
            object.__setattr__(obj, "_index", index)
        key = (build, args)
        try:
            return index[key]
        except KeyError:
            value = index[key] = build(obj, *args)
            return value

    return lookup


def make_net(variables: Iterable[Variable], cpds: Iterable[Cpd]) -> BayesNet:
    return BayesNet({v.name: v for v in variables}, {c.child: c for c in cpds})


def topo_sort(parents: Mapping[str, Iterable[str]]) -> list[str]:
    """Topological order of a dependency map, smallest name first among ready nodes."""
    remaining = {name: set(ps) for name, ps in parents.items()}
    children: dict[str, list[str]] = {name: [] for name in parents}
    for name, ps in remaining.items():
        for p in ps:
            if p in children:
                children[p].append(name)
    ready = sorted(name for name, ps in remaining.items() if not ps)
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for c in children[name]:
            remaining[c].discard(name)
            if not remaining[c]:
                heapq.heappush(ready, c)
    if len(order) != len(parents):
        rest = sorted(set(parents) - set(order))
        raise CycleError(f"cycle-detected among {rest}")
    return order


def topological_order(net: BayesNet) -> list[str]:
    return topo_sort(
        {v: tuple(net.cpds[v].parents) if v in net.cpds else () for v in net.variables}
    )


def validate_net(net: BayesNet) -> list[str]:
    """Structural invariant check; returns one message per violation."""
    issues: list[str] = []
    for name in sorted(net.variables):
        if name not in net.cpds:
            issues.append(f"missing-cpd: {name}")
    for child in sorted(net.cpds):
        cpd = net.cpds[child]
        if child not in net.variables:
            issues.append(f"unknown-variable: cpd for {child}")
            continue
        var = net.variables[child]
        dangling = [p for p in cpd.parents if p not in net.variables]
        for p in dangling:
            issues.append(f"dangling-parent: {child} <- {p}")
        if not dangling:
            expected = set(product(*(net.variables[p].domain for p in cpd.parents)))
            got = set(cpd.rows)
            for ctx in sorted(expected - got):
                issues.append(f"missing-row: {child}{ctx}")
            for ctx in sorted(got - expected):
                issues.append(f"unknown-context: {child}{ctx}")
        for ctx in sorted(cpd.rows):
            row = cpd.rows[ctx]
            if set(row) != set(var.domain):
                issues.append(f"row-domain-mismatch: {child}{ctx}")
            elif not is_distribution(row):
                issues.append(f"row-not-normalized: {child}{ctx} sums to {sum(row.values())!r}")
    try:
        topological_order(net)
    except CycleError as e:
        issues.append(str(e))
    return issues


def _check_evidence(net: BayesNet, evidence: Assignment) -> None:
    for name, label in evidence.items():
        if name not in net.variables:
            raise ValueError(f"unknown evidence variable {name!r}")
        if label not in net.variables[name].domain:
            raise ValueError(f"label {label!r} not in domain of {name!r}")


def joint_probability(net: BayesNet, assignment: Assignment) -> float:
    """Chain-rule probability of a full assignment."""
    if set(assignment) != set(net.variables):
        missing = sorted(set(net.variables) - set(assignment))
        extra = sorted(set(assignment) - set(net.variables))
        raise PartialAssignment(f"missing={missing} extra={extra}")
    _check_evidence(net, assignment)
    prob = 1.0
    for name in net.variables:
        p = net.cpds[name].row_for(assignment)[assignment[name]]
        if p <= 0.0:
            return 0.0
        prob *= p
    return prob


@indexed
def weight_one(var: Variable) -> Cpd:
    """A parentless table of weight 1.0 on every label: ``sweep`` branches on
    them all and keeps the weight exact, since ``w * 1.0 == w``; built once
    per variable, since building it costs about a tenth of a small sweep."""
    return Cpd(var.name, (), {(): dict.fromkeys(var.domain, 1.0)})


def sweep(
    variables: Mapping[str, Variable],
    tables: Mapping[str, Cpd],
    order: Sequence[str],
    leaf: Callable[[dict[str, str], float], None],
    evidence: Assignment | None = None,
) -> None:
    """Walk ``order`` depth first over sorted labels (only the evidence label,
    if any), each weighted by its entry in ``tables[name].row_for(a)``; an
    entry that is not positive prunes the branch.  Calls ``leaf(a, weight)``
    once per surviving assignment; ``a`` is live, so a leaf keeps a copy.

    The walk is one loop over an explicit stack, so a diagram's depth is not
    bounded by the recursion limit.  Each step of ``order`` is read from a
    table built once per call, its labels reversed: expanding a step pushes
    ``(next step, name, label, weight * entry)`` for each positive entry, so
    the smallest label is popped first, and leaves come in depth-first order
    with the products a recursive walk forms, operand for operand.  A popped
    entry overwrites its variable in ``a``; the later variables it leaves
    there are read by no row, since ``order`` puts every parent first, and
    are overwritten before the next leaf.

    ``maid._walking`` takes a step the same way, at a leaf, where several
    Q-tables share one sweep; the two must keep the same label order, the
    same test for a positive entry and the same product, or those tables
    stop being bit-identical to their own sweeps'."""
    ev = evidence or {}
    steps = [(name, tables[name].rows, tables[name].parents,
              ((ev[name],) if name in ev else variables[name].domain)[::-1]) for name in order]
    last = len(steps)
    a: dict[str, str] = {}
    stack: list[tuple[int, str, str, float]] = []
    push, pop = stack.append, stack.pop
    i, weight = 0, 1.0
    while True:
        if i == last:
            leaf(a, weight)
        else:
            name, rows, parents, labels = steps[i]
            row = rows[tuple(map(a.__getitem__, parents))]
            i += 1
            for label in labels:
                p = row.get(label, 0.0)
                if p <= 0.0:
                    continue
                push((i, name, label, weight * p))
        if not stack:
            return
        i, name, label, weight = pop()
        a[name] = label


def enumerate_support(
    net: BayesNet, evidence: Assignment | None = None
) -> Iterator[tuple[dict[str, str], float]]:
    """Yield (assignment, probability) over full assignments with positive mass.

    Only assignments consistent with the evidence are produced; branches of
    probability zero are pruned as soon as they appear.
    """
    ev = dict(evidence or {})
    _check_evidence(net, ev)
    names = topological_order(net)
    a: dict[str, str] = {}

    def rec(i: int, prob: float) -> Iterator[tuple[dict[str, str], float]]:
        if i == len(names):
            yield dict(a), prob
            return
        name = names[i]
        row = net.cpds[name].row_for(a)
        labels = (ev[name],) if name in ev else net.variables[name].domain
        for label in labels:
            p = row.get(label, 0.0)
            if p <= 0.0:
                continue
            a[name] = label
            yield from rec(i + 1, prob * p)
            del a[name]

    yield from rec(0, 1.0)


def marginal(
    net: BayesNet,
    targets: Iterable[str],
    evidence: Assignment | None = None,
) -> dict[tuple[str, ...], float]:
    """Exact joint marginal of ``targets`` (sorted by name) given evidence.

    The result covers every combination of target outcomes, including those
    with probability zero.  Raises ZeroProbabilityEvidence when the evidence
    itself has no support.
    """
    names = tuple(sorted(targets))
    for t in names:
        if t not in net.variables:
            raise ValueError(f"unknown target variable {t!r}")
    _check_evidence(net, evidence or {})
    table = {
        combo: 0.0 for combo in product(*(net.variables[t].domain for t in names))
    }
    total = 0.0

    def leaf(a: dict[str, str], weight: float) -> None:
        nonlocal total
        table[tuple(a[t] for t in names)] += weight
        total += weight

    sweep(net.variables, net.cpds, topological_order(net), leaf, evidence)
    if total <= 0.0:
        raise ZeroProbabilityEvidence(
            f"evidence {sorted((evidence or {}).items())} has probability 0"
        )
    return {k: v / total for k, v in sorted(table.items())}


def ancestral_sample(net: BayesNet, order: Sequence[str], rng: random.Random) -> dict[str, str]:
    a: dict[str, str] = {}
    for name in order:
        row = net.cpds[name].row_for(a)
        r = rng.random()
        acc = 0.0
        chosen = None
        for label in net.variables[name].domain:
            p = row.get(label, 0.0)
            if p <= 0.0:
                continue
            acc += p
            chosen = label
            if r < acc:
                break
        a[name] = chosen
    return a


def sample(net: BayesNet, seed: int) -> dict[str, str]:
    """One ancestral sample, deterministic for a fixed seed."""
    return ancestral_sample(net, topological_order(net), random.Random(seed))
