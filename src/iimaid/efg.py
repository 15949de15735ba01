"""Extensive-form games and the influence-diagram-to-tree conversion.

Trees are immutable node arrays.  Conversion expands chance and decision
variables in a topological order, folds utility variables into leaf payoffs
by conditional expectation, and groups decision nodes into information sets
by the observed parent context.  It builds the tree on an explicit stack,
children before parents, so a diagram's depth is not bounded by the
interpreter's recursion limit; the path from the root to a node is worked
out when asked (``history``), not stored with it.

A tree is valued from one leaf table built once (``_leaves``), a flat sum
of path products as in the diagram's ``bn.sweep``.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterator, Mapping, NamedTuple, Sequence

from . import bn
from .bn import CHANCE, DECISION, Row, context_reader
from .errors import MissingRule, NonTopologicalOrder, UnknownAgent, ValidationError
from .maid import (
    Maid,
    Model,
    _payoff_tables,
    _sweep_order,
    base_maid,
    fixed_rules,
)

# Strategy: (agent, information-set key) -> distribution over action labels.
Strategy = Mapping[tuple[str, Hashable], Row]

# An observation is what the members of an information set have in common:
# the tree positions (depth indices) whose edge labels agree, with the label.
Observation = tuple[tuple[int, str], ...]


class EfgNode(NamedTuple):
    """One tree node.  ``edges`` holds (action label, child id), sorted by label.

    A named tuple, like ``incomplete.InformationSet``, so a tree of many
    nodes is cheap to build; it is also ``==`` to a plain tuple of its fields.
    """

    kind: str  # "chance" | "decision" | "leaf"
    var: str | None = None
    owner: str | None = None
    iset: Hashable = None
    edges: tuple[tuple[str, int], ...] = ()
    dist: Mapping[str, float] | None = None
    payoffs: Mapping[str, float] | None = None

    @property
    def actions(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.edges)


@dataclass(frozen=True)
class Efg:
    agents: tuple[str, ...]
    nodes: tuple[EfgNode, ...]
    root: int


def info_sets(g: Efg, agent: str) -> dict[Hashable, list[int]]:
    """The agent's information sets: key -> sorted member node ids."""
    return {key: list(members) for key, members in _info_sets(g, agent).items()}


@bn.indexed
def _info_sets(g: Efg, agent: str) -> Mapping[Hashable, tuple[int, ...]]:
    """``info_sets`` as a read-only mapping, built once per tree and agent."""
    if agent not in g.agents:
        raise UnknownAgent(agent)
    out: dict[Hashable, list[int]] = {}
    for nid, node in enumerate(g.nodes):
        if node.kind == DECISION and node.owner == agent:
            out.setdefault(node.iset, []).append(nid)
    return MappingProxyType({k: tuple(sorted(v)) for k, v in out.items()})


def maid2efg(
    model: Model, order: Sequence[str] | None = None
) -> tuple[Efg, Mapping[int, dict[str, str]]]:
    """Convert a MAID, possibly with committed decisions, to a game tree.

    Returns the tree and the node annotation map mu: node id -> the partial
    assignment of expanded variables on the path from the root (for leaves,
    the full chance-plus-decision assignment), in expansion order.  mu is a
    read-only mapping that works an entry out from ``history`` when it is
    asked for, as a new dict, so a caller that drops it pays nothing.

    A committed decision expands as a chance node whose distribution is its
    rule's row (``maid.fixed_rules``); only open decisions become decision
    nodes.  Chance branches of probability zero are pruned, so the tree
    reaches only supported contexts, and no row written at a context that
    no policy can reach is ever read; decision branches are never pruned.
    Decision nodes for the same variable whose observed parent values
    coincide share an information set keyed ``(variable, context)``.

    The tree is built depth first on an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit.  A node gets its id when
    its last child is done: children are numbered before their parents, in
    domain order, and the root is the last node.  The path's labels sit in
    one list by expansion position.  Each step's context and each utility's
    payoff key are read off that list by a reader made once per call over
    the parents' positions (``bn.context_reader`` over ``_expansion``'s
    positions); a leaf adds, per utility in name order, the
    ``maid._payoff_tables`` entry at its key.  No assignment is copied per
    node.
    """
    steps, payoffs = _expansion(model, None if order is None else tuple(order))
    steps = [(var, context_reader(at), branches, owner, domain)
             for var, at, branches, owner, domain in steps]
    payoffs = [(owner, context_reader(at), table) for owner, at, table in payoffs]
    agents = base_maid(model).agents
    n = len(steps)
    labels_at: list[str | None] = [None] * n
    nodes: list[EfgNode] = []
    node = tuple.__new__  # EfgNode's fields, in order, without its __new__
    # Each frame: a node's depth, its branch labels, the (label, child)
    # edges done so far, and its kind, variable, owner, key and distribution.
    stack: list[tuple[int, tuple[str, ...], list[tuple[str, int]], tuple]] = []
    depth = 0
    while True:
        if depth == n:
            out = dict.fromkeys(agents, 0.0)
            for owner, key, table in payoffs:
                out[owner] += table[key(labels_at)]
            nodes.append(node(EfgNode, ("leaf", None, None, None, (), None, out)))
        else:
            var, key, branches, owner, domain = steps[depth]
            ctx = key(labels_at)
            if branches is None:
                labels, fields = domain, (DECISION, var, owner, (var, ctx), None)
            else:
                labels, pairs = branches[ctx]
                fields = (CHANCE, var, None, None, dict(pairs))
            if labels:
                stack.append((depth, labels, [], fields))
                labels_at[depth] = labels[0]
                depth += 1
                continue
            kind, var, owner, iset, dist = fields
            nodes.append(node(EfgNode, (kind, var, owner, iset, (), dist, None)))
        child = len(nodes) - 1
        while stack:
            at_depth, labels, edges, fields = stack[-1]
            k = len(edges)
            edges.append((labels[k], child))
            k += 1
            if k < len(labels):
                labels_at[at_depth] = labels[k]
                depth = at_depth + 1
                break
            stack.pop()
            kind, var, owner, iset, dist = fields
            nodes.append(node(EfgNode, (kind, var, owner, iset, tuple(edges), dist, None)))
            child += 1
        else:
            g = Efg(agents, tuple(nodes), child)
            return g, _Contexts(g)


# A chance row as ``maid2efg`` expands it: the labels of positive
# probability, in domain order, and their (label, probability) pairs.
_Branches = tuple[tuple[str, ...], tuple[tuple[str, float], ...]]
# A utility's owner, its parents' positions in the expansion order, and its
# ``maid._payoff_tables`` entry.
_Payoff = tuple[str, tuple[int, ...], Mapping[tuple[str, ...], float]]


class _Step(NamedTuple):
    """One variable of the expansion order, as ``maid2efg`` expands it.

    ``at`` holds the positions of the parents that key its rows, in the
    rows' parent order.  ``branches`` is None for an open decision; for a
    chance variable or a committed decision it maps each parent context to
    its row's branches.
    """

    var: str
    at: tuple[int, ...]
    branches: Mapping[tuple[str, ...], _Branches] | None
    owner: str | None
    domain: tuple[str, ...]


@bn.indexed
def _expansion(
    model: Model, order: tuple[str, ...] | None
) -> tuple[tuple[_Step, ...], tuple[_Payoff, ...]]:
    """The steps of ``maid2efg``'s expansion order (``maid._sweep_order``
    when ``order`` is None), and each ``maid._payoff_tables`` entry with its
    parents as positions in that order; built once per model and order.
    An order that is not a topological permutation of the chance and
    decision variables raises ``NonTopologicalOrder``."""
    m = base_maid(model)
    tables = {**m.cpds, **fixed_rules(model)}
    if order is None:
        names = _sweep_order(m)
    else:
        names = order
        expandable = sorted(m.chance_variables() + m.decisions())
        if sorted(names) != expandable:
            raise NonTopologicalOrder(
                f"order must be a permutation of {expandable}"
            )
        seen: set[str] = set()
        for v in names:
            if missing := sorted(set(m.parents[v]) - seen):
                raise NonTopologicalOrder(f"{v} expanded before parents {missing}")
            seen.add(v)
    position = {v: i for i, v in enumerate(names)}
    steps = []
    for v in names:
        var = m.variables[v]
        if v in tables:
            cpd = tables[v]
            branches = {}
            for ctx, row in cpd.rows.items():
                pairs = tuple((label, p) for label in var.domain
                              if not (p := row.get(label, 0.0)) <= 0.0)
                branches[ctx] = (tuple(label for label, _ in pairs), pairs)
            steps.append(_Step(v, tuple(position[p] for p in cpd.parents),
                               MappingProxyType(branches), None, var.domain))
        else:
            steps.append(_Step(v, tuple(position[p] for p in m.parents[v]),
                               None, var.owner, var.domain))
    payoffs = tuple((owner, tuple(position[p] for p in parents), table)
                    for owner, parents, table in _payoff_tables(m))
    return tuple(steps), payoffs


class _Contexts(MappingABC):
    """``maid2efg``'s mu: node id -> ``{variable: label}`` along the path
    from the root, in expansion order, worked out from ``history`` when
    asked and returned as a new dict each time."""

    __slots__ = ("_g",)

    def __init__(self, g: Efg):
        self._g = g

    def __getitem__(self, nid: int) -> dict[str, str]:
        if nid not in self:
            raise KeyError(nid)
        nodes = self._g.nodes
        return {nodes[p].var: label for p, label in history(self._g, nid)}

    def __contains__(self, nid: object) -> bool:
        return isinstance(nid, int) and 0 <= nid < len(self._g.nodes)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._g.nodes)))

    def __len__(self) -> int:
        return len(self._g.nodes)


def efg_expected_utility(g: Efg, strategy: Strategy, agent: str) -> float:
    """Expected payoff of the agent under a behaviour strategy profile.

    Each leaf of ``_leaves`` adds its chance weight times the strategy
    entries on its path, in path order, times its payoff.  A path stops at
    its first entry that is not ``> 0.0`` (see ``bn``), and a missing row
    raises ``MissingRule`` when a path reaches it; chance weights are
    never filtered.
    """
    if agent not in g.agents:
        raise UnknownAgent(agent)
    total = 0.0
    for weight, choices, payoffs in _leaves(g):
        for key, label in choices:
            if key not in strategy:
                raise MissingRule(f"no strategy row for {key}")
            p = strategy[key].get(label, 0.0)
            if not p > 0.0:
                break
            weight *= p
        else:
            total += weight * payoffs.get(agent, 0.0)
    return total


@bn.indexed
def _leaves(g: Efg) -> tuple[tuple[float, tuple, Mapping[str, float]], ...]:
    """Each leaf, in depth-first edge order: the product of the chance
    probabilities on its path, multiplied from the root, the path's
    ``((owner, iset), label)`` decision choices and its payoffs.  The
    payoff table of the sequence form, built once per tree on an explicit
    stack, so a tree's depth is not bounded by the recursion limit.  An
    inner node without edges (``maid2efg`` makes none) adds no leaf."""
    out = []
    stack = [(g.root, 1.0, ())]
    while stack:
        nid, weight, choices = stack.pop()
        node = g.nodes[nid]
        if node.kind == "leaf":
            out.append((weight, choices, node.payoffs))
        elif node.kind == CHANCE:
            stack += [(child, weight * node.dist[label], choices)
                      for label, child in reversed(node.edges)]
        else:
            key = (node.owner, node.iset)
            stack += [(child, weight, choices + ((key, label),))
                      for label, child in reversed(node.edges)]
    return tuple(out)


@bn.indexed
def _parents(g: Efg) -> Mapping[int, tuple[int, str]]:
    """Each non-root node's (parent id, edge label), built once per tree."""
    return MappingProxyType({child: (nid, label) for nid, node in enumerate(g.nodes)
                             for label, child in node.edges})


def history(g: Efg, nid: int) -> list[tuple[int, str]]:
    """Edge labels on the path from the root, as (node id, label taken) pairs."""
    if not 0 <= nid < len(g.nodes):
        raise ValidationError([f"unknown-node: {nid}"])
    parents = _parents(g)
    path: list[tuple[int, str]] = []
    while nid in parents:
        nid, label = parents[nid]
        path.append((nid, label))
    path.reverse()
    return path


def observation_of(g: Efg, agent: str, iset: Hashable) -> Observation:
    """The positions and labels every member history of the info set agrees on."""
    members = _info_sets(g, agent).get(iset)
    if not members:
        raise MissingRule(f"agent {agent} has no information set {iset!r}")
    hists = [[label for _, label in history(g, nid)] for nid in members]
    depth = min(len(h) for h in hists)
    return tuple(
        (pos, hists[0][pos])
        for pos in range(depth)
        if all(h[pos] == hists[0][pos] for h in hists)
    )


def has_perfect_recall_efg(g: Efg, agent: str) -> bool:
    """True when all members of each info set share the agent's own history.

    The own history of a node is the sequence of (information set, action)
    pairs at the agent's decision nodes strictly above it.
    """
    for members in _info_sets(g, agent).values():
        hists = [
            [(g.nodes[p].iset, label) for p, label in history(g, nid)
             if g.nodes[p].kind == DECISION and g.nodes[p].owner == agent]
            for nid in members
        ]
        if any(h != hists[0] for h in hists[1:]):
            return False
    return True


def strategy_from_policy(
    m: Maid, g: Efg, rules: Mapping[str, bn.Cpd]
) -> dict[tuple[str, Hashable], Row]:
    """Map MAID decision rules onto the converted tree's information sets."""
    out: dict[tuple[str, Hashable], Row] = {}
    for node in g.nodes:
        if node.kind != DECISION:
            continue
        var, ctx = node.iset
        if var not in rules:
            raise MissingRule(f"no rule for decision {var}")
        rule = rules[var]
        if tuple(rule.parents) != m.parents[var]:
            raise MissingRule(f"rule parents mismatch for {var}")
        out[(node.owner, node.iset)] = dict(rule.rows[ctx])
    return out
