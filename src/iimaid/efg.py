"""Extensive-form games and the influence-diagram-to-tree conversion.

Trees are immutable node arrays.  Conversion expands chance and decision
variables in a topological order, folds utility variables into leaf payoffs
by conditional expectation, and groups decision nodes into information sets
by the observed parent context.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

from . import bn
from .bn import CHANCE, DECISION, Row
from .errors import MissingRule, NonTopologicalOrder, UnknownAgent, ValidationError
from .maid import Maid, Model, _payoff_tables, _sweep_order, base_maid, fixed_rules

# Strategy: (agent, information-set key) -> distribution over action labels.
Strategy = Mapping[tuple[str, Hashable], Row]

# An observation is what the members of an information set have in common:
# the tree positions (depth indices) whose edge labels agree, with the label.
Observation = tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class EfgNode:
    """One tree node.  ``edges`` holds (action label, child id), sorted by label."""

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
) -> tuple[Efg, dict[int, dict[str, str]]]:
    """Convert a MAID, possibly with committed decisions, to a game tree.

    Returns the tree and the node annotation map mu: node id -> the partial
    assignment of expanded variables on the path from the root (for leaves,
    the full chance-plus-decision assignment).

    A committed decision expands as a chance node whose distribution is its
    rule's row (``maid.fixed_rules``); only open decisions become decision
    nodes.  Chance branches of probability zero are pruned, so the tree
    reaches only supported contexts, and no row written at a context that
    no policy can reach is ever read; decision branches are never pruned.
    Decision nodes for the same variable whose observed parent values
    coincide share an information set keyed ``(variable, context)``.
    """
    m = base_maid(model)
    tables = {**m.cpds, **fixed_rules(model)}
    expandable = sorted(m.chance_variables() + m.decisions())
    if order is None:
        names = _sweep_order(m)
    else:
        names = list(order)
        if sorted(names) != expandable:
            raise NonTopologicalOrder(
                f"order must be a permutation of {expandable}"
            )
        seen: set[str] = set()
        for v in names:
            if missing := sorted(set(m.parents[v]) - seen):
                raise NonTopologicalOrder(f"{v} expanded before parents {missing}")
            seen.add(v)

    payoff_tables = _payoff_tables(m)
    nodes: list[EfgNode] = []
    mu: dict[int, dict[str, str]] = {}

    def leaf_payoffs(a: dict[str, str]) -> dict[str, float]:
        out = dict.fromkeys(m.agents, 0.0)
        for owner, parents, table in payoff_tables:
            out[owner] += table[tuple(a[p] for p in parents)]
        return out

    def build(i: int, a: dict[str, str]) -> int:
        if i == len(names):
            nodes.append(EfgNode(kind="leaf", payoffs=leaf_payoffs(a)))
            nid = len(nodes) - 1
            mu[nid] = dict(a)
            return nid
        var = names[i]
        domain = m.variables[var].domain
        if var in tables:
            row = tables[var].row_for(a)
            edges = []
            dist = {}
            for label in domain:
                p = row.get(label, 0.0)
                if p <= 0.0:
                    continue
                a[var] = label
                edges.append((label, build(i + 1, a)))
                del a[var]
                dist[label] = p
            nodes.append(
                EfgNode(kind=CHANCE, var=var, edges=tuple(edges), dist=dist)
            )
        else:
            ctx = tuple(a[p] for p in m.parents[var])
            edges = []
            for label in domain:
                a[var] = label
                edges.append((label, build(i + 1, a)))
                del a[var]
            nodes.append(
                EfgNode(
                    kind=DECISION,
                    var=var,
                    owner=m.variables[var].owner,
                    iset=(var, ctx),
                    edges=tuple(edges),
                )
            )
        nid = len(nodes) - 1
        mu[nid] = dict(a)
        return nid

    root = build(0, {})
    return Efg(m.agents, tuple(nodes), root), mu


def efg_expected_utility(g: Efg, strategy: Strategy, agent: str) -> float:
    """Expected payoff of the agent under a behaviour strategy profile.

    The tree is walked depth first on an explicit stack, so its depth is
    not bounded by the interpreter's recursion limit.  A node's value is
    ``sum`` over its edges, in edge order, of the edge's weight times the
    child's value; decision edges the strategy gives weight zero are
    skipped, and a decision node without a strategy row raises
    ``MissingRule`` when the walk reaches it.
    """
    if agent not in g.agents:
        raise UnknownAgent(agent)
    table = _walk_table(g)
    # Each frame: a node's (weight, child) edges and the products so far.
    stack: list[tuple[Sequence[tuple[float, int]], list[float]]] = []
    kind, data, edges = table[g.root]
    while True:
        if kind == "leaf":
            value = data.get(agent, 0.0)
        else:
            if kind != CHANCE:
                if data not in strategy:
                    raise MissingRule(f"no strategy row for {data}")
                row = strategy[data]
                edges = [(w, child) for lbl, child in edges if (w := row.get(lbl, 0.0)) != 0.0]
            if edges:
                stack.append((edges, []))
                kind, data, edges = table[edges[0][1]]
                continue
            value = 0  # ``sum`` over no edges
        while stack:
            pending, products = stack[-1]
            k = len(products)
            products.append(pending[k][0] * value)
            if k + 1 < len(pending):
                kind, data, edges = table[pending[k + 1][1]]
                break
            stack.pop()
            value = sum(products)
        else:
            return value


@bn.indexed
def _walk_table(g: Efg) -> tuple[tuple[str, object, tuple], ...]:
    """Each node as ``efg_expected_utility`` reads it, by node id: a leaf's
    payoffs, a chance node's (probability, child) edges, or a decision
    node's strategy key and (label, child) edges; built once per tree."""
    out = []
    for node in g.nodes:
        if node.kind == "leaf":
            out.append(("leaf", node.payoffs, ()))
        elif node.kind == CHANCE:
            out.append((CHANCE, None, tuple((node.dist[lbl], c) for lbl, c in node.edges)))
        else:
            out.append((DECISION, (node.owner, node.iset), node.edges))
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
