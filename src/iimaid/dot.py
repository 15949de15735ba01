"""Graphviz DOT renderings of diagrams, game trees, and belief structures."""

from __future__ import annotations

from .bn import CHANCE, DECISION, UTILITY, positive
from .depth import DepthStack
from .efg import Efg, info_sets
from .errors import ValidationError
from .incomplete import IiMaid, believers
from .maid import Model, base_maid, fixed_rules

_SHAPES = {CHANCE: "ellipse", DECISION: "box", UTILITY: "diamond"}


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _maid_body(model: Model, prefix: str = "", indent: str = "  ") -> list[str]:
    m = base_maid(model)
    committed = set(fixed_rules(model))
    lines = []
    for name in sorted(m.variables):
        v = m.variables[name]
        label = name if v.owner is None else f"{name}\\n[{v.owner}]"
        attrs = [f"shape={_SHAPES[v.kind]}", f"label={_quote(label)}"]
        if name in committed:
            attrs.append("style=filled")
            attrs.append('fillcolor="lightgray"')
        lines.append(f"{indent}{_quote(prefix + name)} [{', '.join(attrs)}];")
    for child in sorted(m.variables):
        for parent in m.parents[child]:
            style = " [style=dashed]" if m.kind(child) == DECISION else ""
            lines.append(
                f"{indent}{_quote(prefix + parent)} -> {_quote(prefix + child)}{style};"
            )
    return lines


def maid_dot(model: Model) -> str:
    """A diagram graph: dashed information links, one shape per variable kind."""
    lines = ["digraph G {"]
    lines.extend(_maid_body(model))
    lines.append("}")
    return "\n".join(lines) + "\n"


def efg_dot(g: Efg) -> str:
    """A game tree with dashed connectors joining information-set members."""
    lines = ["digraph G {",
             "  node [shape=point];"]
    for nid, node in enumerate(g.nodes):
        ident = _quote(f"n{nid}")
        if node.kind == "leaf":
            payoff = ", ".join(
                f"{agent}: {node.payoffs.get(agent, 0.0):g}" for agent in g.agents
            )
            lines.append(f"  {ident} [shape=box, label={_quote(payoff)}];")
        elif node.kind == "chance":
            lines.append(
                f"  {ident} [shape=ellipse, label={_quote(node.var or '')}];"
            )
        else:
            lines.append(
                f"  {ident} [shape=box, "
                f"label={_quote(f'{node.var} [{node.owner}]')}];"
            )
        for label, child in node.edges:
            tag = label
            if node.kind == "chance" and node.dist is not None:
                tag = f"{label} ({node.dist.get(label, 0.0):g})"
            lines.append(
                f"  {ident} -> {_quote(f'n{child}')} [label={_quote(tag)}];"
            )
    for agent in g.agents:
        for key, members in sorted(info_sets(g, agent).items(), key=repr):
            for a, b in zip(members, members[1:]):
                lines.append(
                    f"  {_quote(f'n{a}')} -> {_quote(f'n{b}')} "
                    "[style=dashed, dir=none, constraint=false];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def belief_tree_dot(x: IiMaid, depth: int) -> str:
    """Bounded unrolling of the belief structure into a tree of diagrams.

    One cluster per visited model occurrence, starting at the objective model;
    each positive belief becomes an edge labeled ``agent:probability``.
    Depth 0 renders the objective model alone.
    """
    if depth < 0:
        raise ValidationError([f"negative-depth: {depth}"])
    lines = ["digraph G {", "  compound=true;"]

    def anchor(mid: str, idx: int) -> str:
        m = base_maid(x.models[mid].model)
        return f"c{idx}_{sorted(m.variables)[0]}"

    # Clusters are numbered in pre-order; the edge into a cluster follows
    # its whole subtree.  A pending edge sits on the stack as its line,
    # a pending visit as (model, depth left, edge in: (parent, index,
    # agent, probability) or None).
    stack: list = [(x.objective, depth, None)]
    idx = 0
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        mid, left, via = item
        s = x.models[mid]
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f"    label={_quote(mid)};")
        lines.extend(_maid_body(s.model, prefix=f"c{idx}_", indent="    "))
        lines.append("  }")
        if via is not None:
            parent, parent_idx, agent, p = via
            stack.append(
                f"  {_quote(anchor(parent, parent_idx))} -> "
                f"{_quote(anchor(mid, idx))} "
                f"[ltail=cluster_{parent_idx}, lhead=cluster_{idx}, "
                f"label={_quote(f'{agent}:{p:g}')}];"
            )
        if left > 0:
            children = [
                (target, left - 1, (mid, idx, agent, p))
                for agent in believers(s)
                for target, p in positive(s.beliefs[agent])
            ]
            stack.extend(reversed(children))
        idx += 1
    lines.append("}")
    return "\n".join(lines) + "\n"


def stack_dot(stack: DepthStack) -> str:
    """A depth stack's belief graph: one box per node, one edge per belief
    entry labeled ``agent:probability``."""
    lines = ["digraph G {"]
    for nid in sorted(stack.nodes):
        lines.append(f"  {_quote(nid)} [shape=box];")
    for nid in sorted(stack.nodes):
        node = stack.nodes[nid]
        for agent in believers(node):
            for target, p in sorted(node.beliefs[agent].items()):
                lines.append(
                    f"  {_quote(nid)} -> {_quote(target)} "
                    f"[label={_quote(f'{agent}:{p:g}')}];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
