"""Finite-depth belief stacks and the recursive best-response solver.

A stack is an acyclic family of subjective models: depth-0 nodes are
single-agent decision problems (everyone else pre-committed), and a node of
depth k believes at least one node of depth k-1 and nothing deeper.  Solving
works backwards: assign final decisions in the believed depth-0 problems,
collect them into best-response policies, push those policies one level up,
and repeat until the objective model is fully committed.

Depth-1 nodes are reduced in name order against the stack as it stands: a
believed model that an earlier node committed keeps those rules, and a later
node decides only what is still open there, so one agent's commitments in a
shared model reach every node that believes it.  A node's policy is read
back from all its believed models; where two of them hold different rows
for one of its information sets, no one policy describes what it plays, and
``depth1_best_response`` raises ``GameError`` naming the set, the node and
both models.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Collection, Mapping

from . import bn
from .bn import Row
from .errors import (
    CycleError,
    GameError,
    NotOpenMinded,
    UnknownAgent,
    ValidationError,
    ZeroProbabilityEvidence,
)
from .incomplete import (
    IiMaid,
    InformationSet,
    SubjectiveMaid,
    _decision_slots,
    _faced_sets,
    _rules_from_rows,
    _structural_issues,
    believers,
    is_encounterable,
    model_information_sets,
)
from .maid import (
    Cpd,
    Model,
    PostPolicyMaid,
    _best_row,
    _context_weights,
    _decision_values,
    _first_max,
    base_maid,
    decision_rule,
    fixed_rules,
    free_decisions,
    has_perfect_recall,
    induced_network,
    uniform_rule,
)

ValueFn = Callable[[Model, str, str, Mapping[str, str], str], float]


@dataclass(frozen=True)
class DepthStack:
    """An acyclic belief hierarchy over partially committed models."""

    agents: tuple[str, ...]
    objective: str
    nodes: Mapping[str, SubjectiveMaid]

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(sorted(self.agents)))
        object.__setattr__(self, "nodes", dict(self.nodes))
        issues = _structural_issues(self.agents, self.objective, self.nodes, "node")
        if issues:
            raise ValidationError(issues)


@dataclass(frozen=True)
class TraceStep:
    """One committed rule row: where it was decided and what it was worth."""

    round: int
    node: str
    agent: str
    info_set: InformationSet
    action: str
    value: float
    written_to: tuple[str, ...]


@dataclass(frozen=True)
class RbrResult:
    profile: dict[InformationSet, Row]
    trace: tuple[TraceStep, ...]
    final: DepthStack
    objective_rules: dict[str, Cpd]
    depth: int


def _positive_targets(s: SubjectiveMaid, agent: str) -> list[str]:
    return [t for t, _ in bn.positive(s.beliefs.get(agent, {}))]


def _free_agents(model: Model) -> list[str]:
    return sorted({a for a in base_maid(model).agents if free_decisions(model, a)})


def classify_depth(stack: DepthStack) -> tuple[dict[str, int], int]:
    """Depth per node and the stack's overall depth.

    A node without beliefs is depth 0 and must be a single-agent problem;
    otherwise depth is one more than the deepest positively believed node.
    Nodes are visited in topological order of the positive-belief edges, so
    a stack of any depth is classified without recursion.
    """
    targets = {nid: [t for a in believers(s) for t in _positive_targets(s, a)]
               for nid, s in stack.nodes.items()}
    try:
        order = bn.topo_sort(targets)
    except CycleError as exc:
        raise CycleError(f"cyclic-beliefs: {exc}") from None
    depths: dict[str, int] = {}
    for nid in order:
        if targets[nid]:
            depths[nid] = 1 + max(depths[t] for t in targets[nid])
            continue
        free = _free_agents(stack.nodes[nid].model)
        if len(free) > 1:
            raise ValidationError(
                [f"depth-contract-violation: beliefless node {nid} "
                 f"leaves several agents uncommitted: {free}"]
            )
        depths[nid] = 0
    for nid in sorted(stack.nodes):
        s = stack.nodes[nid]
        for agent in believers(s):
            for target in sorted(s.beliefs[agent]):
                if depths[target] >= depths[nid]:
                    raise ValidationError(
                        [f"depth-contract-violation: {nid} (depth {depths[nid]}) "
                         f"references {target} (depth {depths[target]})"]
                    )
    return depths, depths[stack.objective]


def validate_stack(stack: DepthStack) -> list[str]:
    """Structural checks beyond construction: depth contract, belief scoping.

    Passing them and ``is_open_minded`` does not promise a solve: depth-1
    nodes committing one shared believed model differently still raise
    ``conflicting-commitments`` (see the module docstring)."""
    issues: list[str] = []
    try:
        classify_depth(stack)
    except (CycleError, ValidationError) as exc:
        issues.extend(str(exc).split("; "))
    for nid in sorted(stack.nodes):
        s = stack.nodes[nid]
        for agent in believers(s):
            if not free_decisions(s.model, agent):
                issues.append(f"committed-agent-with-beliefs: {agent} in {nid}")
            for target in _positive_targets(s, agent):
                subject = [
                    a
                    for a in _free_agents(stack.nodes[target].model)
                    if a not in believers(stack.nodes[target])
                ]
                if not set(subject) <= {agent}:
                    issues.append(
                        f"believed-node-for-wrong-agent: {nid}.{agent} -> {target} "
                        f"(uncommitted without beliefs there: {subject})"
                    )
        for agent in sorted(base_maid(s.model).agents):
            ok, _ = has_perfect_recall(s.model, agent)
            if not ok:
                issues.append(f"imperfect-recall: {agent} in {nid}")
    return issues


def is_open_minded(
    stack: DepthStack,
) -> tuple[bool, list[tuple[str, str, InformationSet]]]:
    """Every information set an agent could face must be believed possible.

    For each node and each agent holding beliefs there, every information set
    the node's model faces must be faced in some positively believed node,
    by the one rule of ``model_information_sets``: at a supported context.
    This does not promise a solve either (see ``validate_stack``).
    """
    gaps = []
    for nid in sorted(stack.nodes):
        s = stack.nodes[nid]
        for agent in believers(s):
            targets = [stack.nodes[t] for t in _positive_targets(s, agent)]
            for iset in sorted(model_information_sets(s.model, agent)):
                if not any(is_encounterable(iset, t) for t in targets):
                    gaps.append((nid, agent, iset))
    return not gaps, gaps


def _check_depth1(stack: DepthStack, nid: str, agent: str) -> None:
    if nid not in stack.nodes:
        raise ValidationError([f"unknown-node: {nid}"])
    s = stack.nodes[nid]
    if agent not in believers(s):
        raise UnknownAgent(f"{agent} holds no beliefs in {nid}")
    depths, _ = classify_depth(stack)
    deep = [t for t in _positive_targets(s, agent) if depths[t] != 0]
    if deep:
        raise ValidationError([f"not-depth-1: {nid}.{agent} believes {deep}"])


def final_information_sets(
    stack: DepthStack, nid: str, agent: str
) -> set[InformationSet]:
    """Information sets after which the agent takes no further open decision.

    Scans the agent's positively believed nodes: a set is final when no such
    node faces it at a decision that feeds a later open decision of the
    same agent.
    """
    _check_depth1(stack, nid, agent)
    faced: set[InformationSet] = set()
    feeding: set[InformationSet] = set()
    for t in _positive_targets(stack.nodes[nid], agent):
        model = stack.nodes[t].model
        m, later = base_maid(model), free_decisions(model, agent)
        for iset in model_information_sets(model, agent):
            faced.add(iset)
            if any(d in m.parents[d2]
                   for d in _faced_sets(model)[iset] for d2 in later if d2 != d):
                feeding.add(iset)
    return faced - feeding


def _net_rows(model: Model, decision: str, action: str) -> bn.BayesNet:
    """The oracle's measure: the model's network under its commitments,
    uniform where open, with ``decision`` pinned to ``action``.  ``decision``
    may be committed, so the network is built over the base diagram, which
    takes a rule for every decision."""
    m = base_maid(model)
    rules = {**fixed_rules(model), **{d: uniform_rule(m, d) for d in free_decisions(model)}}
    rules[decision] = decision_rule(m, decision, lambda ctx: action)
    return induced_network(m, rules)


@bn.indexed
def _conditional_values(measure: Model, agent: str, d: str) -> Mapping[tuple, float]:
    """The agent's expected utility given each supported (context, action) of
    ``d``, under the measure's commitments with its open decisions uniform:
    the ``maid._decision_values`` Q-table over each context's share of the
    ``maid._context_weights`` total."""
    uniform = {e: uniform_rule(measure, e) for e in free_decisions(measure)}
    (q,) = _decision_values(measure, uniform, ((d, agent),))
    weights, total = _context_weights(measure, uniform, d)
    return MappingProxyType({(ctx, a): v / (weights[ctx] / total) for ctx, row in q.items()
                             for a, v in row.items()})


def conditional_utility(
    model: Model, agent: str, decision: str, context: Mapping[str, str], action: str
) -> float:
    """Expected total utility for the agent given an observation and an action.

    The observation ``context`` is the decision's parent assignment.  The
    measure uses the model's committed rules with open decisions uniform; if
    they give the observation zero probability, it has every decision uniform.
    Each measure keeps one ``_conditional_values`` table per agent and decision.
    """
    m = base_maid(model)
    if agent not in m.agents:
        raise UnknownAgent(agent)
    if decision not in m.variables or m.kind(decision) != bn.DECISION:
        raise ValidationError([f"unknown-decision: {decision}"])
    pa = m.parents[decision]
    key = tuple(context.get(p) for p in pa)
    if len(context) != len(pa) or any(
            k not in m.variables[p].domain for p, k in zip(pa, key)):
        raise ValidationError([f"not-a-parent-assignment: {dict(context)} for {decision}"])
    if action not in m.variables[decision].domain:
        raise ValidationError([f"unknown-action: {action} for {decision}"])
    for measure in (model, m):
        value = _conditional_values(measure, agent, decision).get((key, action))
        if value is not None:
            return value
    raise ZeroProbabilityEvidence(
        f"observation {dict(context)} unreachable in every measure of {decision}"
    )


def _walk_conditional_utility(
    model: Model, agent: str, decision: str, context: Mapping[str, str], action: str
) -> float:
    """Independent recomputation of ``conditional_utility``: the pinned
    network's support under the observation, from ``bn.enumerate_support``."""
    m = base_maid(model)
    payoffs = [(u, m.variables[u].values) for u in m.utilities(agent)]
    for net in (_net_rows(measure, decision, action) for measure in (model, m)):
        mass = gain = 0.0
        for a, p in bn.enumerate_support(net, context):
            mass += p
            gain += p * sum(values[a[u]] for u, values in payoffs)
        if mass > 0.0:
            return gain / mass
    raise ZeroProbabilityEvidence(f"unreachable observation for {decision}")


def believed_action_value(
    stack: DepthStack,
    nid: str,
    agent: str,
    iset: InformationSet,
    action: str,
    value_fn: ValueFn = conditional_utility,
) -> float:
    """Belief-weighted conditional utility of an action at an information set.

    Each positively believed node that faces the set (``is_encounterable``)
    adds its weight times ``value_fn`` at its first decision facing it.  A
    node that cannot reach the observation adds nothing, and the weights are
    not renormalised.
    """
    if nid not in stack.nodes:
        raise ValidationError([f"unknown-node: {nid}"])
    s = stack.nodes[nid]
    row = s.beliefs.get(agent)
    if row is None:
        raise UnknownAgent(f"{agent} holds no beliefs in {nid}")
    # ``agent``, not ``iset.agent``, names whose decisions are matched
    asked = InformationSet(agent, iset.observation, iset.actions)
    total = 0.0
    hit = False
    for target in _positive_targets(s, agent):
        c = stack.nodes[target]
        for d in _faced_sets(c.model).get(asked, ()):
            hit = True
            total += row[target] * value_fn(
                c.model, agent, d, dict(iset.observation), action
            )
            break
    if not hit:
        raise NotOpenMinded(f"{iset} arises in no believed model at {nid}")
    return total


def _supported_sets(model: Model, d: str) -> dict[tuple[str, ...], InformationSet]:
    """The information set of each of the decision's supported contexts."""
    return {
        ctx: iset
        for ctx, (iset, supported) in _decision_slots(model)[d].cells.items()
        if supported
    }


def _committed(node: SubjectiveMaid, decisions: Collection[str],
               rows: Mapping[InformationSet, Row], beliefs: Mapping) -> SubjectiveMaid:
    """The node with ``decisions`` committed to rules read off ``rows`` by
    ``incomplete._rules_from_rows``, holding ``beliefs``.  The rows are
    checked once, by the ``PostPolicyMaid`` that commits them."""
    rules = _rules_from_rows(
        node.model, decisions, rows,
        lambda iset: NotOpenMinded(f"{iset} never resolved for {node.id}"),
    )
    model = PostPolicyMaid(base_maid(node.model), {**fixed_rules(node.model), **rules})
    return SubjectiveMaid(node.id, model, beliefs)


def final_decision_assignment(
    stack: DepthStack,
    nid: str,
    agent: str,
    round_no: int = 0,
    value_fn: ValueFn = conditional_utility,
) -> tuple[DepthStack, list[TraceStep]]:
    """Commit the agent's final decisions in the believed models.

    Every decision all of whose reachable contexts are final gets a complete
    rule: the belief-weighted argmax row per final context and the least
    action elsewhere.  Each final set takes ``maid._first_max`` over its
    actions, the package's one selection rule (see the ``maid`` module
    docstring).  Rules are written into every believed model where the
    context arises.
    """
    finals = final_information_sets(stack, nid, agent)
    s = stack.nodes[nid]
    children = _positive_targets(s, agent)

    ready: list[tuple[str, str, dict[tuple[str, ...], InformationSet]]] = []
    for cid in children:
        c = stack.nodes[cid]
        for d in free_decisions(c.model, agent):
            isets = _supported_sets(c.model, d)
            if set(isets.values()) <= finals:
                ready.append((cid, d, isets))

    if not ready:
        if any(free_decisions(stack.nodes[cid].model, agent) for cid in children):
            raise GameError(
                f"no assignable decision for {agent} at {nid}: "
                "believed models leave no fully final decision"
            )
        return stack, []

    to_assign = sorted({i for _, _, isets in ready for i in isets.values()})
    steps = []
    picks: dict[InformationSet, Row] = {}
    for iset in to_assign:
        best_action, best_value = _first_max(
            iset.actions,
            lambda a: believed_action_value(stack, nid, agent, iset, a, value_fn),
        )
        picks[iset] = bn.point_row(iset.actions, best_action)
        written = tuple(
            cid for cid, _, isets in ready if iset in set(isets.values())
        )
        steps.append(
            TraceStep(round_no, nid, agent, iset, best_action, best_value, written)
        )

    new_nodes = dict(stack.nodes)
    per_child: dict[str, list[str]] = {}
    for cid, d, _ in ready:
        per_child.setdefault(cid, []).append(d)
    for cid, decisions in per_child.items():
        c = new_nodes[cid]
        new_nodes[cid] = _committed(c, decisions, picks, c.beliefs)
    return DepthStack(stack.agents, stack.objective, new_nodes), steps


def depth1_best_response(
    stack: DepthStack,
    nid: str,
    agent: str,
    round_no: int = 0,
    value_fn: ValueFn = conditional_utility,
) -> tuple[DepthStack, dict[InformationSet, Row], list[TraceStep]]:
    """The agent's optimal policy at a node whose believed models are committed.

    Applies the final-decision pass until the agent has nothing open in any
    believed model, then reads the full policy back out of those models'
    commitments (including rules committed before this call).  Believed
    models that hold different rows for one information set raise
    ``GameError`` (see the module docstring).
    """
    _check_depth1(stack, nid, agent)
    steps: list[TraceStep] = []
    while True:
        children = _positive_targets(stack.nodes[nid], agent)
        if not any(
            free_decisions(stack.nodes[cid].model, agent) for cid in children
        ):
            break
        stack, got = final_decision_assignment(stack, nid, agent, round_no, value_fn)
        steps.extend(got)

    policy: dict[InformationSet, Row] = {}
    held: dict[InformationSet, str] = {}
    for cid in children:
        c = stack.nodes[cid]
        for d, rule in sorted(fixed_rules(c.model).items()):
            if base_maid(c.model).variables[d].owner != agent:
                continue
            for ctx, iset in _supported_sets(c.model, d).items():
                row = dict(rule.rows[ctx])
                if policy.setdefault(iset, row) != row:
                    raise GameError(
                        f"conflicting-commitments: {iset} at {nid}: believed "
                        f"nodes {held[iset]} and {cid} hold different rows"
                    )
                held.setdefault(iset, cid)
    return stack, policy, steps


def reduce_stack(
    stack: DepthStack, round_no: int = 1, value_fn: ValueFn = conditional_utility
) -> tuple[DepthStack, list[TraceStep]]:
    """Turn every depth-1 node into a committed depth-0 node.

    Each believing agent at a depth-1 node gets their best-response policy
    written into that node's commitments, after which the beliefs are dropped.
    The stack's overall depth decreases by exactly one.
    """
    depths, k = classify_depth(stack)
    if k < 1:
        raise ValidationError(["stack already fully committed"])
    steps: list[TraceStep] = []
    for nid in sorted(n for n, d in depths.items() if d == 1):
        for agent in believers(stack.nodes[nid]):
            stack, policy, got = depth1_best_response(
                stack, nid, agent, round_no, value_fn
            )
            steps.extend(got)
            node = stack.nodes[nid]
            beliefs = {a: r for a, r in node.beliefs.items() if a != agent}
            new_nodes = dict(stack.nodes)
            new_nodes[nid] = _committed(
                node, free_decisions(node.model, agent), policy, beliefs
            )
            stack = DepthStack(stack.agents, stack.objective, new_nodes)
    _, k2 = classify_depth(stack)
    if k2 != k - 1:
        raise GameError(f"reduction changed depth {k} -> {k2}, expected {k - 1}")
    return stack, steps


def recursive_best_response(
    stack: DepthStack, value_fn: ValueFn = conditional_utility
) -> RbrResult:
    """Commit the whole stack and return the resulting policy profile.

    The profile collects every committed rule keyed by information set, with
    objective-level commitments taking precedence and least-action defaults at
    sets nothing ever resolved.  The objective model's own rules are returned
    alongside as decision tables.
    """
    issues = validate_stack(stack)
    if issues:
        raise ValidationError(issues)
    ok, gaps = is_open_minded(stack)
    if not ok:
        raise NotOpenMinded(f"{len(gaps)} unbelieved information sets, "
                            f"first: {gaps[0]}")
    obj = stack.nodes[stack.objective]
    uncovered = [a for a in _free_agents(obj.model) if a not in believers(obj)]
    if uncovered:
        raise ValidationError(
            [f"objective-agent-without-beliefs: {a}" for a in uncovered]
        )

    wanted: set[InformationSet] = set()
    for nid in sorted(stack.nodes):
        for agent in stack.agents:
            wanted |= model_information_sets(stack.nodes[nid].model, agent)

    _, k = classify_depth(stack)
    trace: list[TraceStep] = []
    for r in range(1, k + 1):
        stack, steps = reduce_stack(stack, r, value_fn)
        trace.extend(steps)

    profile: dict[InformationSet, Row] = {}
    for step in trace:
        profile[step.info_set] = bn.point_row(step.info_set.actions, step.action)
    for iset in sorted(wanted - set(profile)):
        profile[iset] = _best_row(iset.actions)

    objective_rules = dict(fixed_rules(stack.nodes[stack.objective].model))
    return RbrResult(profile, tuple(trace), stack, objective_rules, k)


def audit_trace(
    stack: DepthStack, result: RbrResult, tol: float = 1e-9
) -> list[str]:
    """Re-derive every committed action with an independent value computation.

    Replays the reduction on the original stack using a separately implemented
    conditional-utility routine and reports any step where the chosen action
    or its value disagrees.
    """
    redo = recursive_best_response(stack, value_fn=_walk_conditional_utility)
    problems = []
    if len(redo.trace) != len(result.trace):
        problems.append(
            f"trace length {len(result.trace)} vs recomputed {len(redo.trace)}"
        )
        return problems
    for got, want in zip(result.trace, redo.trace):
        where = (got.round, got.node, got.agent, got.info_set)
        if where != (want.round, want.node, want.agent, want.info_set):
            problems.append(f"step order diverges at {where}")
            return problems
        if got.action != want.action:
            problems.append(
                f"{where}: committed {got.action}, independent argmax {want.action}"
            )
        if abs(got.value - want.value) > tol:
            problems.append(
                f"{where}: value {got.value} vs recomputed {want.value}"
            )
    return problems


def unroll(x: IiMaid, k: int) -> DepthStack:
    """Truncate a (possibly cyclic) belief structure to a finite-depth stack.

    Produces a tree with path-based node ids.  At the depth horizon, beliefs
    are dropped and every other agent's open decisions are pinned to uniform
    rules, so the conversion is lossy by construction.
    """
    if k < 0:
        raise ValidationError([f"negative-depth: {k}"])
    nodes: dict[str, SubjectiveMaid] = {}
    # Nodes are written after their subtrees; an entry with beliefs is due.
    stack: list[tuple[str, int, str, str | None, dict | None]] = [
        (x.objective, k, "objective", None, None)]
    while stack:
        model_id, left, path, subject, beliefs = stack.pop()
        src = x.models[model_id]
        if beliefs is not None:
            nodes[path] = SubjectiveMaid(path, src.model, beliefs)
            continue
        if left == 0:
            rules = {}
            for agent in base_maid(src.model).agents:
                if agent == subject:
                    continue
                for d in free_decisions(src.model, agent):
                    rules[d] = uniform_rule(src.model, d)
            model: Model = (
                PostPolicyMaid(base_maid(src.model),
                               {**fixed_rules(src.model), **rules})
                if rules
                else src.model
            )
            nodes[path] = SubjectiveMaid(path, model, {})
            continue
        beliefs, children = {}, []
        for agent in believers(src):
            if agent == subject or not free_decisions(src.model, agent):
                continue
            row = beliefs[agent] = {}
            for target, p in bn.positive(src.beliefs[agent]):
                child = f"{path}/{agent}:{target}"
                row[child] = p
                children.append((target, left - 1, child, agent, None))
        stack.append((model_id, left, path, subject, beliefs))
        stack.extend(reversed(children))
    return DepthStack(x.agents, "objective", nodes)
