"""Independent answer checks: exact values by direct enumeration of the joint.

Nothing here calls the library's inference, expected-utility, best-response
or equilibrium code.  A game's joint distribution over its chance and
decision variables is built by multiplying table rows over every full
assignment at once (numpy), and values are sums over that joint.
"""

from __future__ import annotations

from itertools import product
from typing import Mapping

import numpy as np

from iimaid import bn
from iimaid.incomplete import InformationSet
from iimaid.maid import base_maid, fixed_rules


class Joint:
    """Every full assignment of a model's chance and decision variables."""

    def __init__(self, model):
        m = base_maid(model)
        self.m = m
        self.committed = dict(fixed_rules(model))
        self.names = sorted(n for n, v in m.variables.items() if v.kind != bn.UTILITY)
        sizes = [len(m.variables[n].domain) for n in self.names]
        grid = np.indices(sizes, dtype=np.int8).reshape(len(sizes), -1)
        self.idx = dict(zip(self.names, grid))
        self.size = grid.shape[1]

    def _lookup(self, table: np.ndarray, parents, child=None) -> np.ndarray:
        keys = [self.idx[p] for p in parents]
        if child is not None:
            keys.append(self.idx[child])
        return table[tuple(keys)] if keys else np.full(self.size, table[()])

    def factor(self, name: str, cpd) -> np.ndarray:
        """Row entries of ``cpd`` (a CPD or decision rule) at every assignment."""
        m = self.m
        pdoms = [m.variables[p].domain for p in cpd.parents]
        dom = m.variables[name].domain
        table = np.zeros([len(d) for d in pdoms] + [len(dom)])
        for ctx in product(*pdoms):
            pos = tuple(d.index(c) for d, c in zip(pdoms, ctx))
            row = cpd.rows[ctx]
            for j, label in enumerate(dom):
                table[pos + (j,)] = row.get(label, 0.0)
        return self._lookup(table, cpd.parents, name)

    def utility(self, agent: str) -> np.ndarray:
        """The agent's total expected utility given every full assignment."""
        m = self.m
        total = np.zeros(self.size)
        for u in sorted(n for n, v in m.variables.items() if v.kind == bn.UTILITY):
            if m.variables[u].owner != agent:
                continue
            cpd = m.cpds[u]
            values = m.variables[u].values
            pdoms = [m.variables[p].domain for p in cpd.parents]
            table = np.zeros([len(d) for d in pdoms])
            for ctx in product(*pdoms):
                pos = tuple(d.index(c) for d, c in zip(pdoms, ctx))
                table[pos] = sum(p * values[lbl] for lbl, p in cpd.rows[ctx].items())
            total += self._lookup(table, cpd.parents)
        return total

    def weight(self, rules: Mapping, skip: str | None = None) -> np.ndarray:
        """Probability of every assignment, leaving out ``skip``'s own factor."""
        m = self.m
        tables = {**m.cpds, **self.committed, **dict(rules)}
        p = np.ones(self.size)
        for name in self.names:
            if name != skip:
                p *= self.factor(name, tables[name])
        return p

    def context_index(self, decision: str) -> np.ndarray:
        """Flat index of the decision's parent context at every assignment."""
        m = self.m
        out = np.zeros(self.size, dtype=np.int64)
        for p in m.parents[decision]:
            out = out * len(m.variables[p].domain) + self.idx[p]
        return out

    def contexts(self, decision: str) -> list[tuple[str, ...]]:
        m = self.m
        return list(product(*(m.variables[p].domain for p in m.parents[decision])))

    def action_table(self, decision: str, rules: Mapping, agent: str) -> np.ndarray:
        """Q[context, action]: the agent's utility mass with the decision's own
        rule left out, split by its parent context and its action."""
        w = self.weight(rules, skip=decision) * self.utility(agent)
        n_act = len(self.m.variables[decision].domain)
        cell = self.context_index(decision) * n_act + self.idx[decision]
        n_ctx = len(self.contexts(decision))
        return np.bincount(cell, weights=w, minlength=n_ctx * n_act).reshape(n_ctx, n_act)

    def context_mass(self, decision: str) -> np.ndarray:
        """Probability of each parent context when every decision is uniform."""
        uniform = {
            d: bn.tabulate(d, self.m.variables[d].domain,
                           {p: self.m.variables[p].domain for p in self.m.parents[d]},
                           lambda ctx, d=d: bn.uniform_row(self.m.variables[d].domain))
            for d in self.m.decisions()
        }
        w = self.weight(uniform)
        return np.bincount(self.context_index(decision), weights=w,
                           minlength=len(self.contexts(decision)))


def expected_utilities(model, rules: Mapping) -> dict[str, float]:
    j = Joint(model)
    w = j.weight(rules)
    return {a: float(np.dot(w, j.utility(a))) for a in j.m.agents}


def maid_regrets(model, rules: Mapping) -> dict[str, float]:
    """Per-agent regret of a pure profile in a game where each agent owns one
    open decision.  The best response is an argmax per parent context, which
    is exact then because the agent's utility is a sum over its contexts."""
    j = Joint(model)
    eus = expected_utilities(model, rules)
    out = {}
    for agent in j.m.agents:
        (d,) = [x for x in j.m.decisions(agent) if x not in j.committed]
        q = j.action_table(d, rules, agent)
        out[agent] = float(q.max(axis=1).sum()) - eus[agent]
    return out


def pure_rules_in_order(model, decisions):
    """All pure rules over ``decisions`` in the library's lexicographic order:
    by (decision, parent context, action)."""
    m = base_maid(model)
    slots = [(d, ctx) for d in sorted(decisions)
             for ctx in product(*(m.variables[p].domain for p in m.parents[d]))]
    for combo in product(*(m.variables[d].domain for d, _ in slots)):
        rows: dict[str, dict] = {}
        for (d, ctx), label in zip(slots, combo):
            rows.setdefault(d, {})[ctx] = bn.point_row(m.variables[d].domain, label)
        yield {d: bn.Cpd(d, m.parents[d], r) for d, r in rows.items()}


def pure_nash_profiles(model, tol: float = 1e-9) -> list[dict]:
    return [
        rules for rules in pure_rules_in_order(model, base_maid(model).decisions())
        if all(r <= tol for r in maid_regrets(model, rules).values())
    ]


def chosen_actions(rules: Mapping) -> dict[str, dict]:
    """A pure profile as decision -> context -> the action it takes."""
    return {
        d: {ctx: max(row, key=lambda a: (row[a], a)) for ctx, row in sorted(cpd.rows.items())}
        for d, cpd in sorted(rules.items())
    }


# ------------------------------------------------------------ subjective games


def information_sets(x, agent: str) -> set[InformationSet]:
    """Every context of the agent's open decisions that some decision policy
    reaches, over every model of the game."""
    out = set()
    for sid in sorted(x.models):
        model = x.models[sid].model
        j = Joint(model)
        for d in j.m.decisions(agent):
            if d in j.committed:
                continue
            mass = j.context_mass(d)
            pa = j.m.parents[d]
            for k, ctx in enumerate(j.contexts(d)):
                if mass[k] > 0.0:
                    out.add(InformationSet(agent, tuple(zip(pa, ctx)), j.m.variables[d].domain))
    return out


def model_rules(model, profile: Mapping) -> dict:
    """Rules for one model read off an information-set profile; contexts the
    profile leaves out take the least action."""
    m = base_maid(model)
    committed = fixed_rules(model)
    rules = {}
    for d in m.decisions():
        if d in committed:
            continue
        v = m.variables[d]
        rows = {}
        for ctx in product(*(m.variables[p].domain for p in m.parents[d])):
            key = InformationSet(v.owner, tuple(zip(m.parents[d], ctx)), v.domain)
            rows[ctx] = dict(profile.get(key, bn.point_row(v.domain, v.domain[0])))
        rules[d] = bn.Cpd(d, m.parents[d], rows)
    return rules


def ii_regrets(x, profile: Mapping) -> dict[str, float]:
    """Each believing agent's regret at the objective model's beliefs.

    Subjective value is a belief-weighted sum over models and, within a model,
    a sum over the agent's decision contexts; so the best response takes an
    argmax per information set of the belief-weighted action values.
    """
    out = {}
    for agent in x.agents:
        weights = x.models[x.objective].beliefs.get(agent)
        if weights is None:
            continue
        achieved = 0.0
        per_iset: dict[InformationSet, np.ndarray] = {}
        for sid, w in sorted(weights.items()):
            if w <= 0.0:
                continue
            model = x.models[sid].model
            rules = model_rules(model, profile)
            achieved += w * expected_utilities(model, rules)[agent]
            j = Joint(model)
            (d,) = [e for e in j.m.decisions(agent) if e not in j.committed]
            q = j.action_table(d, rules, agent)
            pa = j.m.parents[d]
            for k, ctx in enumerate(j.contexts(d)):
                key = InformationSet(agent, tuple(zip(pa, ctx)), j.m.variables[d].domain)
                per_iset[key] = per_iset.get(key, 0.0) + w * q[k]
        best = sum(float(v.max()) for v in per_iset.values())
        out[agent] = best - achieved
    return out


def first_pure_ii_nash(x, tol: float):
    """The first pure profile, in the library's slot order, whose regrets are
    all within ``tol``; None when there is none."""
    slots = sorted(set().union(*(information_sets(x, a) for a in x.agents)))
    for combo in product(*(iset.actions for iset in slots)):
        profile = {iset: bn.point_row(iset.actions, a) for iset, a in zip(slots, combo)}
        if all(r <= tol for r in ii_regrets(x, profile).values()):
            return profile
    return None


def common_prior_residual(x, prior: Mapping[str, float]) -> float:
    """Largest violation of p(S') = sum_S P_i^S(S') p(S) over agents holding
    beliefs in every model, and of the prior summing to one."""
    ids = sorted(x.models)
    worst = abs(sum(prior.values()) - 1.0)
    for agent in x.agents:
        if not all(agent in x.models[s].beliefs for s in ids):
            continue
        for target in ids:
            implied = sum(x.models[s].beliefs[agent].get(target, 0.0) * prior[s] for s in ids)
            worst = max(worst, abs(implied - prior[target]))
    return worst


# ------------------------------------------------------------ depth-2 stacks


def argmax_rule(model, env: Mapping, agent: str, decision: str, tol: float = 1e-9) -> dict:
    """Criterion 8's oracle step: per context of ``decision``, the action of
    highest conditional utility given the context, with the other decisions'
    rules in ``env``; the least action wins unless another beats it by tol."""
    j = Joint(model)
    q = j.action_table(decision, env, agent)
    pa_mass = np.bincount(
        j.context_index(decision) * len(j.m.variables[decision].domain) + j.idx[decision],
        weights=j.weight(env, skip=decision),
        minlength=q.size,
    ).reshape(q.shape)
    dom = j.m.variables[decision].domain
    out = {}
    for k, ctx in enumerate(j.contexts(decision)):
        best, best_v = None, 0.0
        for a, label in enumerate(dom):
            v = q[k, a] / pa_mass[k, a]
            if best is None or v > best_v + tol:
                best, best_v = label, v
        out[ctx] = best
    return out


def _pure(model, decision: str, chosen: Mapping) -> bn.Cpd:
    m = base_maid(model)
    dom = m.variables[decision].domain
    return bn.Cpd(decision, m.parents[decision],
                  {ctx: bn.point_row(dom, a) for ctx, a in chosen.items()})


def depth2_objective_actions(stack) -> dict[str, dict]:
    """Criterion 8's brute-force solution of a depth-2 stack: each inner agent
    best-responds to the fixed rule, each outer agent to that response."""
    m = base_maid(stack.nodes["root"].model)
    xi1 = fixed_rules(stack.nodes["p2_inner"].model)["D1"]
    xi2 = fixed_rules(stack.nodes["p1_inner"].model)["D2"]
    inner_d2 = _pure(m, "D2", argmax_rule(m, {"D1": xi1}, "P2", "D2"))
    inner_d1 = _pure(m, "D1", argmax_rule(m, {"D2": xi2}, "P1", "D1"))
    return {
        "D1": argmax_rule(m, {"D2": inner_d2}, "P1", "D1"),
        "D2": argmax_rule(m, {"D1": inner_d1}, "P2", "D2"),
    }
