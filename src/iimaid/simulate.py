"""Monte-Carlo cross-checks of exact expected utilities."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import bn
from .errors import ValidationError
from .maid import Model, PolicyRules, base_maid, induced_network


@dataclass(frozen=True)
class SimulationReport:
    agents: tuple[str, ...]
    rollouts: int
    seed: int
    means: dict[str, float]
    stderrs: dict[str, float]


def simulate(
    model: Model, rules: PolicyRules, rollouts: int, seed: int
) -> SimulationReport:
    """Seeded ancestral rollouts; per-agent mean total utility and its error.

    Identical (model, rules, rollouts, seed) inputs give identical reports.
    """
    if rollouts < 1:
        raise ValidationError([f"invalid-rollouts: need at least 1, got {rollouts}"])
    m = base_maid(model)
    net = induced_network(model, rules)
    order = bn.topological_order(net)
    payoff_vars = {
        agent: [(u, m.variables[u].values) for u in m.utilities(agent)]
        for agent in m.agents
    }
    rng = random.Random(seed)
    total = {agent: 0.0 for agent in m.agents}
    total_sq = {agent: 0.0 for agent in m.agents}
    for _ in range(rollouts):
        draw = bn.ancestral_sample(net, order, rng)
        for agent in m.agents:
            x = sum(values[draw[u]] for u, values in payoff_vars[agent])
            total[agent] += x
            total_sq[agent] += x * x
    means = {agent: total[agent] / rollouts for agent in m.agents}
    stderrs = {
        agent: math.sqrt(
            max(0.0, total_sq[agent] / rollouts - means[agent] ** 2) / rollouts
        )
        for agent in m.agents
    }
    return SimulationReport(m.agents, rollouts, seed, means, stderrs)
