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
    # sample standard error of each mean; None for a single rollout
    stderrs: dict[str, float | None]


def simulate(
    model: Model, rules: PolicyRules, rollouts: int, seed: int
) -> SimulationReport:
    """Seeded ancestral rollouts; per-agent mean total utility and its error.

    The error is the standard error of the mean from the sample variance
    (n - 1 denominator), so it is undefined, and reported as None, when
    ``rollouts`` is 1.

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
    # Welford's running mean and sum of squared deviations, for the error
    # only: no cancellation when the mean is large against the spread.
    running = {agent: 0.0 for agent in m.agents}
    sq_dev = {agent: 0.0 for agent in m.agents}
    for k in range(1, rollouts + 1):
        draw = bn.ancestral_sample(net, order, rng)
        for agent in m.agents:
            x = sum(values[draw[u]] for u, values in payoff_vars[agent])
            total[agent] += x
            delta = x - running[agent]
            running[agent] += delta / k
            sq_dev[agent] += delta * (x - running[agent])
    means = {agent: total[agent] / rollouts for agent in m.agents}
    stderrs = {
        agent: math.sqrt(sq_dev[agent] / (rollouts - 1) / rollouts) if rollouts > 1 else None
        for agent in m.agents
    }
    return SimulationReport(m.agents, rollouts, seed, means, stderrs)
