import random

import pytest

from iimaid import bn
from iimaid.bn import Cpd
from iimaid.errors import CycleError, ZeroProbabilityEvidence


def sprinkler():
    variables = [
        bn.chance("R", ("n", "y")),
        bn.chance("S", ("off", "on")),
        bn.chance("W", ("dry", "wet")),
    ]
    cpds = [
        Cpd("R", (), {(): {"n": 0.8, "y": 0.2}}),
        Cpd("S", ("R",), {("n",): {"off": 0.6, "on": 0.4},
                          ("y",): {"off": 0.99, "on": 0.01}}),
        Cpd("W", ("R", "S"), {
            ("n", "off"): {"dry": 1.0, "wet": 0.0},
            ("n", "on"): {"dry": 0.1, "wet": 0.9},
            ("y", "off"): {"dry": 0.2, "wet": 0.8},
            ("y", "on"): {"dry": 0.01, "wet": 0.99},
        }),
    ]
    return bn.make_net(variables, cpds)


P_WET = 0.8 * 0.4 * 0.9 + 0.2 * 0.99 * 0.8 + 0.2 * 0.01 * 0.99


def test_marginal_single_target():
    net = sprinkler()
    dist = bn.marginal(net, ["W"])
    assert dist[("wet",)] == pytest.approx(P_WET)
    assert dist[("dry",)] == pytest.approx(1.0 - P_WET)


def test_marginal_with_evidence():
    net = sprinkler()
    dist = bn.marginal(net, ["R"], {"W": "wet"})
    want = (0.2 * 0.99 * 0.8 + 0.2 * 0.01 * 0.99) / P_WET
    assert dist[("y",)] == pytest.approx(want)
    assert dist[("y",)] + dist[("n",)] == pytest.approx(1.0)


def test_marginal_empty_target_is_trivial():
    net = sprinkler()
    assert bn.marginal(net, []) == {(): 1.0}
    assert bn.marginal(net, [], {"R": "y"}) == {(): 1.0}


def test_marginal_joint_target():
    net = sprinkler()
    dist = bn.marginal(net, ["R", "S"])
    assert dist[("n", "on")] == pytest.approx(0.8 * 0.4)
    assert sum(dist.values()) == pytest.approx(1.0)


def test_zero_probability_evidence_raises():
    net = sprinkler()
    with pytest.raises(ZeroProbabilityEvidence):
        bn.marginal(net, ["S"], {"R": "n", "S": "off", "W": "wet"})


def test_joint_probability():
    net = sprinkler()
    p = bn.joint_probability(net, {"R": "y", "S": "off", "W": "wet"})
    assert p == pytest.approx(0.2 * 0.99 * 0.8)


def test_joint_probability_skips_an_entry_below_zero():
    # A valid row may hold an entry down to -TOL; like every sweep, the
    # chain rule counts it as no mass.
    net = sprinkler()
    w = net.cpds["W"]
    rows = {**w.rows, ("n", "off"): {"dry": 1 + 5e-10, "wet": -5e-10}}
    net = bn.make_net(net.variables.values(), [*net.cpds.values(), Cpd("W", w.parents, rows)])
    assert bn.validate_net(net) == []
    assert bn.joint_probability(net, {"R": "n", "S": "off", "W": "wet"}) == 0.0


def test_enumerate_support_sums_to_one():
    net = sprinkler()
    total = sum(p for _, p in bn.enumerate_support(net))
    assert total == pytest.approx(1.0)
    for a, p in bn.enumerate_support(net, {"R": "y"}):
        assert a["R"] == "y"
        assert p > 0


def test_topological_order_parents_first():
    net = sprinkler()
    order = bn.topological_order(net)
    assert order.index("R") < order.index("S") < order.index("W")


def test_topo_sort_cycle_raises():
    with pytest.raises(CycleError):
        bn.topo_sort({"a": ["b"], "b": ["a"]})


def test_validate_net_catches_bad_row_sum():
    net = sprinkler()
    broken = bn.make_net(
        net.variables.values(),
        [Cpd("R", (), {(): {"n": 0.7, "y": 0.2}}),
         net.cpds["S"], net.cpds["W"]],
    )
    issues = bn.validate_net(broken)
    assert any("R" in issue for issue in issues)


def test_validate_net_catches_missing_cpd():
    net = sprinkler()
    broken = bn.make_net(net.variables.values(), [net.cpds["R"], net.cpds["S"]])
    assert bn.validate_net(broken)


def test_validate_net_clean():
    assert bn.validate_net(sprinkler()) == []


def test_ancestral_sample_frequencies():
    net = sprinkler()
    order = bn.topological_order(net)
    rng = random.Random(0)
    n = 100_000
    wet = sum(bn.ancestral_sample(net, order, rng)["W"] == "wet" for _ in range(n))
    assert abs(wet / n - P_WET) < 0.01


def test_sample_is_seed_deterministic():
    net = sprinkler()
    assert bn.sample(net, 7) == bn.sample(net, 7)


def test_point_and_uniform_rows():
    assert bn.point_row(("a", "b"), "b") == {"a": 0.0, "b": 1.0}
    assert bn.uniform_row(("a", "b", "c")) == pytest.approx(
        {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})


def test_tabulate_builds_cpd():
    cpd = bn.tabulate("D", ("l", "r"), {"X": ("a", "b")},
                      lambda ctx: "l" if ctx["X"] == "a" else "r")
    assert cpd.rows[("a",)] == {"l": 1.0, "r": 0.0}
    assert cpd.rows[("b",)] == {"l": 0.0, "r": 1.0}


def test_row_for_uses_parent_order():
    net = sprinkler()
    row = net.cpds["W"].row_for({"S": "on", "R": "n", "W": "wet"})
    assert row == {"dry": 0.1, "wet": 0.9}
