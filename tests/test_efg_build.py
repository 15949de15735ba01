"""``efg.maid2efg`` against a recursive oracle, and on a diagram deeper than
the interpreter's recursion limit.

The oracle is the recursive builder ``maid2efg`` replaced: one call per
variable, with the partial assignment copied into mu at every node.  The
stack build must give the same tree, node ids included, and the same mu.
"""

import json
import random
from itertools import product

import pytest

from iimaid import bn, cli, efg, fixtures, gamedoc, maid
from iimaid.bn import CHANCE, DECISION, Cpd
from iimaid.efg import Efg, EfgNode
from iimaid.maid import _payoff_tables, _sweep_order, base_maid, fixed_rules
from perfbench import generators
from tests.test_efg import _bundled_models, stochastic_payoff_maid


def recursive_maid2efg(model, order=None):
    """The recursive conversion: children numbered before their parent, in
    label order; mu copies the path's assignment at every node."""
    m = base_maid(model)
    tables = {**m.cpds, **fixed_rules(model)}
    names = list(_sweep_order(m) if order is None else order)
    payoff_tables = _payoff_tables(m)
    nodes, mu = [], {}

    def leaf_payoffs(a):
        out = dict.fromkeys(m.agents, 0.0)
        for owner, parents, table in payoff_tables:
            out[owner] += table[tuple(a[p] for p in parents)]
        return out

    def build(i, a):
        if i == len(names):
            nodes.append(EfgNode(kind="leaf", payoffs=leaf_payoffs(a)))
            nid = len(nodes) - 1
            mu[nid] = dict(a)
            return nid
        var = names[i]
        domain = m.variables[var].domain
        if var in tables:
            row = tables[var].row_for(a)
            edges, dist = [], {}
            for label in domain:
                p = row.get(label, 0.0)
                if p <= 0.0:
                    continue
                a[var] = label
                edges.append((label, build(i + 1, a)))
                del a[var]
                dist[label] = p
            nodes.append(EfgNode(kind=CHANCE, var=var, edges=tuple(edges), dist=dist))
        else:
            ctx = tuple(a[p] for p in m.parents[var])
            edges = []
            for label in domain:
                a[var] = label
                edges.append((label, build(i + 1, a)))
                del a[var]
            nodes.append(EfgNode(kind=DECISION, var=var, owner=m.variables[var].owner,
                                 iset=(var, ctx), edges=tuple(edges)))
        nid = len(nodes) - 1
        mu[nid] = dict(a)
        return nid

    root = build(0, {})
    return Efg(m.agents, tuple(nodes), root), mu


def assert_same_conversion(model, order=None):
    g, mu = efg.maid2efg(model, order)
    want_g, want_mu = recursive_maid2efg(model, order)
    assert repr(g) == repr(want_g)
    assert list(mu) == list(want_mu)
    for nid, a in want_mu.items():
        assert list(mu[nid].items()) == list(a.items())


def last_first_order(m):
    """A topological order of the chance and decision variables that takes
    the greatest ready name first, unlike ``maid._sweep_order``."""
    parents = {v: set(m.parents[v]) for v in m.variables if m.kind(v) != bn.UTILITY}
    order = []
    while parents:
        ready = max(v for v, ps in parents.items() if ps <= set(order))
        order.append(ready)
        del parents[ready]
    return order


def zero_chance_maid():
    """Chance rows with zero entries, one of them a point row, under two
    decisions, one of which observes both chance variables."""
    variables = [
        bn.chance("X", "abc"), bn.chance("Y", "ab"),
        bn.decision("D1", "P", "lr"), bn.decision("D2", "Q", "lr"),
        bn.utility("U", "P", {"lo": 0.0, "hi": 2.5}),
        bn.utility("V", "Q", {"lo": -1.0, "hi": 0.75}),
    ]
    edges = [("X", "Y"), ("X", "D1"), ("X", "D2"), ("Y", "D2"), ("D1", "D2"),
             ("D1", "U"), ("Y", "U"), ("D2", "V"), ("X", "V")]
    cpds = [
        Cpd("X", (), {(): {"a": 0.25, "b": 0.0, "c": 0.75}}),
        Cpd("Y", ("X",), {("a",): {"a": 0.0, "b": 1.0}, ("b",): {"a": 0.5, "b": 0.5},
                          ("c",): {"a": 0.4, "b": 0.6}}),
        Cpd("U", ("D1", "Y"), {ctx: bn.point_row(("lo", "hi"), "hi" if ctx[0] == "r" else "lo")
                               for ctx in product("lr", "ab")}),
        Cpd("V", ("D2", "X"), {ctx: {"lo": 0.3, "hi": 0.7} if ctx[1] == "c"
                               else bn.point_row(("lo", "hi"), "lo")
                               for ctx in product("lr", "abc")}),
    ]
    return maid.Maid.build(("P", "Q"), variables, edges, cpds)


def committed(m, rng):
    """``m`` with its first decision committed to a random rule whose rows
    mix a point row and rows with zero entries."""
    d = m.decisions()[0]
    pa, dom = m.parents[d], m.variables[d].domain
    rows = {}
    for ctx in product(*(m.variables[p].domain for p in pa)):
        p = rng.choice([0.0, 1.0, 0.3])
        rows[ctx] = {dom[0]: p, dom[1]: 1.0 - p}
    return maid.PostPolicyMaid(m, {d: Cpd(d, pa, rows)})


def random_models():
    out = []
    for seed in range(4):
        rng = random.Random(f"efg-build/{seed}")
        base = generators.random_base_game(rng, 3 + seed % 2, 1, 2, d2_sees_d1=seed % 2 == 0)
        out += [base, committed(base, rng)]
        x = generators.random_ii_game(rng, 3, 3, 1, 1, 1)
        out += [x.models[sid].model for sid in sorted(x.models)]
    return out


MODELS = ([stochastic_payoff_maid(), zero_chance_maid()] + _bundled_models()
          + random_models())


@pytest.mark.parametrize("model", MODELS)
def test_stack_build_matches_the_recursive_builder(model):
    assert_same_conversion(model)


@pytest.mark.parametrize("model", MODELS)
def test_stack_build_matches_under_another_order(model):
    order = last_first_order(base_maid(model))
    assert_same_conversion(model, order)


def test_the_cases_are_covered():
    # commitments are among the models, zero chance entries are pruned, and
    # the second order differs from the default on some model
    assert any(isinstance(m, maid.PostPolicyMaid) for m in MODELS)
    g, _ = efg.maid2efg(zero_chance_maid())
    assert any(n.kind == CHANCE and len(n.edges) == 1 for n in g.nodes)
    assert any(tuple(last_first_order(base_maid(m))) != _sweep_order(base_maid(m))
               for m in MODELS)


def test_mu_is_read_only_and_worked_out_when_asked(capability):
    g, mu = efg.maid2efg(capability)
    assert len(mu) == len(g.nodes) and list(mu) == list(range(len(g.nodes)))
    assert mu[g.root] == {} and g.root in mu
    for missing in (-1, len(g.nodes), "0", None):
        assert missing not in mu
        with pytest.raises(KeyError):
            mu[missing]
    mu[2]["C"] = "changed"  # each entry is a new dict
    assert mu[2] == {"C": "high", "D_A": "high"}
    with pytest.raises(TypeError):
        mu[2] = {}


def deterministic_chain(n):
    """``n`` binary chance variables in a line, each copying its predecessor,
    the first a point row on "b"; P's utility pays 1.0 at the last one's "b"."""
    names = [f"X{i:04d}" for i in range(n)]
    copy = {("a",): {"a": 1.0, "b": 0.0}, ("b",): {"a": 0.0, "b": 1.0}}
    variables = [bn.chance(x, "ab") for x in names]
    variables.append(bn.utility("U", "P", {"lo": 0.0, "hi": 1.0}))
    edges = list(zip(names, names[1:])) + [(names[-1], "U")]
    cpds = [Cpd(names[0], (), {(): {"a": 0.0, "b": 1.0}})]
    cpds += [Cpd(x, (p,), copy) for p, x in zip(names, names[1:])]
    cpds.append(Cpd("U", (names[-1],), {("a",): {"lo": 1.0, "hi": 0.0},
                                        ("b",): {"lo": 0.0, "hi": 1.0}}))
    return maid.Maid.build(("P",), variables, edges, cpds)


def test_a_chain_deeper_than_the_recursion_limit_converts(capsys, tmp_path):
    m = deterministic_chain(5000)
    g, mu = efg.maid2efg(m)
    assert len(g.nodes) == 5001
    assert g.nodes[0].kind == "leaf" and g.nodes[0].payoffs == {"P": 1.0}
    assert g.nodes[g.root].var == "X0000"
    assert mu[0] == {f"X{i:04d}": "b" for i in range(5000)}
    assert efg.efg_expected_utility(g, {}, "P") == 1.0

    path = tmp_path / "chain.maid.json"
    path.write_text(gamedoc.serialize_document(m))
    code = cli.run(["convert-efg", str(path), "--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["result"]["nodes"] == 5001 and report["result"]["leaves"] == 1


def test_bundled_documents_convert_as_before(capsys, tmp_path):
    # the CLI's tree is the oracle's tree, written by the same writer
    fixtures.write_data_files(tmp_path)
    for name, model in (("honesty_eval.maid.json", fixtures.honesty_evaluation()),
                        ("capability_eval.maid.json", fixtures.capability_evaluation())):
        code = cli.run(["convert-efg", str(tmp_path / name), "--output", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        want, _ = recursive_maid2efg(model)
        assert report["result"]["tree"] == cli._efg_json(want)
