from iimaid import dot, efg, maid
from iimaid.depth import DepthStack
from iimaid.fixtures import truthful_match_rules
from iimaid.incomplete import SubjectiveMaid


def test_maid_dot_marks_observations_dashed(honesty):
    s = dot.maid_dot(honesty)
    assert s.startswith("digraph G {")
    assert s.rstrip().endswith("}")
    assert s.count("style=dashed") == 3
    assert '"C" -> "D_A" [style=dashed];' in s
    assert '"D_H" -> "U_A";' in s


def test_maid_dot_shapes(honesty):
    s = dot.maid_dot(honesty)
    assert '"C" [shape=ellipse' in s
    assert '"D_A" [shape=box' in s
    assert '"U_H" [shape=diamond' in s


def test_maid_dot_fills_committed_decisions(capability):
    fixed = maid.PostPolicyMaid(capability, {"D_A": truthful_match_rules()["D_A"]})
    s = dot.maid_dot(fixed)
    d_a = next(l for l in s.splitlines() if l.strip().startswith('"D_A" [shape'))
    assert "style=filled" in d_a
    d_h = next(l for l in s.splitlines() if l.strip().startswith('"D_H" [shape'))
    assert "style=filled" not in d_h


def test_efg_dot_links_info_set_members(honesty, capability):
    g, _ = efg.maid2efg(capability)
    s = dot.efg_dot(g)
    assert s.count("style=dashed") == 2
    assert s.count("dir=none") == 2
    assert s.count("constraint=false") == 2
    gh, _ = efg.maid2efg(honesty)
    assert dot.efg_dot(gh).count("style=dashed") == 0


def test_belief_tree_clusters(example1):
    assert dot.belief_tree_dot(example1, 0).count("subgraph cluster") == 1
    assert dot.belief_tree_dot(example1, 1).count("subgraph cluster") == 3
    deep = dot.belief_tree_dot(example1, 2)
    assert deep.count("subgraph cluster") == 7
    assert "compound" in deep
    assert deep.count("ltail") == 6 and deep.count("lhead") == 6
    assert 'label="A:1"' in deep and 'label="H:1"' in deep


def _renamed(stack, old, new):
    """The stack with node ``old`` renamed to ``new``, beliefs included."""
    rename = lambda nid: new if nid == old else nid
    nodes = {}
    for nid, s in stack.nodes.items():
        beliefs = {a: {rename(t): p for t, p in row.items()} for a, row in s.beliefs.items()}
        nodes[rename(nid)] = SubjectiveMaid(rename(nid), s.model, beliefs)
    return DepthStack(stack.agents, rename(stack.objective), nodes)


def test_stack_dot_quotes_node_ids(depth3):
    s = dot.stack_dot(_renamed(depth3, "h_solo", 'h"solo'))
    assert '  "h\\"solo" [shape=box];' in s
    assert any(line.endswith('-> "h\\"solo" [label="H:1"];') for line in s.splitlines())
    assert 'h"solo"' not in s


def test_stack_dot_on_the_bundled_stack(depth3):
    assert dot.stack_dot(depth3) == (
        'digraph G {\n'
        '  "a_view" [shape=box];\n'
        '  "h_solo" [shape=box];\n'
        '  "h_view" [shape=box];\n'
        '  "objective" [shape=box];\n'
        '  "a_view" -> "h_solo" [label="H:1"];\n'
        '  "h_view" -> "a_view" [label="A:1"];\n'
        '  "objective" -> "a_view" [label="A:1"];\n'
        '  "objective" -> "h_view" [label="H:1"];\n'
        '}\n'
    )
