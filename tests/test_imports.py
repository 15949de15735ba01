"""Source lints: every name a package module imports is used in that module,
no module imports numpy, only the enumeration kernel's oracle recurses,
only the listed writers build a `Cpd`, only the listed checkers check a
probability row, only the listed callers call the kernel ``bn.sweep``,
only ``bn.positive`` filters a belief row's support, every context key is
read through ``bn.context_reader``, one function builds the cap error, one
writes the least-action default, only the listed
readers read a utility's payoff labels, only the listed readers read a tree
node's chance distribution or payoffs, one function each writes a
document's and a report's ``format_version`` header and only
``gamedoc._closed`` closes a schema object (``_VARIABLE``'s branches
aside), the structural index `bn.indexed` is only ever a decorator,
`import iimaid` loads neither jsonschema, scipy nor numpy, reading
documents never loads jsonschema, and no consistency check loads numpy or
scipy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iimaid
from iimaid import fixtures, gamedoc
from iimaid.incomplete import IiMaid, SubjectiveMaid
from tests.test_consistency import spanning_class_iimaid

SRC = Path(iimaid.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_import_no_unused_names():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(), str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}


# The top-level functions whose nested helpers call themselves: only the
# oracle kept apart from the enumeration kernel.  The kernel (``bn.sweep``),
# through which any other exact inference goes, walks an explicit stack;
# trees are built (``efg.maid2efg``) and tabled leaf by leaf (``efg._leaves``,
# which ``efg.efg_expected_utility`` loops over), and belief stacks unrolled
# (``depth.unroll``), on explicit stacks too.
RECURSIVE = {("bn", "enumerate_support")}


def _recursive_nested(tree: ast.Module) -> set[str]:
    found = set()
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if node is top or not isinstance(node, ast.FunctionDef):
                continue
            called = {c.func.id for c in ast.walk(node)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
            if node.name in called:
                found.add(top.name)
    return found


def test_only_the_kernel_oracles_and_walks_recurse():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {(path.stem, name) for name in _recursive_nested(tree)}
    assert found == RECURSIVE


# The top-level functions that build a ``Cpd``: tabulation, the weight-one
# table of an open decision, pure-policy enumeration, the document reader and
# the one writer of rules read off information-set rows.  The bundled games
# in ``fixtures`` are parsed from their documents, so they build none.
CPD_WRITERS = {
    ("bn", "tabulate"), ("bn", "weight_one"), ("maid", "iter_pure_rules"),
    ("gamedoc", "_cpd_from_doc"), ("incomplete", "_rules_from_rows"),
}


def _cpd_builders(tree: ast.Module) -> set[str]:
    found = set()
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "Cpd" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add(name)
    return found


def test_only_the_listed_writers_build_rules():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {(path.stem, name) for name in _cpd_builders(tree)}
    assert found == CPD_WRITERS


def test_one_function_builds_the_cap_error():
    # The one cap rule: every exhaustive search counts its choices through
    # ``maid._count_pure``, so no other function states a cap or its message.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "SearchSpaceTooLarge" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == {("maid", "_count_pure")}


def _first_of_actions(node: ast.AST) -> bool:
    """Whether ``node`` is ``actions[0]`` or ``domain[0]``, bare or an attribute."""
    return (isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant) and node.slice.value == 0
            and bool({getattr(node.value, "id", None), getattr(node.value, "attr", None)}
                     & {"actions", "domain"}))


def test_one_function_writes_the_least_action_default():
    # The one least-action default: a context or information set without
    # values gets its point row from ``maid._best_row``, so no other function
    # picks ``actions[0]`` or ``domain[0]``.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            if any(map(_first_of_actions, ast.walk(top))):
                found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == {("maid", "_best_row")}


# The top-level functions that check a probability row, ``bn.is_distribution``:
# one per kind of input.  A network's CPDs, a document's rows, a belief
# space's rows, a game's belief rows, an information-set profile's rows
# (checked once by each public entry that receives a profile) and a
# decision rule.  No kernel checks a row it is handed.
ROW_CHECKERS = {
    ("bn", "validate_net"), ("gamedoc", "_row_from_doc"),
    ("iiefg", "validate_belief_space"), ("incomplete", "_structural_issues"),
    ("incomplete", "_row_issues"), ("maid", "_check_rule"),
}


def test_only_the_listed_checkers_check_a_row():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            if any(isinstance(node, ast.Call) and "is_distribution" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))
                   for node in ast.walk(top)):
                found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == ROW_CHECKERS


# The top-level functions that call the enumeration kernel, ``bn.sweep``: the
# marginal, the expected utilities, the Q-table and the weights of a
# decision's parent contexts, which give both its support and its
# conditional utilities' denominators.  Every other exact answer is a leaf
# over one of these.
SWEEP_CALLERS = {
    ("bn", "marginal"), ("maid", "_expected_utilities"), ("maid", "_decision_values"),
    ("maid", "_context_weights"),
}


def test_only_the_listed_callers_call_the_kernel():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            if any(isinstance(node, ast.Call) and "sweep" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))
                   for node in ast.walk(top)):
                found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == SWEEP_CALLERS


def _key_builds(tree: ast.Module) -> list[int]:
    """Lines that build a context key by hand, ``tuple(map(<x>.__getitem__, ...))``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tuple"
                  and node.args and isinstance(call := node.args[0], ast.Call)
                  and getattr(call.func, "id", None) == "map"
                  and call.args and getattr(call.args[0], "attr", None) == "__getitem__")


def test_every_context_key_is_read_through_the_one_reader():
    # Sweep steps, leaves, tree walks and restriction keys read each key
    # through ``bn.context_reader``.  The oracles build theirs by name
    # (``Cpd.row_for``, and ``_recursive_sweep`` in ``test_kernel.py``, which
    # this lint must see).
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _key_builds(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}
    oracle = Path(__file__).with_name("test_kernel.py")
    assert _key_builds(ast.parse(oracle.read_text(), str(oracle)))


def _definition(top: ast.stmt) -> str:
    """The name a top-level statement defines: a function's or class's, or
    the one name a module-level assignment binds; else ``<module>``."""
    if isinstance(top, ast.Assign) and len(top.targets) == 1:
        top = top.targets[0]
    elif isinstance(top, ast.AnnAssign):
        top = top.target
    return getattr(top, "name", None) or getattr(top, "id", None) or "<module>"


def _written_under(top: ast.stmt, key: str) -> list[ast.expr]:
    """The values ``top`` writes under ``key``, as a dict key or a keyword."""
    found = []
    for node in ast.walk(top):
        if isinstance(node, ast.Dict):
            found += [v for k, v in zip(node.keys, node.values)
                      if isinstance(k, ast.Constant) and k.value == key]
        elif isinstance(node, ast.keyword) and node.arg == key:
            found.append(node.value)
    return found


# One header and one closed-object rule.  Every document and every CLI report
# opens with ``format_version``: ``gamedoc._document`` writes it into each
# kind's schema, ``gamedoc.serialize_document`` onto each document and
# ``cli._report`` onto each report.  ``gamedoc._closed`` writes
# ``"additionalProperties": False`` for every closed object of ``SCHEMAS``
# but ``_VARIABLE``'s three ``oneOf`` branches, which carry no ``type``.
HEADER_WRITERS = {
    ("gamedoc", "_document"), ("gamedoc", "serialize_document"), ("cli", "_report"),
}
CLOSED_WRITERS = {("gamedoc", "_closed"): 1, ("gamedoc", "_VARIABLE"): 3}


def test_one_header_and_one_closed_object_rule():
    headers, closed = set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            where = (path.stem, _definition(top))
            if _written_under(top, "format_version"):
                headers.add(where)
            n = sum(isinstance(v, ast.Constant) and v.value is False
                    for v in _written_under(top, "additionalProperties"))
            if n:
                closed[where] = closed.get(where, 0) + n
    assert headers == HEADER_WRITERS
    assert closed == CLOSED_WRITERS


def _compares_with_zero(top: ast.AST) -> bool:
    return any(isinstance(node, ast.Compare) and any(
        isinstance(side, ast.Constant) and type(side.value) is float and side.value == 0.0
        for side in (node.left, *node.comparators)) for node in ast.walk(top))


def test_only_bn_positive_filters_a_belief_support():
    # One support rule: a belief entry counts when it is > 0.0, and
    # ``bn.positive`` applies it.  So no top-level function that reads a
    # ``beliefs`` attribute compares a value with 0.0.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            if _compares_with_zero(top) and any(
                    isinstance(node, ast.Attribute) and node.attr == "beliefs"
                    for node in ast.walk(top)):
                found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == set()


# The top-level definitions that read a utility's payoffs, ``Variable.values``:
# the class itself, which copies them, the one function that builds the
# payoff tables every sweep and game tree prices leaves from, the diagram
# check, the document writer, the sampler and the oracle kept apart from the
# kernel.  No kernel reads payoff labels leaf by leaf.
PAYOFF_READERS = {
    ("bn", "Variable"), ("maid", "_payoff_tables"), ("maid", "validate_maid"),
    ("gamedoc", "_variable_to_doc"), ("simulate", "simulate"),
    ("depth", "_walk_conditional_utility"),
}


def _payoff_readers(tree: ast.Module) -> set[str]:
    """Top-level definitions that read an attribute ``values`` without
    calling it: ``dict.values()`` is always called."""
    found = set()
    for top in tree.body:
        called = {id(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)}
        if any(isinstance(node, ast.Attribute) and node.attr == "values"
               and id(node) not in called for node in ast.walk(top)):
            found.add(getattr(top, "name", "<module>"))
    return found


def test_only_the_listed_readers_read_payoff_labels():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {(path.stem, name) for name in _payoff_readers(tree)}
    assert found == PAYOFF_READERS


# The top-level functions that read a tree node's chance distribution or
# payoffs, ``EfgNode.dist`` and ``EfgNode.payoffs``: the one leaf table every
# tree is priced from and the two writers, JSON and Graphviz.  No pricing
# walks the nodes.
TREE_READERS = {("efg", "_leaves"), ("cli", "_efg_json"), ("dot", "efg_dot")}


def test_only_the_listed_readers_read_tree_values():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            if any(isinstance(node, ast.Attribute) and node.attr in ("dist", "payoffs")
                   for node in ast.walk(top)):
                found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == TREE_READERS


def _indexed_not_as_decorator(tree: ast.Module) -> list[int]:
    decorators = {id(d) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for d in node.decorator_list}
    return sorted(node.lineno for node in ast.walk(tree)
                  if (getattr(node, "id", None) == "indexed"
                      or getattr(node, "attr", None) == "indexed")
                  and id(node) not in decorators)


def test_the_structural_index_is_only_a_decorator():
    # Each index is declared once, by decorating its builder: no accessor
    # calls ``bn.indexed(obj, build, ...)`` by hand.
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _indexed_not_as_decorator(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_import_loads_neither_jsonschema_nor_scipy():
    code = (
        "import sys, iimaid\n"
        "from iimaid import fixtures\n"
        "print(sorted({'jsonschema', 'scipy'} & set(sys.modules)))\n"
        "print(fixtures.load_bundled('evaluation_game.iimaid.json').kind)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["[]", "ii-maid"]


def test_reading_documents_on_the_cli_loads_no_jsonschema():
    data = SRC / "data"
    code = (
        "import contextlib, io, sys\n"
        "from iimaid import cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.run([*argv, '--output', 'json'])\n"
        "    print(code, 'jsonschema' in sys.modules)\n"
        f"run('validate', {str(data / 'evaluation_game.iimaid.json')!r})\n"
        f"run('check-nash', {str(data / 'honesty_eval.maid.json')!r},\n"
        f"    '--profile', {str(data / 'truthful_match.profile.json')!r})\n"
        f"run('check-nash', {str(data / 'honesty_eval.maid.json')!r},\n"
        f"    '--profile', {str(data / 'always_low_match.profile.json')!r})\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["0 False", "0 False", "1 False"]


def test_a_schema_keyword_outside_the_walked_subset_fails_to_compile():
    with pytest.raises(ValueError, match="format"):
        gamedoc.compile_schema({"type": "string", "format": "date"})
    with pytest.raises(ValueError, match="maxLength"):
        gamedoc.compile_schema({"type": "array", "items": {"maxLength": 3}})
    with pytest.raises(ValueError, match="integer"):
        gamedoc.compile_schema({"properties": {"n": {"type": "integer"}}})


def test_import_does_not_load_numpy():
    code = (
        "import sys, iimaid\n"
        "from iimaid import fixtures\n"
        "fixtures.evaluation_iimaid()\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["False"]


def test_no_module_imports_numpy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_consistency_check_loads_numpy_or_scipy(tmp_path):
    # A in ground_truth splits its belief between two models whose rows
    # for A differ, so the game is incoherent.  The spanning game's class
    # of P2 spans two components.
    x = fixtures.evaluation_iimaid()
    gt = x.models["ground_truth"]
    incoherent = IiMaid(x.agents, x.objective, {
        **x.models,
        "ground_truth": SubjectiveMaid("ground_truth", gt.model, {
            "A": {"ai_belief": 0.5, "ground_truth": 0.5}, "H": {"ground_truth": 1.0}}),
    })
    paths = []
    for name, game in (("incoherent", incoherent), ("spanning", spanning_class_iimaid())):
        path = tmp_path / f"{name}.iimaid.json"
        path.write_text(gamedoc.serialize_document(game))
        paths.append(str(path))
    bundled = SRC / "data" / "evaluation_game.iimaid.json"
    code = (
        "import contextlib, io, json, sys\n"
        "from iimaid import cli\n"
        "def check(path):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.run(['check-consistency', path, '--output', 'json'])\n"
        "    result = json.loads(out.getvalue())['result']\n"
        "    loaded = sorted({'numpy', 'scipy'} & set(sys.modules))\n"
        "    print(code, result['coherent'], result['eq_feasible'], loaded)\n"
        f"check({str(bundled)!r})\n"
        f"check({paths[0]!r})\n"
        f"check({paths[1]!r})\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.splitlines() == [
        "1 True True []",
        "1 False True []",
        "0 True True []",
    ]
