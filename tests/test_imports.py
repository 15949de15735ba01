"""Every name a package module imports is used in that module."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import iimaid

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
