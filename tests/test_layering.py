"""No package module imports another module's private (``_``-prefixed) names,
every name of the package's ``__all__`` resolves and its ``__init__``
re-exports no public name that ``__all__`` leaves out, and the package
leaves ``scipy.stats`` out of its import graph."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import empcouple

SRC = Path(__file__).resolve().parent.parent / "src" / "empcouple"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"from {'.' * node.level}{node.module or ''} import {alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def test_all_matches_reexports():
    # every name of __all__ resolves, and every public name __init__ imports
    # from a package module is in __all__
    assert [name for name in empcouple.__all__ if not hasattr(empcouple, name)] == []
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    public = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert sorted(public - set(empcouple.__all__)) == []


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs a fresh process most of its start-up time
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    code = "import sys, empcouple, empcouple.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
