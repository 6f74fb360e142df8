"""The suite's own layout: reference implementations live in ``oracles.py``.

A test module imports ``oracles`` for them, never another test module, so
that every oracle is found in one place and names what it judges.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module.split(".")[0]


def test_no_test_module_imports_another():
    modules = sorted(TESTS.glob("test_*.py"))
    names = {path.stem for path in modules}
    found = {
        path.name: sorted(names & set(_imported(ast.parse(path.read_text()))))
        for path in modules
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_every_oracle_has_a_docstring():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert functions
    assert [f.name for f in functions if ast.get_docstring(f) is None] == []
