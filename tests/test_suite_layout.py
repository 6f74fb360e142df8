"""The suite's own layout, and the README's record of the package's constants.

Reference implementations live in ``oracles.py``.  A test module imports
``oracles`` for them, never another test module, so that every oracle is
found in one place and names what it judges.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import loccgate

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(loccgate.__file__).resolve().parent
README = TESTS.parent / "README.md"
SCRIPTS = TESTS.parent / "scripts"
PERFBENCH = TESTS.parent / "perfbench"


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


def _public_constants():
    """(module, name) of each public int or float that a package module assigns at module level.

    Names come from the modules' assignments, so a name a module imports
    (``cli``'s ``DEFAULT_DIM_CAP``) is counted only where it is assigned.
    """
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("loccgate" if path.stem == "__init__" else f"loccgate.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    value = getattr(module, target.id)
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        found.add((path.stem, target.id))
    return found


def test_readme_constant_table_lists_exactly_the_public_constants():
    section = README.read_text().split("## Tolerances and size constants\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, flags=re.M))
    assert rows
    assert sorted(_public_constants() - rows) == []  # constants without a row
    assert sorted(rows - _public_constants()) == []  # rows naming no constant


def _words(text):
    return Counter(re.findall(r"\w+", text))


def test_every_public_definition_is_named_outside_its_own_def():
    """Each public module-level function and class of the package has a user besides itself.

    A name counts when it appears as a word in the package, ``scripts/``,
    ``perfbench/``, ``tests/`` or the README, outside its own definition
    (decorators, signature and body).
    """
    sources = [*PACKAGE.glob("*.py"), *SCRIPTS.glob("*.py"), *PERFBENCH.glob("*.py"), *TESTS.glob("*.py"), README]
    everywhere = sum((_words(path.read_text()) for path in sources), Counter())
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                own = _words("\n".join(lines[first - 1 : node.end_lineno]))
                if everywhere[node.name] == own[node.name]:
                    unnamed.append(f"{path.stem}.{node.name}")
    assert unnamed == []


def test_package_keeps_no_instrument_closure():
    """A step's table is its only form of instrument choice: no closure field or type beside it."""
    words = sum((_words(path.read_text()) for path in PACKAGE.rglob("*.py")), Counter())
    assert {name: words[name] for name in ("instrument_fn", "InstrumentFn") if words[name]} == {}
