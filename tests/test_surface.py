"""Every public name of the package has a caller outside its own unit tests.

A public top-level function or class of a module in `src/fatpoints/` counts as
used when its name appears as a Name, an Attribute or an import alias; a public
method only counts by Attribute, since that is the only way to reach it. The
uses are looked for in the package itself (outside the name's own definition,
and not in the re-exports of `__init__.py`), in the acceptance gate
`tests/test_acceptance.py` and in the benchmark `perfbench/`. A name that only
its own unit tests reach is dead surface: delete it, or call it from where it
is needed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fatpoints"
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]


def _public_definitions(tree: ast.Module):
    """(name, is a method, first line, last line) of each public def."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        found = [(node, False)]
        if isinstance(node, ast.ClassDef):
            found += [(m, True) for m in node.body if isinstance(m, defs)]
        for d, method in found:
            if not d.name.startswith("_"):
                yield d.name, method, d.lineno, d.end_lineno


def _uses(tree: ast.AST):
    """(name, by attribute, line) of every Name, Attribute and import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], False, node.lineno


def unused_public_names() -> list[str]:
    modules = sorted(PACKAGE.glob("*.py"))
    uses = [
        (path, name, attr, line)
        for path in modules + CALLERS
        if path.name != "__init__.py"
        for name, attr, line in _uses(ast.parse(path.read_text(), str(path)))
    ]
    unused = []
    for home in modules:
        for name, method, first, last in _public_definitions(ast.parse(home.read_text())):
            if not any(
                used == name
                and (attr or not method)
                and (path != home or not first <= line <= last)
                for path, used, attr, line in uses
            ):
                unused.append(f"{home.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []
