"""Every public name of the package has a caller outside its own unit tests.

A public top-level function or class of a module in `src/fatpoints/` counts as
used when its name appears as a Name, an Attribute or an import alias; a public
method only counts by Attribute, since that is the only way to reach it. The
uses are looked for in the package itself (not in the re-exports of
`__init__.py`), in the acceptance gate `tests/test_acceptance.py` and in the
benchmark `perfbench/`. A use inside a def of the same name does not count:
it is the name calling itself, or one of several same-named methods (say
`from_dict` on nested classes) calling another, which keeps none of them
alive. A name that only its own unit tests reach is dead surface: delete it,
or call it from where it is needed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fatpoints"
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree: ast.Module):
    """(name, is a method) of each public top-level def and class method."""
    for node in tree.body:
        if not isinstance(node, DEFS):
            continue
        found = [(node, False)]
        if isinstance(node, ast.ClassDef):
            found += [(m, True) for m in node.body if isinstance(m, DEFS)]
        for d, method in found:
            if not d.name.startswith("_"):
                yield d.name, method


def _uses(tree: ast.AST):
    """(name, by attribute) of every Name, Attribute and import alias that
    lies outside all defs of the same name."""
    spans: dict[str, list[tuple[int, int]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, DEFS):
            spans.setdefault(node.name, []).append((node.lineno, node.end_lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name, attr = node.id, False
        elif isinstance(node, ast.Attribute):
            name, attr = node.attr, True
        elif isinstance(node, ast.alias):
            name, attr = node.name.split(".")[-1], False
        else:
            continue
        if not any(first <= node.lineno <= last for first, last in spans.get(name, ())):
            yield name, attr


def unused_public_names() -> list[str]:
    modules = sorted(PACKAGE.glob("*.py"))
    uses = {
        use
        for path in modules + CALLERS
        if path.name != "__init__.py"
        for use in _uses(ast.parse(path.read_text(), str(path)))
    }
    return [
        f"{home.stem}.{name}"
        for home in modules
        for name, method in _public_definitions(ast.parse(home.read_text()))
        if (name, True) not in uses and (method or (name, False) not in uses)
    ]


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []
