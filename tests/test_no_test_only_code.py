"""Every top-level function and class of the package has a caller outside
the tests: the package itself, the benchmark or a demo.

Read with ``ast``, so comments and strings never count as a reference; an
export through ``from .module import name`` in ``__init__.py`` does.  A
name used only inside its own definition counts as unused.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "regusamp").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def references(tree) -> set[str]:
    """Names that the top-level statements of ``tree`` load, as a plain
    name, an attribute or an imported name, each outside its own definition."""
    found = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if isinstance(stmt, DEFINITIONS):
            names.discard(stmt.name)
        found |= names
    return found


def test_readers_found():
    assert len(PACKAGE) > 1 and any(p.parent.name == "bench" for p in READERS)


def test_every_package_definition_has_a_caller_outside_the_tests():
    used = set().union(*(references(parse(path)) for path in READERS))
    unused = [
        f"{path.stem}.{stmt.name}"
        for path in PACKAGE
        for stmt in parse(path).body
        if isinstance(stmt, DEFINITIONS) and stmt.name not in used
    ]
    assert unused == []
