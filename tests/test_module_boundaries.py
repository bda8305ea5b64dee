"""The error constants stand apart from the evaluator: ``bounds`` computes
them from the window transform alone and imports nothing from
``reconstruct``, which alone knows the kernel-block protocol.

Read with ``ast``, so a name in a comment or a string does not count.
"""

import ast
from pathlib import Path

BOUNDS = Path(__file__).resolve().parent.parent / "src" / "regusamp" / "bounds.py"


def imported_paths(tree):
    """The dotted path of every module and name an import anywhere in
    ``tree`` reads, as a list of parts (relative dots dropped)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            yield from (base + [alias.name] for alias in node.names)


def test_bounds_imports_nothing_from_reconstruct():
    paths = list(imported_paths(ast.parse(BOUNDS.read_text(encoding="utf-8"), filename=str(BOUNDS))))
    assert ["kernel", "kernel_band_tail"] in paths  # the reader sees bounds' own imports
    assert [p for p in paths if "reconstruct" in p] == []
