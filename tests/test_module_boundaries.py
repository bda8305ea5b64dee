"""Boundaries between and within modules, read with ``ast``, so a name in a
comment or a string does not count.

- The error constants stand apart from the evaluator: ``bounds`` computes
  them from the window transform alone and imports nothing from
  ``reconstruct``, which alone knows the kernel-block protocol.
- The CLI chooses an exit code in one place: in ``cli.py`` only ``main``
  catches the errors of its exit-code table.
"""

import ast
import builtins
from pathlib import Path

from regusamp import cli
from regusamp.harness import BoundViolation
from regusamp.reconstruct import IndexOutOfRange

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "regusamp"
BOUNDS = PACKAGE / "bounds.py"
CLI = PACKAGE / "cli.py"


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


# The error types of the table in cli.main, each mapped to its exit code.
EXIT_CODE_ERRORS = (IndexOutOfRange, BoundViolation, OSError, ValueError, MemoryError)


def caught_types(handler):
    """The classes an ``except`` clause of cli.py names, resolved in the
    module's namespace; None where the clause is an expression that only
    running it could resolve.  A bare ``except`` catches BaseException."""
    if handler.type is None:
        return [BaseException]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    found = []
    for node in nodes:
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        obj = vars(cli).get(node.id, getattr(builtins, node.id, None))
        for attr in path:
            obj = getattr(obj, attr, None)
        if not isinstance(obj, type):
            return None
        found.append(obj)
    return found


def handlers_by_function(tree):
    """(name of the innermost enclosing function, handler) for every
    ``except`` clause in ``tree``; the name is None at module level."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                yield function, child
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            yield from visit(child, inner)

    yield from visit(tree, None)


def test_only_cli_main_catches_the_exit_code_errors():
    # A clause catches a tabled error if it names the error's class, a
    # subclass (FileNotFoundError) or a base (Exception); one that names a
    # computed expression counts as catching all of them.  The one renaming
    # of such an error, np.linspace's MemoryError into a ValueError naming
    # the count, is harness.equidistant's, outside cli.py.
    tree = ast.parse(CLI.read_text(encoding="utf-8"), filename=str(CLI))
    holders = []
    for function, handler in handlers_by_function(tree):
        types = caught_types(handler)
        if types is None or any(issubclass(a, b) or issubclass(b, a) for a in types for b in EXIT_CODE_ERRORS):
            holders.append(function)
    assert holders == ["main"]
