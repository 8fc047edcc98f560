"""Every name finalg's modules import, and every local its functions
assign, is read somewhere: a static check on the syntax trees (ast), so
it needs no linter.  The package's __init__ re-exports what it imports,
and a name that starts with an underscore is exempt."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finalg"
MODULES = sorted(PACKAGE.glob("*.py"))


def _reads(node):
    """The names read anywhere under node, nested scopes included."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _bound(target):
    """The names an assignment to target binds."""
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def _own_nodes(fn):
    """The nodes of fn's body outside the functions and classes nested
    in it, which have scopes of their own."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _assigned(fn):
    """The names fn's own body assigns: by =, an annotated =, :=, with
    ... as or except ... as, but not those it declares global or
    nonlocal."""
    names, declared = set(), set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_bound(target))
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
            if getattr(node, "value", None) is not None:
                names.update(_bound(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            names.update(_bound(node.optional_vars))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return names - declared


def unused_names(path):
    """(line, message) of each import and each local that nothing in the
    module at path reads, in line order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = []
    if path.name != "__init__.py":
        read = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and not name.startswith("_"):
                        found.append((node.lineno, f"import {name!r} unused"))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = _reads(fn)
            for name in sorted(_assigned(fn) - read):
                if not name.startswith("_"):
                    found.append((fn.lineno, f"local {name!r} of "
                                             f"{fn.name} never read"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_and_local_is_read(path):
    assert [f"{path.name}:{line}: {message}"
            for line, message in unused_names(path)] == []


def test_the_check_finds_an_unused_import_and_local(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import os\nimport sys as system\nfrom math import pi, tau\n"
        "import _private\n\n\n"
        "def f(x):\n"
        "    global g\n"
        "    g = 1\n"
        "    k = len(x)\n"
        "    a, b = x\n"
        "    with open(x) as handle:\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except OSError as e:\n"
        "        pass\n"
        "    _skip = 2\n"
        "    used = tau\n"
        "    return [a for _ in used], system\n")
    assert [message for _, message in unused_names(path)] == [
        "import 'os' unused", "import 'pi' unused",
        "local 'b' of f never read", "local 'e' of f never read",
        "local 'handle' of f never read", "local 'k' of f never read"]
