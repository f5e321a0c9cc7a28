"""Every import in the package binds a name that its module reads."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qkostant"


def unread_imports(tree):
    """(line, name) of each name an import binds that is never read in the
    scope holding the import: the function it sits in, or the module."""
    owner = {}
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            # ast.walk visits a scope before the scopes inside it, so each
            # node ends up owned by its innermost scope
            for node in ast.walk(scope):
                owner[node] = scope
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        read = {n.id for n in ast.walk(owner[node])
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name != "*" and name not in read:
                unread.append((node.lineno, name))
    return unread


def test_the_guard_sees_module_and_function_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from functools import reduce\n"
        "def f():\n"
        "    from operator import add, and_\n"
        "    return add, os.sep\n"
        "def g():\n"
        "    and_ = 1\n"
        "    return and_\n"
    )
    assert unread_imports(ast.parse(source)) == [(3, "reduce"), (5, "and_")]


def test_no_package_module_imports_a_name_it_never_reads():
    found = {
        path.name: unread
        for path in sorted(SRC.glob("*.py"))
        if (unread := unread_imports(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}
