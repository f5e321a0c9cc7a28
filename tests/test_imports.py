"""Every import in the package binds a name that its module reads, every
private name is read, and only by the module that defines it."""

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


def private_names(tree):
    """(line, name) of each private function, class or constant the module
    defines at its top level: a name starting with _ that is not a dunder."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node.lineno, n.id) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return [(line, name) for line, name in found
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def dead_private_names(trees):
    """{module: [(line, name), ...]} of the private module-level names that
    no module of trees reads: as a bare name, as an attribute of a module,
    or through a from-import."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return {module: dead for module, tree in trees.items()
            if (dead := [(line, name) for line, name in private_names(tree)
                         if name not in read])}


def test_the_dead_name_guard_sees_every_kind_of_private_name():
    trees = {
        "a": ast.parse(
            "_USED, _UNUSED = 1, 2\n"
            "_LEFT: int = 3\n"
            "__version__ = '0'\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Gone:\n"
            "    _inner = 1\n"
            "def _via_attr():\n"
            "    pass\n"
            "def _via_import():\n"
            "    pass\n"
        ),
        "b": ast.parse("from .a import _via_import\nfrom . import a\nx = a._via_attr\n"),
    }
    assert dead_private_names(trees) == {
        "a": [(1, "_UNUSED"), (2, "_LEFT"), (4, "_helper"), (6, "_Gone")],
    }


def test_no_package_module_defines_a_private_name_no_module_reads():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    assert "closedform.py" in trees
    assert dead_private_names(trees) == {}


def private_reads(tree):
    """(line, name) of each private name the module reads from another
    module of the package: imported by name (from .m import _x), or read as
    an attribute of a package module it imported (m._x)."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module is None:  # from . import m
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_private_read_guard_sees_imports_and_attributes():
    source = (
        "from . import m, n as k\n"
        "from .m import _x, y\n"
        "from ._record import Record\n"
        "from os import _exit\n"
        "def f(self, other):\n"
        "    return m._x, k._z, m.y, self._y, other._z, m.__doc__\n"
    )
    assert private_reads(ast.parse(source)) == [(2, "_x"), (6, "k._z"), (6, "m._x")]


def test_no_package_module_reads_another_modules_private_name():
    found = {
        path.name: reads
        for path in sorted(SRC.glob("*.py"))
        if (reads := private_reads(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}
