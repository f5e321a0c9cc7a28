"""The package's export list names only what the package really provides."""

import subprocess
import sys

import qkostant


def test_all_names_resolve_without_duplicates():
    assert len(qkostant.__all__) == len(set(qkostant.__all__))
    for name in qkostant.__all__:
        assert hasattr(qkostant, name), name


def test_star_import_and_dir_cover_every_export():
    namespace = {}
    exec("from qkostant import *", namespace)
    assert set(qkostant.__all__) <= set(namespace)
    assert set(qkostant.__all__) <= set(dir(qkostant))


def test_package_import_loads_no_layer():
    # exports resolve on first use, so importing the package loads no module of it
    code = "import sys, qkostant; print([m for m in sys.modules if m.startswith('qkostant.')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
