"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import dunkl_lab


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(dunkl_lab.__path__):
        module = importlib.import_module(f"dunkl_lab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"dunkl_lab.{info.name}.{name}"


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(dunkl_lab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dunkl_lab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(dunkl_lab, alias.name) is getattr(module, alias.name)


def test_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports count; numpy is
    # the package's only run-time dependency
    code = ("import sys, dunkl_lab, dunkl_lab.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(dunkl_lab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
