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


def test_verify_run_loads_no_numpy_random_or_polynomial(tmp_path):
    # a fresh interpreter runs a whole verify suite and builds a bump (the
    # gradient check draws probe points); neither may load numpy.random or
    # numpy.polynomial.  numpy < 2 imports both from its own __init__, so
    # only modules loaded after `import numpy` count.
    code = (
        "import sys, numpy; before = set(sys.modules)\n"
        "from dunkl_lab import cli\n"
        "from dunkl_lab.corpus import ball_bump\n"
        "assert cli.main(['verify', 'all', '--family', 'Z2', '--rank', '3',"
        f" '--out', {str(tmp_path)!r}]) == 0\n"
        "ball_bump([0.5, 0.0, 0.0], 0.3)\n"
        "print(sorted(m for m in set(sys.modules) - before"
        " if m.startswith(('numpy.random', 'numpy.polynomial'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dunkl_lab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
