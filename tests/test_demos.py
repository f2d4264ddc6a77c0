"""Every name a demo takes from ``fds`` exists, and the quick demos run.

Parsing every demo catches one left calling a deleted function. It
cannot see an attribute read off an object (``H.offdiag``), so the seven
demos that finish in a few seconds also run, each in its own process.
Every name an ``fds`` module lists in ``__all__`` exists too, so a stale
entry left by a deletion fails here and not in a user's ``import *``.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fds

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK = ["conditioning_1d", "hbs_skeletonization", "hodlr_inversion", "laplace_bie",
         "nested_dissection", "proxy_and_multipole", "spectrum_stages"]


def fds_names(tree):
    """Dotted paths of the names a demo imports from fds, and of the
    attributes it reads off them (``hodlr.storage_report``,
    ``Bvp1dProblem.from_functions``)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fds":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fds":
                    # ``import fds.mod`` binds the package, ``as m`` the module
                    bound[alias.asname or "fds"] = alias.name if alias.asname else "fds"
    names = list(bound.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            names.append(f"{bound[node.value.id]}.{node.attr}")
    return names


def resolves(dotted):
    """Whether ``dotted`` names a module, or an attribute reached from one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


PUBLIC = [m for m in (importlib.import_module(f"fds.{info.name}")
                      for info in pkgutil.iter_modules(fds.__path__)) if hasattr(m, "__all__")]


@pytest.mark.parametrize("mod", PUBLIC, ids=lambda m: m.__name__)
def test_public_names_resolve(mod):
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{mod.__name__}.__all__ lists names it does not define: {missing}"


def test_demos_found():
    assert len(DEMOS) >= 10


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = [name for name in fds_names(tree) if not resolves(name)]
    assert not missing, f"{path.name} uses names fds does not define: {missing}"


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
