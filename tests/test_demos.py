"""Every name a demo takes from ``fds`` exists.

The demos run for seconds to minutes, so the suite does not execute
them; parsing them catches a demo left calling a deleted function.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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


def test_demos_found():
    assert len(DEMOS) >= 10


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = [name for name in fds_names(tree) if not resolves(name)]
    assert not missing, f"{path.name} uses names fds does not define: {missing}"
