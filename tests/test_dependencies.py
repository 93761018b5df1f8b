"""dynsc runs on numpy and scipy alone, never loads ``scipy.optimize``, and exports only
what its library or its benchmark uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Run under ``python -S``, so that no ``.pth`` file imports anything first:
# puts site-packages on the path, hides every installed package but numpy
# and scipy, imports dynsc and its CLI, lists the loaded ``scipy.optimize``
# modules, evaluates one clustering cell, lists them again, and prints both
# lists and the installed packages the loaded modules came from. numpy and
# scipy import some packages when present (numpy.f2py, which scipy's array
# API layer loads, tries charset_normalizer), so hiding the others tells a
# dependency of dynsc apart from an optional one of numpy or scipy.
_PROBE = r"""
import importlib.abc, importlib.machinery, json, os, site, sys

ALLOWED = {"numpy", "scipy"}
SITE = site.getsitepackages() + [site.getusersitepackages()]
sys.path.extend(SITE)
ROOTS = tuple(os.path.realpath(p) + os.sep for p in SITE)


def installed_package(path):
    path = os.path.realpath(path)
    for root in ROOTS:
        if path.startswith(root):
            return path[len(root):].split(os.sep)[0].split(".")[0]
    return None


class OnlyAllowed(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if "." not in name:
            spec = importlib.machinery.PathFinder.find_spec(name)
            if spec and spec.origin and installed_package(spec.origin) not in {None, *ALLOWED}:
                raise ModuleNotFoundError(f"hidden: {name}", name=name)
        return None


def optimize_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy.optimize"))


sys.meta_path.insert(0, OnlyAllowed())
import dynsc, dynsc.cli
from dynsc import experiments

optimize = {"import": optimize_modules()}
truth = dynsc.CommunityLabels([0, 1] * 20, 2)
model = dynsc.ConnectivityModel.planted_partition(2, 0.5, 0.2)
experiments.evaluate_cell(dynsc.build_probability_matrix(truth, model), "adjacency",
                          experiments.reference_matrices(truth, model, ("adjacency",))["adjacency"],
                          truth, 2, seed=0, restarts=2)
optimize["evaluate_cell"] = optimize_modules()
packages = {installed_package(getattr(module, "__file__", None) or "")
            for module in list(sys.modules.values())}
print(json.dumps({"packages": sorted(packages - {None}), "optimize": optimize}))
"""


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_numpy_and_scipy_are_imported(probe):
    assert probe["packages"] == ["numpy", "scipy"]


def test_scipy_optimize_is_never_loaded(probe):
    # the assignment of metrics runs on scipy.sparse.csgraph; scipy.optimize
    # alone would add about a quarter to the import time
    assert probe["optimize"] == {"import": [], "evaluate_cell": []}


def _referenced(path: Path, strings: bool) -> set:
    """The ``Name`` ids and ``Attribute`` names in a module, and its string constants if asked."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_library_or_benchmark_caller():
    # a name only the tests call is a test oracle, and belongs under tests/; the
    # benchmark's span table names the layers it wraps as strings
    package = SRC / "dynsc"
    exported = {alias.asname or alias.name
                for node in ast.parse((package / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced(path, strings=False)
    for path in (ROOT / "bench").glob("*.py"):
        used |= _referenced(path, strings=True)
    assert sorted(exported - used) == []
