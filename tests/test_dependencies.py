"""dynsc runs on numpy and scipy alone, never loads ``scipy.optimize``, and has no
export, public function or classmethod that only its tests call."""

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


PACKAGE = SRC / "dynsc"


def _module(path: Path) -> str:
    return "dynsc" if path.name == "__init__.py" else f"dynsc.{path.stem}"


def _exports() -> dict:
    """``dynsc.<name>`` of each package export, mapped to where it is defined."""
    return {f"dynsc.{alias.asname or alias.name}": f"dynsc.{node.module}.{alias.name}"
            for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _resolve(qualname: str, exports: dict) -> str:
    """``qualname`` with a leading package export replaced by its defining module's path."""
    head = ".".join(qualname.split(".")[:2])
    return exports[head] + qualname[len(head):] if head in exports else qualname


def _entry_points() -> set:
    """Every export, public module-level function and public classmethod of the library."""
    exports = _exports()
    names = set(exports.values())
    for path in PACKAGE.glob("*.py"):
        module = _module(path)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                names.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(f"{module}.{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                             and any(isinstance(d, ast.Name) and d.id == "classmethod"
                                     for d in item.decorator_list))
    return names


def _bindings(path: Path, tree: ast.Module) -> dict:
    """Each name a module binds to a dynsc module or object: its imports and, in the library,
    its own module-level functions and classes."""
    bound = {}
    if path.parent == PACKAGE:
        bound.update((node.name, f"{_module(path)}.{node.name}") for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import dynsc.sbm`` binds ``dynsc``; ``import dynsc.sbm as s`` binds the module
            bound.update((alias.asname or "dynsc", alias.name if alias.asname else "dynsc")
                         for alias in node.names if alias.name.split(".")[0] == "dynsc")
        elif isinstance(node, ast.ImportFrom):
            source = (".".join(filter(None, ["dynsc", node.module])) if node.level
                      else node.module or "")
            if source.split(".")[0] == "dynsc":
                bound.update((alias.asname or alias.name, f"{source}.{alias.name}")
                             for alias in node.names)
    return bound


def _callers(path: Path, exports: dict, strings: bool) -> set:
    """The dynsc entry points a module refers to through a binding, and its string constants
    if asked. A ``Name`` resolves through the module's own bindings; an ``Attribute``
    counts only on a chain that starts at one (``sbm.x``, ``dynsc.X.y``), never on a value
    such as ``snap.degrees``."""
    tree = ast.parse(path.read_text())
    bound = _bindings(path, tree)

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and (name := dotted(node)):
            used.add(_resolve(name, exports))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_export_has_a_library_or_benchmark_caller():
    # an entry point only the tests call is a test oracle, and belongs under tests/;
    # the benchmark's span table names the layers it wraps as bare strings
    exports = _exports()
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _callers(path, exports, strings=False)
    for path in (ROOT / "bench").glob("*.py"):
        used |= _callers(path, exports, strings=True)
    uncalled = {name for name in _entry_points()
                if name not in used and name.rsplit(".", 1)[1] not in used}
    assert sorted(uncalled) == []
