"""dynsc runs on numpy and scipy alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run under ``python -S``, so that no ``.pth`` file imports anything first:
# puts site-packages on the path, hides every installed package but numpy
# and scipy, imports dynsc and its CLI, and prints the installed packages
# the loaded modules came from. numpy and scipy import some packages when
# present (numpy.f2py, which scipy's array API layer loads, tries
# charset_normalizer), so hiding the others tells a dependency of dynsc
# apart from an optional one of numpy or scipy.
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


sys.meta_path.insert(0, OnlyAllowed())
import dynsc, dynsc.cli

packages = {installed_package(getattr(module, "__file__", None) or "")
            for module in list(sys.modules.values())}
print(json.dumps(sorted(packages - {None})))
"""


def test_only_numpy_and_scipy_are_imported():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["numpy", "scipy"]
