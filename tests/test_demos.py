"""Demos 01-05 run to completion, demo 06 does in the slow layer, and
every demo names only API that exists."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import phase_surrogate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(phase_surrogate.__file__))


@pytest.mark.parametrize("name", [
    "01_simulator_equilibrium.py",
    "02_dataset_pipeline.py",
    # 03 and 05 train coarse models for 30-40 epochs, 3-4 s each on one
    # core; 04 trains nothing, under 1 s
    "03_train_and_evaluate.py",
    "04_physics_constraints.py",
    "05_restart_speedup.py",
    # trains a coarse model and four fine-tunes, about 8 s on one core
    pytest.param("06_ood_and_transfer.py", marks=pytest.mark.slow),
])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def package_references(path):
    """(module, attribute) pairs a demo takes from phase_surrogate: names
    imported from the package or a submodule, and ``module.attr`` uses of
    every module it imports from there."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "phase_surrogate":
            for alias in node.names:
                refs.append((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                if node.module == "phase_surrogate":
                    modules[alias.asname or alias.name] = full
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "phase_surrogate":
                    bound = alias.asname or alias.name.split(".")[0]
                    modules[bound] = alias.name if alias.asname else bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.append((modules[node.value.id], node.attr))
    return refs


@pytest.mark.parametrize("name", ["03_train_and_evaluate.py",
                                  "04_physics_constraints.py",
                                  "05_restart_speedup.py",
                                  "06_ood_and_transfer.py"])
def test_demo_names_existing_api(name):
    # a deleted or renamed function a training demo calls fails here at
    # once, and for demo 06 also outside the slow layer
    refs = package_references(os.path.join(ROOT, "demos", name))
    assert refs
    missing = [f"{module}.{attr}" for module, attr in refs
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
