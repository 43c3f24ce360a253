"""The public names resolve, and the benchmark's tracer finds every site it wraps.

A deletion that leaves a stale ``__all__`` entry, or removes a name the
tracer in ``perfbench/tracer.py`` wraps, fails here instead of only in a
traced benchmark run. Importing the package leaves numpy unloaded, and
only the shared integral cache integrates. No module reaches into a
sibling's private names beyond the few listed below.
"""
import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hhverify

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SRC = Path(hhverify.__file__).resolve().parent
# every submodule but __main__, whose import runs the command line tool
MODULES = ["hhverify"] + [
    f"hhverify.{info.name}" for info in pkgutil.iter_modules(hhverify.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("hhverify_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores():
    tracer = _load_tracer()
    sites = [(tracer._resolve(path), attr) for path, attr, _ in tracer.SPAN_SITES + tracer.LEAF_SITES]

    def current():
        return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr) for owner, attr in sites]

    before = current()
    with tracer.Tracer():
        assert all(new is not old for new, old in zip(current(), before))
    assert all(new is old for new, old in zip(current(), before))


@pytest.mark.parametrize("module_name", ["hhverify", "hhverify.cli"])
def test_import_leaves_numpy_unloaded(module_name):
    # numpy is most of the import time; only class checks and evaluate_array load it
    code = f"import sys, {module_name}; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def _uses_of(name: str, tree: ast.AST) -> list[ast.AST]:
    """Every load of ``name``, bare or as an attribute: calls and any other use."""
    return [
        node for node in ast.walk(tree)
        if isinstance(getattr(node, "ctx", None), ast.Load)
        and name in (getattr(node, "id", None), getattr(node, "attr", None))
    ]


def test_only_the_integral_cache_integrates():
    # One place per integral: a second path to mean_integral would compute
    # again what _IntegralCache already holds for every theorem.
    outside, in_cache = [], 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "_IntegralCache":
                allowed |= {id(inner) for inner in ast.walk(node)}
        for use in _uses_of("mean_integral", tree):
            if id(use) in allowed:
                in_cache += 1
            else:
                outside.append(f"{path.name}:{use.lineno}")
    assert outside == []
    assert in_cache == 4  # the mean of f, of ln f and of the two kernels


def test_one_driver_builds_the_integral_caches():
    # Every report comes from verify._reports; the chain command's fallback
    # only lists the terms of a chain its class check kept from running. A
    # second per-point loop would construct its own cache.
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and "_IntegralCache" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    sites.append(f"{path.stem}.{function.name}")
    assert sorted(sites) == ["cli._cmd_chain", "verify._reports"]


# The private names a module may import from a sibling, each with its reason.
# Any other such import means two modules share one owner's internals.
_PRIVATE_IMPORTS = {
    # the chain command's fallback lists the terms of a chain that its class
    # check kept from running; the benchmark's tracer pins that call site
    ("cli", "verify", "_IntegralCache"),
    # --theorem lists are checked name by name before any work starts
    ("cli", "verify", "_require_theorem"),
    # a type annotation only: the chains read the cache that verify hands them
    ("bounds", "verify", "_IntegralCache"),
}


def test_no_module_imports_a_private_name_of_a_sibling():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("hhverify.")):
                module = (node.module or "").removeprefix("hhverify.")
                found |= {(path.stem, module, alias.name) for alias in node.names if alias.name.startswith("_")}
    assert found == _PRIVATE_IMPORTS
