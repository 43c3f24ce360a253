"""The public names resolve, and the benchmark's tracer finds every site it wraps.

A deletion that leaves a stale ``__all__`` entry, or removes a name the
tracer in ``perfbench/tracer.py`` wraps, fails here instead of only in a
traced benchmark run. Importing the package leaves numpy unloaded.
"""
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
