"""The public names resolve, and the benchmark's tracer finds every site it wraps.

A deletion that leaves a stale ``__all__`` entry, or removes a name the
tracer in ``perfbench/tracer.py`` wraps, fails here instead of only in a
traced benchmark run.
"""
import importlib
import importlib.util
import pkgutil
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
