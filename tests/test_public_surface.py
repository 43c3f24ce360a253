"""The public names resolve, and the benchmark's tracer finds every site it wraps.

A deletion that leaves a stale ``__all__`` entry, or removes a name the
tracer in ``perfbench/tracer.py`` wraps, fails here instead of only in a
traced benchmark run. Importing the package leaves numpy unloaded. On the
report path only the shared integral cache integrates, only it and
``Endpoints.of`` evaluate f, only the class-check gate decides and
samples class membership, and only one constructor builds a report. No
module reaches into a sibling's private names or reads the environment,
and every name a module imports from a sibling is used there, but for the
few that only the tracer needs.
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


def _inside(tree: ast.AST, *path: str) -> set[int]:
    """The ids of every node inside the class or function reached by ``path`` of names from ``tree``."""
    nodes = [tree]
    for name in path:
        nodes = [
            node for parent in nodes for node in ast.walk(parent)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
    return {id(inner) for node in nodes for inner in ast.walk(node)}


def test_only_the_integral_cache_and_the_endpoint_record_evaluate_f():
    # f's values on an interval have one owner: the closed forms and chains
    # read them from _IntegralCache, which takes the endpoints from
    # Endpoints.of, so no theorem evaluates f at a point a second time.
    outside, owned = [], 0
    for name in ("verify.py", "bounds.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        allowed = _inside(tree, "_IntegralCache") | _inside(tree, "Endpoints", "of")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "evaluate":
                if id(node) in allowed:
                    owned += 1
                else:
                    outside.append(f"{name}:{node.lineno}")
    assert outside == []
    assert owned == 5  # the midpoint, and f at a, b, a/m and b/m


def test_one_gate_samples_the_class_checks():
    # Every report reads its hypothesis from the table verify._gate builds:
    # the exact rule first, then one sampling pass per m_eff for the rest;
    # a second path to either would judge again what that table already holds.
    tree = ast.parse((SRC / "verify.py").read_text(), filename="verify.py")
    for name in ("check_alphas", "exact_membership"):
        uses = _uses_of(name, tree)
        assert len(uses) == 1 and id(uses[0]) in _inside(tree, "_gate"), name


def test_one_constructor_builds_the_reports():
    # Every verdict is replay_verdict of the report's own fields, in
    # verify._report; a second constructor could set a verdict by hand.
    # cli.report_from_dict rebuilds a serialized report with its stored
    # verdict on purpose, so that a replay can compare the two.
    tree = ast.parse((SRC / "verify.py").read_text(), filename="verify.py")
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InequalityReport"
    ]
    assert len(calls) == 1 and id(calls[0]) in _inside(tree, "_report")


def test_one_driver_builds_the_integral_caches():
    # Every report comes from verify._reports, the chain command's listing
    # of a gated chain's terms included. A second per-point loop would
    # construct its own cache.
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
    assert sorted(sites) == ["verify._reports"]


def _sibling_imports(tree: ast.AST) -> list[tuple[str, ast.alias]]:
    """(sibling module, alias) for every name the module imports from a sibling."""
    return [
        ((node.module or "").removeprefix("hhverify."), alias)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("hhverify."))
        for alias in node.names
    ]


def test_no_module_imports_a_private_name_of_a_sibling():
    # such an import means two modules share one owner's internals
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {
            (path.stem, module, alias.name) for module, alias in _sibling_imports(tree) if alias.name.startswith("_")
        }
    assert found == set()


_ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # every input comes from the arguments, so one invocation prints the same bytes in any shell
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READERS:
                found.append((path.stem, node.attr))
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found.extend((path.stem, alias.name) for alias in node.names if alias.name in _ENVIRONMENT_READERS)
    assert found == []


# Names a module imports from a sibling without using them, each with its
# reason. The benchmark's tracer wraps a name where its caller looks it up,
# so these keep the tracer installing until it wraps the sites now in use.
_TRACER_ONLY_IMPORTS = {
    ("verify", "check_alpha_m_log_convex"): "the class checks run through classify.check_alphas",
    ("cli", "chain_dr1"): "the chain command reaches the chains through verify_theorem",
    ("cli", "chain_dr2"): "the chain command reaches the chains through verify_theorem",
}


def _exported(tree: ast.AST) -> set[str]:
    """The names listed in the module's ``__all__``, which a re-export uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def test_every_name_imported_from_a_sibling_is_used():
    # No linter runs on the package, so an import left behind by a refactor
    # would stay unnoticed; the few that only the tracer needs are listed.
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
        imported = [alias.asname or alias.name for _, alias in _sibling_imports(tree)]
        unused |= {(path.stem, name) for name in imported if name not in used}
    assert unused == set(_TRACER_ONLY_IMPORTS)
    tracer = _load_tracer()
    pinned = {(path.removeprefix("hhverify."), attr) for path, attr, _ in tracer.SPAN_SITES + tracer.LEAF_SITES}
    assert set(_TRACER_ONLY_IMPORTS) <= pinned
