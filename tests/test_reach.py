"""Every module-level function of the package is reached by a command.

The command set below runs in process under `sys.setprofile`; a function
that no call enters is code only the tests use, and belongs in `tests/`
(as the clique-sum and blowup algebra in `paper_lemmas.py` does).
"""
import ast
import importlib
import inspect
import json
import pkgutil
import sys

import hadwiger
from hadwiger.cli import main

# Reached from perfbench/ only: tracing.py wraps max_clique, treewidth_oracle
# and vortex_width by name, run.py times treewidth_oracle, which runs
# treewidth_ordering.
BENCHMARK_ENTRY_POINTS = {
    "hadwiger.minors.max_clique",
    "hadwiger.minors.treewidth_oracle",
    "hadwiger.minors.treewidth_ordering",
    "hadwiger.vortex.vortex_width",
}


def module_functions() -> dict:
    """Code object -> dotted name of every function defined at the top
    level of a package module, decorators unwrapped.  Caches are cleared,
    so that a cached function runs again on its next call."""
    found = {}
    for info in pkgutil.iter_modules(hadwiger.__path__):
        mod = importlib.import_module(f"hadwiger.{info.name}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            obj = inspect.unwrap(obj)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj.__code__] = f"{mod.__name__}.{name}"
    return found


def run_commands(tmp_path):
    graph = tmp_path / "wheel.json"
    spokes = [[0, i] for i in range(1, 6)]
    rim = [[i, i % 5 + 1] for i in range(1, 6)]
    graph.write_text(json.dumps({"n": 6, "edges": spokes + rim, "labels": {str(i): i for i in range(6)}}))
    for g, p, k, a in ((1, 2, 3, 1), (1, 1, 2, 0)):
        cert = str(tmp_path / f"cert-{g}{p}{k}{a}.json")
        assert main(["construct", "--g", str(g), "--p", str(p), "--k", str(k), "--a", str(a), "--out", cert]) == 0
        assert main(["verify", cert]) == 0
        assert main(["export", cert, "--out", str(tmp_path / "host.json")]) == 0
        assert main(["export", cert, "--format", "dot", "--out", str(tmp_path / "host.dot")]) == 0
    assert main(["eta", str(graph), "--witness", str(tmp_path / "witness.json")]) == 0
    assert main(["bounds", "--g", "1", "--p", "2", "--k", "3", "--a", "1", "--tw", "2"]) == 0


def test_every_package_function_is_reached_by_a_command(tmp_path, capsys):
    functions = module_functions()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_commands(tmp_path)
    finally:
        sys.setprofile(previous)
    assert BENCHMARK_ENTRY_POINTS <= set(functions.values())
    unreached = [
        name for code, name in functions.items()
        if code not in called and name not in BENCHMARK_ENTRY_POINTS
    ]
    assert sorted(unreached) == []


def test_no_package_code_reads_or_writes_caches_through_vars():
    # a cached property is read through its attribute, never peeked at or
    # planted in the instance dict
    hits = []
    for info in pkgutil.iter_modules(hadwiger.__path__):
        path = importlib.import_module(f"hadwiger.{info.name}").__file__
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars":
                hits.append(f"{info.name}:{node.lineno} vars()")
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                hits.append(f"{info.name}:{node.lineno} __dict__")
    assert hits == []
