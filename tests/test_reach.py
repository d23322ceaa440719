"""Every function, method and `raise` of the package is reached by a
command, on valid input or on one of the hostile probes of `test_cli.py`,
every check that `verify` reports fails on one of them, and every
certificate the loader refuses is refused by a `raise` of the package.

The commands and probes run in process under `sys.setprofile`; a function
that no call enters is code only the tests use, and belongs in `tests/`
(as the clique-sum and blowup algebra in `paper_lemmas.py` does).  They
run again under `sys.settrace`; a `raise` that none of them executes
guards against nothing a user can send, and is deleted unless it is
listed in `UNREACHED_RAISES` with the reason it stays.
"""
import ast
import functools
import importlib
import inspect
import json
import os
import pkgutil
import re
import sys

import hadwiger
from hadwiger import serialize
from hadwiger.cli import main
from hadwiger.report import Report
from test_cli import BAD_SHAPES, PROBES, WRONG_TYPES, _construct, _put, _verify_edited, run_probe

# Reached from perfbench/ only: tracing.py wraps max_clique, treewidth_oracle
# and vortex_width by name, run.py times treewidth_oracle, which runs
# treewidth_ordering.
BENCHMARK_ENTRY_POINTS = {
    "hadwiger.minors.max_clique",
    "hadwiger.minors.treewidth_oracle",
    "hadwiger.minors.treewidth_ordering",
    "hadwiger.vortex.vortex_width",
}

# Printed only when `construct` builds a certificate that fails its own
# check: a fault of the builder, which no input can cause.
SELF_CHECK_OUTPUT = {"hadwiger.report.Report.__str__"}


def _package_modules():
    for info in pkgutil.iter_modules(hadwiger.__path__):
        yield importlib.import_module(f"hadwiger.{info.name}")


def _function_of(member):
    """The function behind a method, property, cached property or
    classmethod, or None."""
    for attr in ("fget", "func", "__func__"):
        member = getattr(member, attr, member)
    return member if inspect.isfunction(member) else None


def module_functions() -> dict:
    """Code object -> dotted name of every function defined at the top
    level of a package module or in one of its classes, decorators
    unwrapped; methods that dataclasses and named tuples generate are left
    out.  Caches are cleared, so that a cached function runs again on its
    next call."""
    found = {}
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            obj = inspect.unwrap(obj)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj.__code__] = f"{mod.__name__}.{name}"
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    func = _function_of(member)
                    if func is not None and func.__code__.co_filename == mod.__file__:
                        found[func.__code__] = f"{mod.__name__}.{name}.{attr}"
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
    assert main(["construct", "--g", "7", "--p", "1", "--k", "1"]) == 3


def run_probes(tmp_path, capsys):
    """Every hostile probe of `test_cli.py`: its probe table, and the
    wrong-type and bad-shape edits of a certificate."""
    for case in sorted(PROBES):
        run_probe(tmp_path, capsys, case)
    for table in (WRONG_TYPES, BAD_SHAPES):
        for case in sorted(table):
            _verify_edited(tmp_path, capsys, *table[case])


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
        run_probes(tmp_path, capsys)
    finally:
        sys.setprofile(previous)
    exempt = BENCHMARK_ENTRY_POINTS | SELF_CHECK_OUTPUT
    assert exempt <= set(functions.values())
    unreached = [name for code, name in functions.items() if code not in called and name not in exempt]
    assert sorted(unreached) == []


# Raises that no command or probe executes, keyed by (module, function,
# exception, message with its fields shown as {}), each with the reason it
# stays.  This set may only shrink.
UNREACHED_RAISES = {
    ("bounds", "_coerce", "TypeError", "cannot compare a bound with {}"):
        "verify compares bounds only with integers it has checked; the refusal keeps any other value from being compared or parsed",
    ("embeddings", "triangulation_catalog", "NotInCatalog", "no triangulation of K_{} in the catalog"):
        "one_vortex asks only for catalog members; the refusal says why a K_m has no entry",
    ("embeddings", "_validate_catalog_entry", "NotInCatalog", "catalog entry for K_{} has wrong order/size"):
        "shipped data is re-validated on every load",
    ("embeddings", "_validate_catalog_entry", "NotInCatalog", "catalog entry for K_{} has a non-triangular face"):
        "shipped data is re-validated on every load",
    ("embeddings", "_validate_catalog_entry", "NotInCatalog", "catalog entry for K_{} has wrong genus"):
        "shipped data is re-validated on every load",
    ("embeddings", "find_facial_cycle", "NotACycle", "{} is not a facial cycle"):
        "many_vortex names grid blocks that are always faces; the search has no other answer",
    ("embeddings", "split_at_faces", "NotACycle", "facial walk {} repeats a vertex"):
        "both families name vertex-disjoint facial cycles; the surgery is defined on nothing else",
    ("embeddings", "split_at_faces", "FacesNotDisjoint", "faces share vertices {}"):
        "both families name vertex-disjoint facial cycles; the surgery is defined on nothing else",
    ("graphs", "SimpleGraph.__post_init__", "ValueError", "adjacency/label length mismatch"):
        "every builder passes n, adj and labels of one length; guards the record itself",
    ("serialize", "label_to_json", "TypeError", "unsupported label type {}"):
        "every built label is an int, str, tuple or Split; anything else has no encoding",
    ("serialize", "model_to_json", "ValueError", "only a model of a complete graph is encoded"):
        "every built model is one of K_t; anything else has no encoding",
    ("vortex", "Vortex.__post_init__", "ValueError", "one bag per perimeter position required"):
        "the loader refuses a bag count that differs from the perimeter first",
    ("vortex", "Vortex.__post_init__", "ValueError", "a bag holds an index outside 0..{}"):
        "the loader resolves every bag entry to a vertex of its graph first",
    ("vortex", "vortex_width", "InvalidDecomposition", ""):
        "vortex_width is called by the benchmark only",
}


def _template(node) -> str:
    """The text of a message expression, each formatted field shown as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    if isinstance(node, ast.BinOp):
        return _template(node.left)
    return ""


@functools.cache
def package_raises() -> dict:
    """(path, first line, last line) -> key of every `raise` in the package."""
    found = {}
    for mod in _package_modules():
        with open(mod.__file__) as f:
            tree = ast.parse(f.read(), mod.__file__)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Raise):
                    exc = child.exc
                    call = exc if isinstance(exc, ast.Call) else None
                    name = ast.unparse(call.func if call else exc)
                    message = _template(call.args[0]) if call and call.args else ""
                    key = (mod.__name__.split(".")[-1], ".".join(scope), name, message)
                    found[(mod.__file__, child.lineno, child.end_lineno)] = key
                visit(child, scope)

        visit(tree, [])
    return found


def test_every_raise_is_reached_by_a_command_or_a_probe(tmp_path, capsys):
    raises = package_raises()
    package = os.path.dirname(hadwiger.__file__)
    raised = set()

    def local(frame, event, arg):
        # an exception event is reported at the line that raised it, and at
        # each line it then passes through
        if event == "exception":
            raised.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_lines = False
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        run_commands(tmp_path)
        run_probes(tmp_path, capsys)
    finally:
        sys.settrace(previous)
    keys = list(raises.values())
    assert len(set(keys)) == len(keys)
    assert set(UNREACHED_RAISES) <= set(keys)
    unreached = {
        key for (path, first, last), key in raises.items()
        if not any((path, line) in raised for line in range(first, last + 1))
    }
    assert sorted(unreached) == sorted(UNREACHED_RAISES)


def refused_by_a_package_raise(obj) -> bool:
    """Whether loading `obj` as a certificate is refused, and the innermost
    frame of the refusal is a `raise` statement of the package: not an
    unpacking, a subscript or a comparison that Python refuses first."""
    try:
        serialize.certificate_from_json(obj)
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        site = (tb.tb_frame.f_code.co_filename, tb.tb_lineno)
        return any(site[0] == path and first <= site[1] <= last for path, first, last in package_raises())
    return False


def test_every_refused_certificate_is_refused_by_a_package_raise(tmp_path, capsys):
    # the exit-2 `verify` probes and every wrong-type and bad-shape edit;
    # `test_fuzz_verify.py` asks the same of every fuzzed certificate that exits 2
    build = functools.partial(_construct, tmp_path, capsys)
    inputs = {case: make(build) for case, (command, make, code, _) in PROBES.items() if command == ["verify"] and code == 2}
    for table in (WRONG_TYPES, BAD_SHAPES):
        inputs.update((case, _put(build((0, 1, 2, 0)), *table[case])) for case in table)
    assert sorted(case for case, obj in inputs.items() if not refused_by_a_package_raise(obj)) == []


def test_every_check_verify_reports_fails_on_a_probe(tmp_path, capsys, monkeypatch):
    # a check that no input fails, or that fails on exactly the inputs
    # another check fails on, tells the reader of the report nothing new.
    # The reports are read where `verify` prints them, and a vortex check
    # is one check for every vortex index.
    reports = []
    to_json = Report.to_json
    monkeypatch.setattr(Report, "to_json", lambda self: reports.append(self) or to_json(self))
    run_commands(tmp_path)
    run_probes(tmp_path, capsys)
    failing = {}
    for i, rep in enumerate(reports):
        for c in rep.checks:
            inputs = failing.setdefault(re.sub(r"^structure-vortex-\d+-", "structure-vortex-<i>-", c.name), set())
            if not c.ok:
                inputs.add(i)
    assert reports
    assert sorted(name for name, inputs in failing.items() if not inputs) == []
    twins: dict = {}
    for name, inputs in failing.items():
        twins.setdefault(frozenset(inputs), []).append(name)
    assert [names for names in twins.values() if len(names) > 1] == []


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
