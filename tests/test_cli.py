import contextlib
import gc
import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys

import pytest

import dot_reader
import hadwiger
from hadwiger import cli, graphs, serialize
from hadwiger.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_runs_the_current_command_function(monkeypatch, capsys):
    # the parser is built once per process; a command function replaced
    # after that (as a tracer wraps it) must still be the one that runs
    assert run(["bounds", "--g", "0"], capsys)[0] == 0
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: 7)
    assert run(["bounds", "--g", "0"], capsys)[0] == 7


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collector, enabled):
    cert, failing, big = tmp_path / "cert.json", tmp_path / "failing.json", tmp_path / "big.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    obj["model"]["sets"]["0"] = obj["model"]["sets"]["1"]
    failing.write_text(json.dumps(obj))
    big.write_text(serialize.dumps(serialize.graph_to_json(graphs.grid_graph(5))))
    exits = {
        0: ["verify", str(cert)],
        1: ["verify", str(failing)],
        2: ["construct", "--g", "0", "--p", "1", "--k", "1"],
        3: ["construct", "--g", "7", "--p", "1", "--k", "2"],
        4: ["eta", str(big)],
    }
    (gc.enable if enabled else gc.disable)()
    for code, argv in exits.items():
        assert run(argv, capsys)[0] == code
        assert gc.isenabled() is enabled
    with pytest.raises(SystemExit):
        main(["construct"])
    assert gc.isenabled() is enabled
    # a tree the encoder cannot write escapes, and nothing is written
    cyclic = {"a": []}
    cyclic["a"].append(cyclic)
    monkeypatch.setattr(serialize, "certificate_to_json", lambda cert: cyclic)
    out = tmp_path / "never.json"
    with pytest.raises(RecursionError):
        main(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(out)])
    assert not out.exists()
    assert gc.isenabled() is enabled
    # and inside the command the collector is paused
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: 7 if gc.isenabled() else 0)
    assert run(["bounds", "--g", "0"], capsys)[0] == 0
    assert gc.isenabled() is enabled


def test_cyclic_garbage_does_not_grow_with_the_certificate(tmp_path, capsys, collector):
    # with the collector paused, what a construct and a verify leave for it
    # is the same at a small and at a large point, so a command holds no
    # more memory than it would with the collector running
    def garbage(point):
        cert = tmp_path / f"{point}.json"
        argv = ["construct", *(x for flag, v in zip(("--g", "--p", "--k", "--a"), point) for x in (flag, str(v)))]
        gc.collect()
        assert run([*argv, "--out", str(cert)], capsys)[0] == 0
        built = gc.collect()
        assert run(["verify", str(cert)], capsys)[0] == 0
        return built, gc.collect()

    gc.disable()
    small, large = (0, 1, 2, 1), (0, 4, 4, 0)
    for point in (small, large):
        garbage(point)  # builds the parser and the other per-process caches
    assert garbage(small) == garbage(large)


def test_construct_small(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, _, _ = run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["n"] == 2


def test_construct_with_apex(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, _, _ = run(
        ["construct", "--g", "1", "--p", "1", "--k", "2", "--a", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert json.loads(out.read_text())["n"] == 7


def test_construct_catalog_gap_exits_3(capsys):
    code, _, err = run(["construct", "--g", "7", "--p", "1", "--k", "2"], capsys)
    assert code == 3
    assert "catalog" in err


def test_construct_bad_parameters_exit_2(capsys):
    code, _, _ = run(["construct", "--g", "0", "--p", "1", "--k", "1"], capsys)
    assert code == 2


def test_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)[0] == 0
    code, out, _ = run(["verify", str(cert)], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_detects_mutation(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    keys = sorted(obj["model"]["sets"])
    # duplicate one branch set onto another: capacity violation
    obj["model"]["sets"][keys[0]] = obj["model"]["sets"][keys[1]]
    cert.write_text(json.dumps(obj))
    code, out, _ = run(["verify", str(cert)], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False


def test_verify_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", str(bad)], capsys)[0] == 2


def test_eta_k5(tmp_path, capsys):
    path = tmp_path / "k5.json"
    path.write_text(serialize.dumps(serialize.graph_to_json(graphs.complete_graph(5))))
    code, out, _ = run(["eta", str(path)], capsys)
    assert code == 0
    assert out.strip() == "5"


def test_eta_budget_exit_4(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(serialize.dumps(serialize.graph_to_json(graphs.grid_graph(5))))
    code, _, err = run(["eta", str(path)], capsys)
    assert code == 4
    assert "budget" in err


def test_eta_cap_flag_override(tmp_path, capsys):
    path = tmp_path / "k13.json"
    path.write_text(serialize.dumps(serialize.graph_to_json(graphs.complete_graph(13))))
    assert run(["eta", str(path)], capsys)[0] == 4
    code, out, _ = run(["eta", str(path), "--cap", "16"], capsys)
    assert code == 0
    assert out.strip() == "13"


def test_bounds_table(capsys):
    code, out, _ = run(["bounds", "--g", "0", "--p", "1", "--k", "2"], capsys)
    assert code == 0
    assert "full_upper" in out and "149" in out


# `hadwiger bounds` output as the sympy-based bounds printed it: g = 0, k = 0,
# p = 0, sqrt(g+p) and sqrt(6g) merging at (1, 5), and a large point
BOUNDS_STDOUT = {
    (0, 1, 2, 0, 0): """\
surface_bound    4 (4.0000)
lemma21_bound    1
main_upper       149 (149.0000)
full_upper       149 (149.0000)
main_tool_bound  96 (96.0000)
lower_guarantee  1/2 (0.5000)
""",
    (1, 5, 3, 1, 2): """\
surface_bound    sqrt(6) + 4 (6.4495)
lemma21_bound    8
main_upper       5 + 193*sqrt(6) (477.7515)
full_upper       6 + 193*sqrt(6) (478.7515)
main_tool_bound  144*sqrt(6) (352.7265)
lower_guarantee  1 + 3*sqrt(6)/4 (2.8371)
""",
    (3, 0, 4, 2, 1): """\
surface_bound    4 + 3*sqrt(2) (8.2426)
lemma21_bound    7
main_upper       3*sqrt(2) + 5 + 240*sqrt(3) (424.9348)
full_upper       3*sqrt(2) + 7 + 240*sqrt(3) (426.9348)
main_tool_bound  192*sqrt(3) (332.5538)
lower_guarantee  sqrt(3) + 2 (3.7321)
""",
    (2, 7, 0, 3, 5): """\
surface_bound    2*sqrt(3) + 4 (7.4641)
lemma21_bound    -1
main_upper       2*sqrt(3) + 149 (152.4641)
full_upper       2*sqrt(3) + 152 (155.4641)
main_tool_bound  0 (0.0000)
lower_guarantee  3 (3.0000)
""",
    (37, 1234, 17, 9, 11): """\
surface_bound    4 + sqrt(222) (18.8997)
lemma21_bound    203
main_upper       5 + sqrt(222) + 864*sqrt(1271) (30822.4388)
full_upper       14 + sqrt(222) + 864*sqrt(1271) (30831.4388)
main_tool_bound  816*sqrt(1271) (29091.2869)
lower_guarantee  9 + 17*sqrt(1271)/4 (160.5171)
""",
}


@pytest.mark.parametrize("point", sorted(BOUNDS_STDOUT))
def test_bounds_stdout_pinned(capsys, point):
    g, p, k, a, tw = point
    argv = ["bounds", "--g", str(g), "--p", str(p), "--k", str(k), "--a", str(a), "--tw", str(tw)]
    assert run(argv, capsys) == (0, BOUNDS_STDOUT[point], "")


def test_export_dot_and_json(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    code, out, _ = run(["export", str(cert), "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph G {")
    code, out, _ = run(["export", str(cert), "--format", "json"], capsys)
    assert code == 0
    assert "edges" in json.loads(out)


HOSTILE_LABEL = 'x"]; injected [shape=box'


def test_export_dot_quotes_every_label(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    vertices = obj["structure"]["base"]["vertices"]
    ids = sorted(vertices, key=int)
    vertices[ids[0]] = {"str": HOSTILE_LABEL}
    vertices[ids[-1]] = {"str": "ends in a backslash \\"}
    cert.write_text(json.dumps(obj))
    code, dot, _ = run(["export", str(cert), "--format", "dot"], capsys)
    assert code == 0
    code, out, _ = run(["export", str(cert), "--format", "json"], capsys)
    assert code == 0
    host = json.loads(out)
    nodes, edges = dot_reader.read_graph(dot)
    assert [v for v, _ in nodes] == [str(i) for i in range(host["n"])]
    assert edges == [(str(u), str(v)) for u, v in host["edges"]]
    shown = {attrs["label"] for _, attrs in nodes}
    assert {HOSTILE_LABEL, "ends in a backslash \\"} <= shown


def test_construct_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        run(["construct", "--g", "1", "--p", "2", "--k", "3", "--a", "1", "--out", str(out)], capsys)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("disc_faces", ["x", [["x"]]], ids=["string", "list-of-string"])
def test_verify_malformed_disc_faces_exits_2(tmp_path, capsys, disc_faces):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    obj["structure"]["disc_faces"] = disc_faces
    cert.write_text(json.dumps(obj))
    code, out, err = run(["verify", str(cert)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


# The JSON path of a field, and the value of the wrong type put there.
WRONG_TYPES = {
    "n-list": (["n"], [2]),
    "n-null": (["n"], None),
    "n-string": (["n"], "2"),
    "n-float": (["n"], 2.0),
    "params-strings": (["structure", "params"], ["0", "1", "2", "0"]),
    "sets-list": (["model", "sets"], [[0]]),
    "set-strings": (["model", "sets", "0"], ["0"]),
    "base-edges-list": (["structure", "base", "edges"], []),
    # accepted once, as the integers they equal
    "signature-bool": (["structure", "base", "signatures", "0"], True),
    "signature-float": (["structure", "base", "signatures", "0"], 1.0),
    "edge-end-float": (["structure", "base", "edges", "0", 0], 4.0),
    "dart-end-bool": (["structure", "base", "rotations", "5", 0, 1], True),
    "dart-edge-float": (["structure", "base", "rotations", "7", 1, 0], 3.0),
    # accepted once: a key aliasing another under int() replaced it, and a
    # bag past the perimeter was never read
    "sets-key-alias": (["model", "sets", "00"], lambda sets: sets["0"]),
    "edge-labels-key-alias": (["structure", "base", "edge_labels", "07"], [1, 1]),
    "bags-extra-key": (["structure", "vortices", 0, "bags", "999"], []),
    # accepted once as another spelling of the key they replace
    "edge-labels-key-zero-padded": (["structure", "base", "edge_labels", "07"], lambda labels: labels.pop("7")),
    "vertices-key-plus": (["structure", "base", "vertices", "+4"], lambda vertices: vertices.pop("4")),
    "vertices-key-space": (["structure", "base", "vertices", " 4"], lambda vertices: vertices.pop("4")),
    "edges-key-underscore": (["structure", "base", "edges", "1_0"], lambda edges: edges.pop("10")),
    # accepted once, naming nothing, and never read
    "sets-key-past-pattern": (["model", "sets", "5"], [0]),
    "signatures-key-unknown-edge": (["structure", "base", "signatures", "999"], -1),
    "edge-labels-key-unknown-edge": (["structure", "base", "edge_labels", "999"], [1, 1]),
    # a second encoding of the K_2 model once, and a model of no K_2 once:
    # a model is always one of K_pattern_n
    "pattern-edges-complete": (["model", "pattern_edges"], [[0, 1]]),
    "pattern-edges-empty": (["model", "pattern_edges"], []),
}


# Out-of-range or wrongly shaped values that once let an exception escape.
BAD_SHAPES = {
    "vortex-edge-out-of-range": (["structure", "vortices", 0, "graph", "edges", 0], [0, 10**6]),
    "vortex-n-negative": (["structure", "vortices", 0, "graph", "n"], -3),
    "params-negative": (["structure", "params", 2], -1),
    "vortex-n-too-small": (["structure", "vortices", 0, "graph", "n"], 2),
    "pattern-edge-out-of-range": (["model", "pattern_edges"], [[0, 10**6]]),
    "base-edge-one-end": (["structure", "base", "edges", "0"], [0]),
    "rotation-dart-one-end": (["structure", "base", "rotations", "4", 0], [0]),
    "signatures-list": (["structure", "base", "signatures"], [1]),
    "rotation-dart-unknown-edge": (["structure", "base", "rotations", "4", 0], [10**6, 0]),
    "signature-not-a-sign": (["structure", "base", "signatures"], {"0": 5}),
    "pattern-n-huge": (["model", "pattern_n"], 10**6),
    "vortex-graph-list": (["structure", "vortices", 0, "graph"], [1]),
    "vortex-graph-null": (["structure", "vortices", 0, "graph"], None),
    # accepted once, though `certificate_to_json` cannot write the label back
    "edge-label-str-not-a-string": (["structure", "base", "edge_labels", "0"], {"str": []}),
    "edge-label-float": (["structure", "base", "edge_labels", "0"], 1.5),
    "edge-label-null": (["structure", "base", "edge_labels", "0"], None),
    "split-position-float": (["structure", "base", "edge_labels", "0"], {"split": [0, 2.5]}),
    "split-position-bool": (["structure", "base", "edge_labels", "0"], {"split": [0, True]}),
    # accepted once, as a second encoding of the label {"str": "ab"}, of 1, and
    # of edge 0 in the disc face's first incidence
    "edge-label-bare-string": (["structure", "base", "edge_labels", "0"], "ab"),
    "edge-label-bool": (["structure", "base", "edge_labels", "0"], True),
    "disc-face-bool-edge": (["structure", "disc_faces", 0, 0, 1], False),
}


def _construct(tmp_path, capsys, point=(0, 1, 2, 0)) -> dict:
    """The JSON of the certificate that `construct` writes for `point`."""
    cert = tmp_path / "cert.json"
    flags = [x for flag, v in zip(("--g", "--p", "--k", "--a"), point) for x in (flag, str(v))]
    assert run(["construct", *flags, "--out", str(cert)], capsys)[0] == 0
    return json.loads(cert.read_text())


def _put(obj, path, value):
    """Put `value` at the JSON `path` in `obj`; a callable `value` is called
    on the object that receives it."""
    owner = obj
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value(owner) if callable(value) else value
    return obj


def _verify_edited(tmp_path, capsys, path, value):
    """Verify a (0,1,2,0) certificate with `value` put at the JSON `path`."""
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_put(_construct(tmp_path, capsys), path, value)))
    return run(["verify", str(cert)], capsys)


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_verify_wrong_field_type_exits_2(tmp_path, capsys, case):
    code, out, err = _verify_edited(tmp_path, capsys, *WRONG_TYPES[case])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_verify_bad_shape_exits_2(tmp_path, capsys, case):
    code, out, err = _verify_edited(tmp_path, capsys, *BAD_SHAPES[case])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


# ------------------------------------------------------------ probes

def _edited(point, *edits):
    """The certificate of `point` with each (path, value) of `edits` put in."""
    def make(build):
        obj = build(point)
        for path, value in edits:
            _put(obj, path, value)
        return obj
    return make


def _apexes_over_isolated_vertices(n, a):
    """A certificate of the class (0,0,0,a): a base of n vertices and no
    edge, no vortex, and `a` apexes joined to everything; its K2 model is
    the first host vertex and the last apex."""
    apex = [[{"str": "apex"}, j] for j in range(1, a + 1)]
    edges = [[x, v] for x in apex for v in range(n)] + [[x, y] for i, x in enumerate(apex) for y in apex[i + 1:]]
    base = {"vertices": {str(v): v for v in range(n)}, "edges": {}, "rotations": {}}
    return {
        "structure": {
            "base": base, "vortices": [], "disc_faces": [], "apex": apex, "apex_edges": edges, "params": [0, 0, 0, a],
        },
        "model": {"pattern_n": 2, "sets": {"0": [0], "1": [n + a - 1]}, "k": 1},
        "n": 2,
        "guarantee_expr": str(a),
    }


def _shared_hub(build):
    # the last hub of vortex 1 takes the label of the last hub of vortex 0
    obj = build((0, 4, 2, 0))
    v0, v1 = obj["structure"]["vortices"][:2]
    old, new = (v["graph"]["labels"][str(v["graph"]["n"] - 1)] for v in (v1, v0))
    v1["graph"]["labels"][str(v1["graph"]["n"] - 1)] = new
    v1["bags"] = {pos: [new if lab == old else lab for lab in bag] for pos, bag in v1["bags"].items()}
    return obj


def _apex_named_as_base_vertex(build):
    # the apex takes a base vertex's label; the apex edge that would be a
    # loop is dropped
    obj = build((0, 1, 2, 1))
    s = obj["structure"]
    (apex,), label = s["apex"], s["base"]["vertices"]["4"]
    s["apex"] = [label]
    s["apex_edges"] = [[label, y] for x, y in s["apex_edges"] if x == apex and y != label]
    return obj


def _vortex0(obj):
    return obj["structure"]["vortices"][0]


def _swap_perimeter(obj):
    # swap positions 0 and 2 with their bags: hubs lose consecutiveness
    v = _vortex0(obj)
    per, bags = v["perimeter"], v["bags"]
    per[0], per[2] = per[2], per[0]
    bags["0"], bags["2"] = bags["2"], bags["0"]


def _drop_from_own_bag(obj):
    v = _vortex0(obj)
    own = v["perimeter"][1]
    v["bags"]["1"] = [x for x in v["bags"]["1"] if x != own]


def _edge_without_bag(obj):
    # the first vertex pair, in index order, whose bags are disjoint
    v = _vortex0(obj)
    held: dict = {}
    for pos, bag in v["bags"].items():
        for lab in bag:
            held.setdefault(json.dumps(lab), set()).add(pos)
    graph = v["graph"]
    bags_of = [held.get(json.dumps(graph["labels"][str(i)]), set()) for i in range(graph["n"])]
    pair = next(
        [i, j] for i in range(graph["n"]) for j in range(i + 1, graph["n"])
        if bags_of[i].isdisjoint(bags_of[j])
    )
    graph["edges"].append(pair)


UNBAGGED = ["alpha", "beta", "gamma", "delta", "eps"]


def _add_unbagged_vertices(obj):
    # five vortex vertices in no bag, so property 2 lists all five
    graph = _vortex0(obj)["graph"]
    for name in UNBAGGED:
        graph["labels"][str(graph["n"])] = {"str": name}
        graph["n"] += 1


def _broken(point, breaker):
    """The certificate of `point` with `breaker` applied to it."""
    def make(build):
        obj = build(point)
        breaker(obj)
        return obj
    return make


def _relaxed_model(build):
    # a multiplicity-2 model, set 12 repeating set 0, is no K13 minor
    obj = build((1, 1, 4, 0))
    model = obj["model"]
    assert (obj["n"], model["k"]) == (12, 1)
    model["k"] = 2
    model["sets"]["12"] = model["sets"]["0"]
    model["pattern_n"] = obj["n"] = 13
    return obj


def _base_vertex_in_vortex(build):
    # vortex 0 takes, in bag 0, a base vertex on vortex 1's disc
    obj = build((0, 4, 2, 0))
    v0, v1 = obj["structure"]["vortices"][:2]
    graph, label = v0["graph"], v1["perimeter"][0]
    graph["labels"][str(graph["n"])] = label
    graph["n"] += 1
    v0["bags"]["0"].append(label)
    return obj


def _vortex_on_a_path(build):
    """A certificate of the class (0,1,1,0) whose base is the path 0-1-2:
    its one face, 0-1-2-1, repeats a vertex, and a vortex with perimeter
    0, 1, 2 sits on it; the model is the K1 of vertex 0."""
    base = {
        "vertices": {"0": 0, "1": 1, "2": 2},
        "edges": {"0": [0, 1], "1": [1, 2]},
        "rotations": {"0": [[0, 0]], "1": [[0, 1], [1, 0]], "2": [[1, 1]]},
    }
    vortex = {
        "graph": {"n": 3, "edges": [], "labels": {"0": 0, "1": 1, "2": 2}},
        "perimeter": [0, 1, 2],
        "bags": {"0": [0], "1": [1], "2": [2]},
    }
    return {
        "structure": {
            "base": base, "vortices": [vortex], "disc_faces": [[[0, 0], [1, 1], [2, 1], [1, 0]]],
            "apex": [], "apex_edges": [], "params": [0, 1, 1, 0],
        },
        "model": {"pattern_n": 1, "sets": {"0": [0]}, "k": 1},
        "n": 1,
        "guarantee_expr": "1/4",
    }


APEX = [{"str": "apex"}, 1]

# Inputs that each reach one refusal or one failing check, run in process:
# the command, a function of `build(point)` (the JSON `construct` writes)
# that gives the input file's JSON (None: no input file), the exit code,
# and what names the refusal: a fragment of the one stderr line for exits
# 2-4, the failing check for exit 1.
PROBES = {
    # parameters
    "construct-a-negative": (["construct", "--g", "0", "--p", "1", "--k", "2", "--a", "-1"], None, 2, "a must be >= 0"),
    "construct-p-zero": (["construct", "--g", "0", "--p", "0", "--k", "2"], None, 2, "p must be >= 1"),
    "construct-g-negative": (["construct", "--g", "-1", "--p", "1", "--k", "2"], None, 2, "g must be >= 0"),
    "construct-one-vortex-k-zero": (["construct", "--g", "1", "--p", "1", "--k", "0"], None, 2, "k must be >= 1"),
    "construct-many-vortex-k-one": (["construct", "--g", "0", "--p", "1", "--k", "1"], None, 2, "at least two hub"),
    "bounds-g-negative": (["bounds", "--g", "-1"], None, 2, "g must be a nonnegative integer"),
    # outputs into a directory that does not exist
    "construct-out-missing-dir": (["construct", "--g", "0", "--p", "1", "--k", "2", "--out", "missing/cert.json"], None, 2, "unwritable output"),
    "eta-witness-missing-dir": (["eta", "--witness", "missing/witness.json"], lambda build: {"n": 2, "edges": [[0, 1]]}, 2, "unwritable output"),
    "export-out-missing-dir": (["export", "--out", "missing/host.json"], lambda build: build((0, 1, 2, 0)), 2, "unwritable output"),
    # eta graphs
    "eta-empty-host": (["eta"], lambda build: {"n": 0, "edges": []}, 2, "unreadable graph: graph has no vertex"),
    "eta-loop": (["eta"], lambda build: {"n": 2, "edges": [[0, 0]]}, 2, "loop at 0"),
    "eta-edge-out-of-range": (["eta"], lambda build: {"n": 2, "edges": [[0, 5]]}, 2, "leaves the vertex range"),
    "eta-edge-bool": (["eta"], lambda build: {"n": 2, "edges": [[True, 0]]}, 2, "graph edges is not a list of integer pairs"),
    "eta-edge-float": (["eta"], lambda build: {"n": 2, "edges": [[0, 1.0]]}, 2, "graph edges is not a list of integer pairs"),
    "eta-above-cap": (["eta"], lambda build: {"n": 13, "edges": []}, 4, "oracle cap is 12"),
    "eta-labels-list": (["eta"], lambda build: {"n": 1, "edges": [], "labels": [0]}, 2, "graph labels is not an object"),
    "eta-labels-bad-key": (["eta"], lambda build: {"n": 2, "edges": [], "labels": {"0": 5, "x": 1}}, 2, "graph labels has a key not spelt as its index"),
    "eta-missing-n": (["eta"], lambda build: {"edges": []}, 2, "graph n is missing"),
    "eta-missing-edges": (["eta"], lambda build: {"n": 1}, 2, "graph edges is missing"),
    "eta-graph-string": (["eta"], lambda build: "nope", 2, "graph is not an object"),
    "eta-graph-integer": (["eta"], lambda build: 5, 2, "graph is not an object"),
    "eta-graph-null": (["eta"], lambda build: None, 2, "graph is not an object"),
    "eta-graph-list": (["eta"], lambda build: [1], 2, "graph is not an object"),
    # certificates refused at load
    "certificate-list": (["verify"], lambda build: [1], 2, "certificate is not an object"),
    "certificate-without-n": (["verify"], _broken((0, 1, 2, 0), lambda obj: obj.pop("n")), 2, "certificate n is missing"),
    "certificate-without-structure": (["verify"], _broken((0, 1, 2, 0), lambda obj: obj.pop("structure")), 2, "certificate structure is missing"),
    "structure-without-base": (["verify"], _broken((0, 1, 2, 0), lambda obj: obj["structure"].pop("base")), 2, "structure base is missing"),
    "structure-without-params": (["verify"], _broken((0, 1, 2, 0), lambda obj: obj["structure"].pop("params")), 2, "structure params is missing"),
    "vortices-object": (["verify"], _edited((0, 1, 2, 0), (["structure", "vortices"], lambda s: {"0": s["vortices"][0]})), 2, "structure vortices is not a list"),
    "apex-integer": (["verify"], _edited((0, 1, 2, 0), (["structure", "apex"], 5)), 2, "structure apex is not a list"),
    "vortex-without-perimeter": (["verify"], _broken((0, 1, 2, 0), lambda obj: _vortex0(obj).pop("perimeter")), 2, "vortex perimeter is missing"),
    "vortex-without-bags": (["verify"], _broken((0, 1, 2, 0), lambda obj: _vortex0(obj).pop("bags")), 2, "vortex bags is missing"),
    "vortex-graph-without-labels": (["verify"], _broken((0, 1, 2, 0), lambda obj: _vortex0(obj)["graph"].pop("labels")), 2, "vortex graph labels is missing"),
    "model-without-sets": (["verify"], _broken((0, 1, 2, 0), lambda obj: obj["model"].pop("sets")), 2, "model sets is missing"),
    "rotation-unknown-vertex": (["verify"], _edited((0, 1, 2, 0), (["structure", "base", "rotations", "999"], [])), 2, "rotation at unknown vertex 999"),
    "dart-at-wrong-vertex": (["verify"], _edited((0, 1, 2, 0), (["structure", "base", "rotations", "4", 0], [0, 1])), 2, "listed at wrong vertex 4"),
    "dart-duplicated": (["verify"], _edited((0, 1, 2, 0), (["structure", "base", "rotations", "4"], [[0, 0], [16, 0], [0, 0]])), 2, "duplicated dart (0, 0)"),
    "dart-missing": (["verify"], _edited((0, 1, 2, 0), (["structure", "base", "rotations", "4"], [[0, 0]])), 2, "missing dart (16,0)"),
    # edge 16 runs 4-5, and both of its darts move to vertex 4
    "loop-edge": (["verify"], _edited(
        (0, 1, 2, 0),
        (["structure", "base", "edges", "16"], [4, 4]),
        (["structure", "base", "rotations", "4"], [[0, 0], [16, 0], [16, 1]]),
        (["structure", "base", "rotations", "5"], [[1, 0], [17, 0]]),
    ), 2, "loop edge 16"),
    "disc-face-reversed": (["verify"], _edited((0, 1, 2, 0), (["structure", "disc_faces", 0], lambda faces: faces[0][::-1])), 2, "not a face of the stored base"),
    "disc-face-short-incidence": (["verify"], _edited((0, 1, 2, 0), (["structure", "disc_faces", 0, 0], [4])), 2, "disc_faces is not a list"),
    "disc-faces-none": (["verify"], _edited((0, 1, 2, 0), (["structure", "disc_faces"], [])), 2, "one disc face per vortex"),
    "perimeter-repeats": (["verify"], _edited((0, 1, 2, 0), (["structure", "vortices", 0, "perimeter", 1], lambda per: per[0])), 2, "perimeter repeats a vertex"),
    "apex-edge-loop": (["verify"], _edited((0, 1, 2, 1), (["structure", "apex_edges", 0], [APEX, APEX])), 2, "apex edge loop at ('apex', 1)"),
    "apex-edge-unknown-end": (["verify"], _edited((0, 1, 2, 1), (["structure", "apex_edges", 0], [APEX, {"str": "nowhere"}])), 2, "nowhere"),
    "apex-named-as-base-vertex": (["verify"], _apex_named_as_base_vertex, 2, "labels not unique"),
    "label-unknown-encoding": (["verify"], _edited((0, 1, 2, 0), (["structure", "base", "edge_labels", "0"], {"foo": 1})), 2, "unknown label encoding"),
    # vortex graph edge 2 runs 1-36
    "vortex-edge-bool": (["verify"], _edited((0, 1, 2, 0), (["structure", "vortices", 0, "graph", "edges", 2, 0], True)), 2, "graph edges is not a list of integer pairs"),
    "bag-entry-bool-member": (["verify"], _edited((0, 1, 2, 0), (["structure", "vortices", 0, "bags", "0", 0], [[1, True], 1])), 2, "unsupported label True"),
    "bag-entry-float-split-position": (["verify"], _edited((0, 1, 2, 0), (["structure", "vortices", 0, "bags", "0", 0], {"split": [[1, 1], 8.0]})), 2, "split position is not an integer"),
    "model-k-zero": (["verify"], _edited((0, 1, 2, 0), (["model", "k"], 0)), 2, "multiplicity must be >= 1"),
    # certificates that load and fail one named check
    "base-disconnected": (["verify"], lambda build: _apexes_over_isolated_vertices(2, 1), 1, "structure-base-genus"),
    "vortices-share-a-hub": (["verify"], _shared_hub, 1, "structure-vortices-disjoint"),
    "vortex-width-of-a-broken-decomposition": (["verify"], _edited((0, 1, 2, 0), (["structure", "vortices", 0, "bags", "0"], lambda bags: bags["1"])), 1, "structure-vortex-0-width"),
    "apex-edge-between-base-vertices": (["verify"], _edited((0, 1, 2, 1), (["structure", "apex_edges"], lambda s: s["apex_edges"] + [[s["base"]["vertices"]["4"], s["base"]["vertices"]["5"]]])), 1, "structure-apex-edges-touch-apex"),
    "apexes-past-declared-a": (["verify"], _edited((0, 1, 2, 1), (["structure", "params", 3], 0)), 1, "structure-apex-count"),
    "vortices-past-declared-p": (["verify"], _edited((0, 1, 2, 0), (["structure", "params", 1], 0)), 1, "structure-vortex-count"),
    # the guarantee 100*sqrt(1)/4 = 25 exceeds the target 2
    "guarantee-above-target": (["verify"], _edited((0, 1, 2, 0), (["structure", "params", 2], 100)), 1, "target-meets-guarantee"),
    # the target 6 exceeds full_upper(0, 0, 0, 0) = 5
    "target-above-upper-bound": (["verify"], _edited((1, 1, 2, 0), (["structure", "params"], [0, 0, 0, 0])), 1, "sandwich-certificate-below-upper"),
    "target-not-pattern-order": (["verify"], _edited((0, 1, 2, 0), (["n"], 1)), 1, "pattern-is-complete-of-target-order"),
    "model-set-missing": (["verify"], _edited((0, 1, 2, 0), (["model", "sets"], lambda model: {"0": model["sets"]["0"]})), 1, "model-sets-cover-pattern"),
    # base vertices 0 and 1 have no edge between them
    "model-set-disconnected": (["verify"], lambda build: _put(_apexes_over_isolated_vertices(2, 1), ["model", "sets", "0"], [0, 1]), 1, "model-sets-connected"),
    "model-sets-do-not-touch": (["verify"], lambda build: _put(_apexes_over_isolated_vertices(2, 1), ["model", "sets", "1"], [1]), 1, "model-pattern-edges-touch"),
    "model-relaxed": (["verify"], _relaxed_model, 1, "model-capacity-1"),
    "perimeter-off-the-vortex": (["verify"], _edited((0, 1, 2, 0), (["structure", "vortices", 0, "perimeter", 0], {"str": "nowhere"})), 1, "structure-vortex-0-perimeter-in-graph"),
    "vortex-vertices-in-no-bag": (["verify"], _broken((1, 2, 3, 1), _add_unbagged_vertices), 1, "structure-vortex-0-property-2-covers-vertices"),
    "perimeter-swapped": (["verify"], _broken((1, 2, 3, 1), _swap_perimeter), 1, "structure-vortex-0-property-4-consecutive"),
    "vortex-holds-another-disc-vertex": (["verify"], _base_vertex_in_vortex, 1, "structure-vortex-0-meets-base-in-perimeter"),
    "disc-faces-exchanged": (["verify"], _edited((0, 4, 2, 0), (["structure", "disc_faces"], lambda s: s["disc_faces"][::-1])), 1, "structure-vortex-0-perimeter-matches-disc"),
    "disc-face-not-a-cycle": (["verify"], _vortex_on_a_path, 1, "structure-vortex-0-disc-is-face"),
    # edgeless bases lie on the sphere
    "base-one-vertex-no-edge": (["verify"], lambda build: _apexes_over_isolated_vertices(1, 1), 0, None),
    "base-empty": (["verify"], lambda build: _apexes_over_isolated_vertices(0, 2), 0, None),
}


def run_probe(tmp_path, capsys, case):
    """`main` on the probe `case`, run in `tmp_path` so that a relative
    output path lands there: its exit code, stdout and stderr."""
    command, make, _, _ = PROBES[case]
    argv = list(command)
    if make is not None:
        path = tmp_path / "input.json"
        obj = make(lambda point: _construct(tmp_path, capsys, point))
        path.write_text(json.dumps(obj))
        argv.append(str(path))
    with contextlib.chdir(tmp_path):
        return run(argv, capsys)


@pytest.mark.parametrize("case", sorted(PROBES))
def test_probe_exit_code(tmp_path, capsys, case):
    code, out, err = run_probe(tmp_path, capsys, case)
    _, _, expected, named = PROBES[case]
    assert code == expected, (out, err)
    if code == 0:
        assert err == "" and json.loads(out)["ok"] is True
    elif code == 1:
        assert err == ""
        assert named in [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    else:
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and named in err, err


def test_verify_unorderable_hub_labels_exit_2(tmp_path, capsys):
    # two hubs of a (1,1,2,0) vortex, each held by a run of bags, renamed to
    # null and 999 and dropped from their middle bags: both break property 4,
    # whose witnesses are sorted by label
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "1", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    v = obj["structure"]["vortices"][0]
    for hub, name in (([1, 1], None), ([2, 1], 999)):
        held = sorted(int(pos) for pos, bag in v["bags"].items() if hub in bag)
        assert len(held) >= 3
        v["graph"]["labels"] = {i: name if lab == hub else lab for i, lab in v["graph"]["labels"].items()}
        for pos, bag in v["bags"].items():
            if int(pos) != held[len(held) // 2]:
                v["bags"][pos] = [name if lab == hub else lab for lab in bag]
            else:
                v["bags"][pos] = [lab for lab in bag if lab != hub]
    cert.write_text(json.dumps(obj))
    code, out, err = run(["verify", str(cert)], capsys)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1


def _child_env():
    """The environment for a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(hadwiger.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_verify_stdout_does_not_depend_on_the_hash_seed(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "1", "--p", "2", "--k", "3", "--a", "1", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    _add_unbagged_vertices(obj)
    cert.write_text(json.dumps(obj))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "hadwiger.cli", "verify", str(cert)],
            env=dict(_child_env(), PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=60,
        )
        for seed in ("1", "2")
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == 1
    checks = {c["name"]: c for c in json.loads(runs[0].stdout)["checks"]}
    assert checks["structure-vortex-0-property-2-covers-vertices"]["witness"] == repr(UNBAGGED)


def _cli_in_child(argv):
    """`hadwiger argv` in a child process whose address space is capped at
    1 GiB, so that allocating a declared n fails fast instead of filling
    the machine."""
    return subprocess.run(
        [sys.executable, "-m", "hadwiger.cli", *argv],
        env=_child_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


def test_eta_refuses_huge_declared_n_before_allocating(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**8, "edges": []}))
    done = _cli_in_child(["eta", str(path)])
    assert done.returncode == 4
    assert done.stderr == f"budget: host has {10**8} vertices, oracle cap is 12\n"


@pytest.mark.parametrize("pattern_n, code", [(16, 0), (160, 1), (1600, 2), (3840, 2)])
def test_verify_refuses_a_pattern_with_more_edges_than_the_host(tmp_path, capsys, pattern_n, code):
    # the (0,16,4,0) host has fewer than 1600*1599/2 edges, so K_1600 and
    # K_3840 have no classical model in it and are refused before K_t is built
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "16", "--k", "4", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    assert obj["model"]["pattern_n"] == 16
    obj["model"]["pattern_n"] = pattern_n
    cert.write_text(json.dumps(obj))
    done = _cli_in_child(["verify", str(cert)])
    assert done.returncode == code
    if code == 2:
        assert done.stdout == ""
        assert "edges" in done.stderr and len(done.stderr.strip().splitlines()) == 1


def test_verify_rejects_vortex_graph_without_a_label_per_vertex(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    obj["structure"]["vortices"][0]["graph"].update(n=10**8, labels={})
    cert.write_text(json.dumps(obj))
    done = _cli_in_child(["verify", str(cert)])
    assert done.returncode == 2
    assert done.stdout == ""
    assert "one label per vertex" in done.stderr


def test_verify_refuses_a_bag_entry_that_names_no_vertex(tmp_path, capsys):
    # the declared k is raised with the bag, so only the entry is at fault
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "1", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    obj["structure"]["params"][2] = 3
    obj["structure"]["vortices"][0]["bags"]["0"].append({"str": "nowhere"})
    cert.write_text(json.dumps(obj))
    code, out, err = run(["verify", str(cert)], capsys)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert "names no vertex of its graph" in err


# Nested deeper than decoding can recurse: the whole file, or a label in it.
DEEP_TEXT = "[" * 10**5
DEEP_LABEL = "[" * 900 + "]" * 900


@pytest.mark.parametrize("command", ["verify", "eta", "export"])
def test_deep_nesting_exits_2(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    if command == "eta":
        obj = {"n": 1, "edges": [], "labels": {"0": "DEEP"}}
    else:
        run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(path)], capsys)
        obj = json.loads(path.read_text())
        obj["structure"]["apex"] = ["DEEP"]
    for text in (DEEP_TEXT, json.dumps(obj).replace('"DEEP"', DEEP_LABEL)):
        path.write_text(text)
        code, out, err = run([command, str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


def test_verify_checks_model_at_multiplicity_1(tmp_path, capsys):
    code, out, err = run_probe(tmp_path, capsys, "model-relaxed")
    assert (code, err) == (1, "")
    assert [c["name"] for c in json.loads(out)["checks"] if not c["ok"]] == ["model-capacity-1"]


# guarantee_expr is display-only: verify recomputes the guarantee from params.
DISPLAY_EXPRS = {
    "expr-code": "__import__('os').mkdir({marker!r})",
    "expr-symbol": "x",
}


@pytest.mark.parametrize("case", sorted(DISPLAY_EXPRS))
def test_verify_never_evaluates_guarantee_expr(tmp_path, capsys, case):
    marker = tmp_path / "evaluated"
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    obj["guarantee_expr"] = DISPLAY_EXPRS[case].format(marker=str(marker))
    cert.write_text(json.dumps(obj))
    code, out, _ = run(["verify", str(cert)], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True
    assert not marker.exists()


@pytest.mark.parametrize("p, shown", [(10**40 + 7, "(14400000000000000000000.0000)"), (10**700, "(inf)")])
def test_verify_huge_params_exits_1(tmp_path, capsys, p, shown):
    # the guarantee of huge declared params is computed in bounded time, and
    # a value past the largest double shows as inf
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    obj["structure"]["params"] = [0, p, 2, 0]
    cert.write_text(json.dumps(obj))
    code, out, err = run(["verify", str(cert)], capsys)
    assert (code, err) == (1, "")
    assert shown in out


def test_verify_missing_guarantee_expr_exits_2(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "0", "--p", "1", "--k", "2", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    del obj["guarantee_expr"]
    cert.write_text(json.dumps(obj))
    code, out, err = run(["verify", str(cert)], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


# In a fresh interpreter: run `main(argv)` unless argv is None, then write the
# exit code and whether sympy was imported to the file named first.
FRESH = """
import json, sys
from hadwiger.cli import main
argv = json.loads(sys.argv[2])
code = None if argv is None else main(argv)
with open(sys.argv[1], "w") as f:
    json.dump([code, "sympy" in sys.modules], f)
"""


def _argv(case, tmp_path, capsys):
    if case == "import":
        return None
    if case == "eta":
        path = tmp_path / "k5.json"
        path.write_text(serialize.dumps(serialize.graph_to_json(graphs.complete_graph(5))))
        return ["eta", str(path)]
    if case == "bounds":
        return ["bounds", "--g", "1", "--p", "5", "--k", "3", "--a", "1"]
    cert = str(tmp_path / "cert.json")
    construct = ["construct", "--g", "0", "--p", "1", "--k", "2", "--out", cert]
    if case == "construct":
        return construct
    run(construct, capsys)
    if case == "verify":
        return ["verify", cert]
    if case == "export":
        return ["export", cert, "--out", str(tmp_path / "host.json")]
    obj = json.loads((tmp_path / "cert.json").read_text())
    obj["n"] = "2"
    (tmp_path / "cert.json").write_text(json.dumps(obj))
    return ["verify", cert]


# (exit code, sympy loaded): exact bounds are plain integer arithmetic, so no
# command loads sympy
STARTUP = {
    "import": (None, False),
    "eta": (0, False),
    "verify-rejected": (2, False),
    "construct": (0, False),
    "verify": (0, False),
    "bounds": (0, False),
    "export": (0, False),
}


@pytest.mark.parametrize("case", sorted(STARTUP))
def test_startup_loads_sympy_only_for_guarantees(tmp_path, capsys, case):
    argv = _argv(case, tmp_path, capsys)
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, "-c", FRESH, str(result), json.dumps(argv)],
        env=_child_env(), check=True, capture_output=True, timeout=120,
    )
    assert tuple(json.loads(result.read_text())) == STARTUP[case]


# ------------------------------------------------------------ failure reports

# SHA-256 of `verify` stdout on broken (1,2,3,1) certificates, recorded
# before vortex validation and flattening ran on vertex indices, and
# re-pinned when the three entries that could never fail on their own
# (model-host-is-flattened-structure, structure-apex-disjoint-from-structure,
# sandwich-lower-guarantee-met) left the report; nothing else changed
FAILURE_REPORTS = {
    "perimeter-swap": (_swap_perimeter, "27838f353f9467b1edb66553dceda788114d1bd3fc6625258be1d47b314dbef2"),
    "outside-own-bag": (_drop_from_own_bag, "e6a17abac2ac106ee5d61c52d6464deda9b96f481baaae220a333e1404f7bba0"),
    "edge-without-bag": (_edge_without_bag, "37e6380597233bf3b20fca42f28b82ef16a5882e8c006225a2649531e249a52f"),
}


@pytest.mark.parametrize("case", sorted(FAILURE_REPORTS))
def test_verify_failure_report_pinned(tmp_path, capsys, case):
    breaker, digest = FAILURE_REPORTS[case]
    cert = tmp_path / "cert.json"
    run(["construct", "--g", "1", "--p", "2", "--k", "3", "--a", "1", "--out", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    breaker(obj)
    cert.write_text(json.dumps(obj))
    code, out, err = run(["verify", str(cert)], capsys)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------------ README

def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # every line of the sh block under "## CLI", in order, in one directory
    # that holds a small graph.json
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as f:
        section = f.read().split("\n## CLI\n", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    assert lines
    (tmp_path / "graph.json").write_text(serialize.dumps(serialize.graph_to_json(graphs.complete_graph(4))))
    monkeypatch.chdir(tmp_path)
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "hadwiger", line
        assert run(argv, capsys)[0] == 0, line
