import json
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dot_reader

from hadwiger import constructions, embeddings, graphs, minors, serialize, vortex
from hadwiger.graphs import Split


def test_label_round_trip():
    labels = [3, "apex", (1, 2), ((1, 1), 2), Split((1, 1), 3), Split(0, 1)]
    for lab in labels:
        assert serialize.label_from_json(serialize.label_to_json(lab)) == lab


def recursive_label_to_json(label):
    """The label encoder as it stood before ints were copied in place: one
    call per member, at every depth."""
    if isinstance(label, Split):
        return {"split": [recursive_label_to_json(label.owner), label.position]}
    if isinstance(label, tuple):
        return [recursive_label_to_json(x) for x in label]
    if isinstance(label, str):
        return {"str": label}
    if isinstance(label, (int, bool)):
        return label
    raise TypeError(f"unsupported label type {type(label)}")


def typed(label):
    """A label with the type of every member spelt out, so that a bool and
    an int that compare equal do not."""
    if isinstance(label, Split):
        return ("Split", typed(label.owner), typed(label.position))
    if isinstance(label, tuple):
        return ("tuple", tuple(typed(x) for x in label))
    return (type(label).__name__, label)


# labels as the builders make them: ints, strings, tuples and splits (a bool
# is not a label, since JSON could not tell it from an int)
LABELS = st.recursive(
    st.integers(-(2**70), 2**70) | st.integers(-3, 3) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.builds(Split, inner, st.integers(0, 9)),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(LABELS)
def test_label_codec_round_trips_with_types_at_every_depth(label):
    obj = serialize.label_to_json(label)
    assert json.dumps(obj) == json.dumps(recursive_label_to_json(label))
    back = serialize.label_from_json(json.loads(json.dumps(obj)))
    assert back == label
    assert typed(back) == typed(label)


# the accepted label encodings: ints, lists, {"str": ...} and {"split": ...}
JSON_LABELS = st.recursive(
    st.integers(-3, 3) | st.builds(lambda x: {"str": x}, st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=3)
    | st.builds(lambda x, p: {"split": [x, p]}, inner, st.integers(0, 9)),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_LABELS, JSON_LABELS, st.integers(0, 9))
def test_no_decoded_label_equals_a_split_unless_it_is_one(obj, owner, position):
    label = serialize.label_from_json(obj)
    splits = [Split(serialize.label_from_json(owner), position)]
    if isinstance(label, tuple) and len(label) in (2, 3):
        # the members of a plain tuple, put in a Split
        splits.append(Split(*label[-2:]))
    for split in splits:
        same = isinstance(label, Split) and (label.owner, label.position) == (split.owner, split.position)
        assert (label == split) is same
        assert (split != label) is not same


# any JSON value, with label-like objects drawn often
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text("ab", max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["str", "split", "x"]), inner, max_size=2)
    | st.builds(lambda x, p: {"split": [x, p]}, inner, inner),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES, JSON_VALUES)
def test_each_label_has_one_json_encoding(a, b):
    labels = []
    for obj in (a, b):
        try:
            labels.append(serialize.label_from_json(obj))
        except (ValueError, TypeError):
            continue
        assert json.dumps(serialize.label_to_json(labels[-1])) == json.dumps(obj)
    if len(labels) == 2 and labels[0] == labels[1]:
        assert json.dumps(a) == json.dumps(b)


def test_label_table_keys_equal_values_built_apart_alike():
    # marshal version 4 would key both pairs apart: an interned string
    # against a fresh one, and a shared sublist against an equal copy
    decode = serialize.label_table()
    fresh = "".join(["ap", "ex"])
    assert fresh is not sys.intern("apex")
    shared = [1, 2]
    for a, b in (([{"str": sys.intern("apex")}], [{"str": fresh}]), ([shared, shared], [[1, 2], [1, 2]])):
        # a hit hands back the tuple decoded for `a`, a miss a new one
        assert decode(b) is decode(a)


@example([1], [True])
@example([1], [1.0])
@example([{"str": "a"}], ["a"])
@example([2**70], [2**70 + 1])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES, JSON_VALUES)
def test_label_table_decodes_and_refuses_as_label_from_json(a, b):
    decode = serialize.label_table()
    for obj in (a, b, a):
        try:
            label = serialize.label_from_json(obj)
        except (ValueError, TypeError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                decode(obj)
        else:
            assert typed(decode(obj)) == typed(label)


def _label_entries(structure):
    """Every label entry of a parsed structure, at each place format 1
    spells one out."""
    yield from structure["base"]["vertices"].values()
    yield from structure["base"].get("edge_labels", {}).values()
    for v in structure["vortices"]:
        yield from v["graph"]["labels"].values()
        yield from v["perimeter"]
        for bag in v["bags"].values():
            yield from bag
    yield from structure["apex"]
    for edge in structure["apex_edges"]:
        yield from edge


@pytest.mark.parametrize("point", [(1, 2, 3, 1), (2, 4, 4, 0), (0, 16, 4, 0)])
def test_certificate_load_decodes_each_distinct_label_once(monkeypatch, point):
    obj = json.loads(serialize.dumps(serialize.certificate_to_json(constructions.with_apex(*point))))
    entries = [x for x in _label_entries(obj["structure"]) if type(x) is not int]
    distinct = {json.dumps(x) for x in entries}
    assert len(distinct) < len(entries)
    decode, depth, calls = serialize.label_from_json, [0], [0]

    def counting(x):
        # the decoder's recursion on members comes back through this name
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return decode(x)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(serialize, "label_from_json", counting)
    serialize.certificate_from_json(obj)
    assert calls[0] == len(distinct)


def _with_members(code):
    """A label's encoding and, at every depth, those of a Split's owner and
    of a tuple's members; ints left out."""
    if type(code) is int:
        return
    yield code
    if type(code) is list:
        for x in code:
            yield from _with_members(x)
    elif "split" in code:
        yield from _with_members(code["split"][0])


@pytest.mark.parametrize("point", [(1, 2, 3, 1), (2, 4, 4, 0), (0, 16, 4, 0)])
def test_certificate_dump_encodes_each_distinct_label_once(monkeypatch, point):
    cert = constructions.with_apex(*point)
    obj = json.loads(serialize.dumps(serialize.certificate_to_json(cert)))
    entries = [x for x in _label_entries(obj["structure"]) if type(x) is not int]
    distinct = {json.dumps(code) for x in entries for code in _with_members(x)}
    assert len(distinct) < len(entries)
    encode, calls = serialize.label_to_json, [0]

    def counting(label, *args):
        # an owner or member is encoded through this name too, and counted
        # once whether it is met inside a label or as one
        calls[0] += 1
        return encode(label, *args)

    monkeypatch.setattr(serialize, "label_to_json", counting)
    serialize.certificate_to_json(cert)
    assert calls[0] == len(distinct)


def test_graph_round_trip():
    g = graphs.lex_product(graphs.grid_graph(2), 2)
    back = serialize.graph_from_json(serialize.graph_to_json(g))
    assert back.labels == g.labels
    assert back.edges() == g.edges()


def test_graph_to_dot_mentions_every_edge():
    g = graphs.complete_graph(3)
    dot = serialize.graph_to_dot(g)
    assert dot.count("--") == 3


def test_graph_to_dot_quotes_every_label():
    labels = ('x"]; injected [shape=box', "back\\", '\\"', ("t", 1), 7)
    g = graphs.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], labels)
    nodes, edges = dot_reader.read_graph(serialize.graph_to_dot(g))
    assert nodes == [(str(i), {"label": str(lab)}) for i, lab in enumerate(labels)]
    assert edges == [(str(u), str(v)) for u, v in g.edges()]


def test_embedding_round_trip_preserves_faces():
    emb = embeddings.triangulation_catalog(6)
    back = serialize.embedding_from_json(serialize.embedding_to_json(emb))
    assert embeddings.euler_genus(back) == 1
    assert len(embeddings.trace_faces(back)) == len(embeddings.trace_faces(emb))


def test_certificate_round_trip_reverifies():
    cert = constructions.with_apex(1, 1, 2, 1)
    text = serialize.dumps(serialize.certificate_to_json(cert))
    back = serialize.certificate_from_json(json.loads(text))
    assert back.target == cert.target
    assert back.guarantee == cert.guarantee
    assert constructions.verify_certificate(back).ok


def test_dumps_is_deterministic():
    cert = constructions.with_apex(0, 1, 2, 0)
    a = serialize.dumps(serialize.certificate_to_json(cert))
    b = serialize.dumps(serialize.certificate_to_json(constructions.with_apex(0, 1, 2, 0)))
    assert a == b


def test_model_round_trip():
    model = constructions.grid_model(2, 1)
    obj = serialize.model_to_json(model)
    back = serialize.model_from_json(obj, model.host)
    assert back.branch_sets == model.branch_sets
    assert minors.verify_model(back).ok


@pytest.mark.parametrize("member", [True, 1.0, "0"])
def test_model_sets_refuse_a_member_that_is_no_integer(member):
    obj = {"pattern_n": 2, "sets": {"0": [0], "1": [1, member]}, "k": 1}
    with pytest.raises(ValueError, match="model sets is not an object of integer lists"):
        serialize.model_from_json(obj, graphs.complete_graph(3))


def test_model_to_json_writes_only_complete_patterns():
    # the grid's own pattern has no encoding: a file's model is always one
    # of K_pattern_n
    grid = graphs.grid_graph(2)
    model = minors.MinorModel(grid, grid, {x: frozenset({x}) for x in range(grid.n)}, 1)
    assert minors.verify_model(model).ok
    with pytest.raises(ValueError):
        serialize.model_to_json(model)


def test_vortex_round_trip():
    structure, _ = constructions.construct_vortex_graph(
        embeddings.triangulation_catalog(3), [embeddings.trace_faces(embeddings.triangulation_catalog(3))[0]], 2, (0, 1, 2, 0)
    )
    v = structure.vortices[0]
    back = serialize.vortex_from_json(serialize.vortex_to_json(v))
    assert back.perimeter == v.perimeter
    assert back.bags == v.bags
    assert vortex.validate_circular(back).ok


def reference_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def reference_graph(g):
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "labels": {str(i): recursive_label_to_json(lab) for i, lab in enumerate(g.labels)},
    }


def reference_vortex(v):
    """A vortex as the format defines it: every label encoded where it
    occurs, and each bag as the labels of its vertices, in the order of
    their `json.dumps` text."""
    return {
        "graph": reference_graph(v.graph),
        "perimeter": [recursive_label_to_json(lab) for lab in v.perimeter],
        "bags": {
            str(pos): sorted((recursive_label_to_json(v.graph.labels[u]) for u in bag), key=json.dumps)
            for pos, bag in enumerate(v.bags)
        },
    }


def reference_certificate(cert):
    a, enc = cert.structure, recursive_label_to_json
    emb, model = a.base, cert.model
    obj = {
        "structure": {
            "base": {
                "vertices": {str(v): enc(lab) for v, lab in emb.vertex_labels.items()},
                "edges": {str(e): list(edge.ends) for e, edge in emb.edges.items()},
                "rotations": {str(v): [list(d) for d in rot] for v, rot in emb.rotation.items()},
                "signatures": {str(e): edge.sign for e, edge in emb.edges.items() if edge.sign != 1},
                "edge_labels": {
                    str(e): enc(edge.label) for e, edge in emb.edges.items() if edge.label is not None
                },
            },
            "vortices": [reference_vortex(v) for v in a.vortices],
            "disc_faces": [[list(inc) for inc in walk.incidences] for walk in a.disc_faces],
            "apex": [enc(lab) for lab in a.apex],
            "apex_edges": [[enc(x), enc(y)] for x, y in a.apex_edges],
            "params": list(a.params),
        },
        "model": {
            "pattern_n": model.pattern.n,
            "sets": {str(x): sorted(s) for x, s in model.branch_sets.items()},
            "k": model.multiplicity,
        },
        "n": cert.target,
        "guarantee_expr": str(cert.guarantee),
        "guarantee_float": float(cert.guarantee),
    }
    assert model.pattern.m == model.pattern.n * (model.pattern.n - 1) // 2
    return obj


def test_certificates_match_the_reference_writer():
    from test_acceptance import GRID, grid_certificate

    for point in GRID:
        cert = grid_certificate(*point)
        text = serialize.dumps(serialize.certificate_to_json(cert))
        assert text == reference_dumps(reference_certificate(cert)), point


def test_vortex_of_mixed_labels_matches_the_reference_writer():
    # ints, strings, nested tuples and splits with multi-digit members, where
    # JSON-text order is not numeric order: [[1,10],1] sorts before [[1,1],1];
    # a label outside the graph only ever lies on the perimeter
    labels = (
        10, 9, "ab", "a", (1, 10), ((1, 10), 1), ((1, 1), 1), Split((1, 1), 12), Split(4, 2),
        (2, (3, "x")), Split((1, 1), 2), (1, 1), 100,
    )
    graph = graphs.from_edges(len(labels), [(i, i + 1) for i in range(len(labels) - 1)], labels)
    perimeter = (((1, 10), 1), 10, Split(4, 2), "outside")
    bags = tuple(
        frozenset(map(graph.index_of, bag))
        for bag in (
            labels[:6],
            [10, ((1, 1), 1), ((1, 10), 1), Split((1, 1), 12)],
            [Split(4, 2), Split((1, 1), 2), (1, 1), 100],
            ["ab", (2, (3, "x"))],
        )
    )
    v = vortex.Vortex(graph, perimeter, bags)
    text = serialize.dumps(serialize.vortex_to_json(v))
    assert text == reference_dumps(reference_vortex(v))
    bag = json.loads(text)["bags"]["1"]
    assert bag.index([[1, 10], 1]) < bag.index([[1, 1], 1])
    assert json.loads(text)["bags"]["2"][0] == 100


def test_dumps_still_refuses_a_cyclic_tree():
    obj = {"a": []}
    obj["a"].append(obj)
    with pytest.raises(RecursionError):
        serialize.dumps(obj)
