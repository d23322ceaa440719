"""JSON and DOT serialization.

`SHAPES` lists, for each kind of object the loaders read, the fields they
read and the shape of each.  Index keys are spelt as `str(index)` ("7", not
"07" or "+7") and name something (model `sets` keys < pattern_n;
`signatures` and `edge_labels` keys in `edges`); `labels` and `bags` hold
one entry per vertex and per perimeter position, and a bag entry is the
label of a vertex of its vortex graph.  A model is always a model of the
complete graph K_pattern_n, so it lists no pattern edges.  A certificate's
model is loaded as a multiplicity-1 (classical) model: its `k` must be an
integer of at least 1 and is otherwise ignored.

A certificate's labels are decoded once each, through one table keyed by
`marshal.dumps(value, 2)` of the parsed JSON (`label_table`): version 2
writes no back-references and no interned-string flag, so equal values give
equal keys, where version 4 would key a shared sublist or an interned string
apart from an equal copy.

All output is key-sorted so identical inputs give byte-identical files.
"""
from __future__ import annotations

import json
import marshal
from itertools import chain

from . import graphs
from .embeddings import EmbEdge, MultiEmbedding, face_through
from .graphs import SimpleGraph, Split

# built once, with no cycle check: each `*_to_json` tree is fresh and acyclic
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


# ---------------------------------------------------------------- shapes

# Each kind's fields, in the order they are checked, and the shape of each;
# a field marked "?" may be left out.  Fields a row does not name are ignored.
SHAPES = {
    "graph": {"n": "a nonnegative integer", "edges": "a list of integer pairs", "labels?": "an object"},
    "embedding": {
        "edges": "an object of integer pairs", "signatures?": "an object of integers",
        "edge_labels?": "an object", "vertices": "an object",
        "rotations": "an object of lists of integer pairs",
    },
    "vortex": {"graph": "an object", "perimeter": "a list", "bags": "an object of lists"},
    "structure": {
        "params": "a list of 4 nonnegative integers", "base": "an object",
        "disc_faces": "a list of lists of integer pairs", "vortices": "a list", "apex": "a list",
        "apex_edges": "a list of pairs",
    },
    "model": {"pattern_n": "an integer", "k?": "an integer", "sets": "an object of integer lists"},
    "certificate": {
        "n": "an integer", "structure": "an object", "model": "an object", "guarantee_expr": "any value",
    },
}

# JSON gives lists; a `*_to_json` tree in memory gives tuples
_LISTS = {list, tuple}


# Each test runs in C over all members at once, never a Python call per member.
def _all(xs, types=frozenset({int})) -> bool:
    """Whether the type of every member of `xs` is one of `types`, integers unless given."""
    return set(map(type, xs)) <= types


def _pairs(xs) -> bool:
    return _all(xs, _LISTS) and set(map(len, xs)) <= {2}


def _int_pairs(xs) -> bool:
    return _pairs(xs) and _all(chain.from_iterable(xs))


def _lists_of(xs, test) -> bool:
    """Whether every member of `xs` is a list, and `test` holds of all their members."""
    return _all(xs, _LISTS) and test(list(chain.from_iterable(xs)))


_TESTS = {
    "any value": lambda x: True,
    "an integer": lambda x: type(x) is int,
    "a nonnegative integer": lambda x: type(x) is int and x >= 0,
    "an object": lambda x: type(x) is dict,
    "an object of integers": lambda x: type(x) is dict and _all(x.values()),
    "an object of lists": lambda x: type(x) is dict and _all(x.values(), _LISTS),
    "an object of integer lists": lambda x: type(x) is dict and _lists_of(x.values(), _all),
    "an object of integer pairs": lambda x: type(x) is dict and _int_pairs(x.values()),
    "an object of lists of integer pairs": lambda x: type(x) is dict and _lists_of(x.values(), _int_pairs),
    "a list": lambda x: type(x) in _LISTS,
    "a list of pairs": lambda x: type(x) in _LISTS and _pairs(x),
    "a list of integer pairs": lambda x: type(x) in _LISTS and _int_pairs(x),
    "a list of lists of integer pairs": lambda x: type(x) in _LISTS and _lists_of(x, _int_pairs),
    "a list of 4 nonnegative integers": lambda x: type(x) in _LISTS and len(x) == 4 and _all(x) and min(x) >= 0,
}


def check_shape(kind: str, obj) -> dict:
    """`obj`, refused unless it is an object whose fields have the shapes of its
    `SHAPES` row: "<kind> <field> is missing" or "<kind> <field> is not <shape>"."""
    _require(type(obj) is dict, f"{kind} is not an object")
    for field, shape in SHAPES[kind].items():
        name = field.removesuffix("?")
        if name not in obj:
            if name == field:
                raise ValueError(f"{kind} {name} is missing")
        elif not _TESTS[shape](obj[name]):
            raise ValueError(f"{kind} {name} is not {shape}")
    return obj


def _require(ok: bool, message: str):
    """Refuse malformed input before any object is built from it."""
    if not ok:
        raise ValueError(message)


def _keyed(obj: dict, what: str) -> dict:
    """A JSON object keyed by integer strings, rekeyed by the integers; a key
    that is not `str` of an integer, such as "x", "07", "+4" or " 4", is
    refused."""
    # a key left out here is refused below, as is every misspelt one
    out = {int(k): v for k, v in obj.items() if k.removeprefix("-").isdecimal()}
    _require(obj.keys() == set(map(str, out)), f"{what} has a key not spelt as its index")
    return out


# ---------------------------------------------------------------- labels

def label_to_json(label):
    # int members, the bulk of every label, are copied without a call
    if type(label) is int:
        return label
    if isinstance(label, Split):
        return {"split": [label_to_json(label.owner), label.position]}
    if isinstance(label, tuple):
        return [x if type(x) is int else label_to_json(x) for x in label]
    if isinstance(label, str):
        return {"str": label}
    raise TypeError(f"unsupported label type {type(label)}")


def label_from_json(obj):
    if type(obj) is int:
        return obj
    if isinstance(obj, list):
        return tuple([x if type(x) is int else label_from_json(x) for x in obj])
    if isinstance(obj, dict):
        if len(obj) == 1:
            if "split" in obj:
                split = obj["split"]
                _require(type(split) is list and len(split) == 2, "split label is not a two-item list")
                owner, pos = split
                _require(type(pos) is int, "split position is not an integer")
                return Split(label_from_json(owner), pos)
            if "str" in obj:
                _require(isinstance(obj["str"], str), "str label is not a string")
                return obj["str"]
        raise ValueError(f"unknown label encoding {obj}")
    # one encoding per label: a float or null could not be written back, a
    # bool would alias an int, and a bare string its {"str": ...} form
    raise ValueError(f"unsupported label {obj!r}")


def label_table():
    """`label_from_json` run once per distinct encoding: a repeat costs one
    `marshal.dumps` and a dict hit, and a miss is `label_from_json`'s own
    decode or refusal.  Parsed JSON nests too shallowly to reach marshal's
    depth limit."""
    table = {}

    def decode(obj):
        if type(obj) is int:
            return obj
        key = marshal.dumps(obj, 2)
        label = table.get(key)
        if label is None:
            label = table[key] = label_from_json(obj)
        return label

    return decode


# ---------------------------------------------------------------- graphs

def graph_to_json(g: SimpleGraph) -> dict:
    return {
        "n": g.n,
        "edges": g.edges(),
        "labels": {str(i): label_to_json(lab) for i, lab in enumerate(g.labels)},
    }


def graph_from_json(obj: dict, label=label_from_json) -> SimpleGraph:
    n = check_shape("graph", obj)["n"]
    labels = None
    if "labels" in obj:
        keyed = _keyed(obj["labels"], "graph labels")
        # counted first, so that n is allocated only for a file that holds n labels
        ok = len(keyed) == n and keyed.keys() == set(range(n))
        _require(ok, "graph does not carry one label per vertex 0..n-1")
        labels = tuple(label(keyed[i]) for i in range(n))
    return graphs.from_edges(n, obj["edges"], labels)


def graph_to_dot(g: SimpleGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for i, lab in enumerate(g.labels):
        # escape quotes, and double backslashes so none escapes the closing quote
        text = str(lab).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {i} [label="{text}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- embeddings

def embedding_to_json(emb: MultiEmbedding) -> dict:
    return {
        "vertices": {str(v): label_to_json(lab) for v, lab in emb.vertex_labels.items()},
        # tuples are written as arrays, so ends and darts go in uncopied
        "edges": {str(e): edge.ends for e, edge in emb.edges.items()},
        "rotations": {str(v): rot for v, rot in emb.rotation.items()},
        "signatures": {str(e): edge.sign for e, edge in emb.edges.items() if edge.sign != 1},
        "edge_labels": {
            str(e): label_to_json(edge.label)
            for e, edge in emb.edges.items()
            if edge.label is not None
        },
    }


def embedding_from_json(obj: dict, label=label_from_json) -> MultiEmbedding:
    check_shape("embedding", obj)
    ends = _keyed(obj["edges"], "embedding edges")
    signatures = _keyed(obj.get("signatures", {}), "embedding signatures")
    edge_labels = _keyed(obj.get("edge_labels", {}), "embedding edge_labels")
    _require(signatures.keys() | edge_labels.keys() <= ends.keys(), "signatures or edge_labels name no edge")
    edge_labels = {e: label(lab) for e, lab in edge_labels.items()}
    edges = {e: EmbEdge(e, (u, v), signatures.get(e, 1), edge_labels.get(e)) for e, (u, v) in ends.items()}
    labels = {v: label(lab) for v, lab in _keyed(obj["vertices"], "embedding vertices").items()}
    rotations = _keyed(obj["rotations"], "embedding rotations")
    rotation = {v: tuple(map(tuple, rot)) for v, rot in rotations.items()}
    return MultiEmbedding(labels, edges, rotation)


# ---------------------------------------------------------------- vortices

def vortex_to_json(v) -> dict:
    graph = graph_to_json(v.graph)
    codes = list(graph["labels"].values())
    # each bag in the JSON-text order of its labels, one text per vertex
    texts = [_ENCODER.encode(code) for code in codes]
    index = v.graph.label_index
    return {
        "graph": graph,
        # a valid vortex's perimeter lies in its graph; a label outside it is encoded afresh
        "perimeter": [codes[index[lab]] if lab in index else label_to_json(lab) for lab in v.perimeter],
        "bags": {
            str(pos): [codes[u] for u in sorted(bag, key=texts.__getitem__)]
            for pos, bag in enumerate(v.bags)
        },
    }


def vortex_from_json(obj: dict, label=label_from_json):
    from .vortex import Vortex

    check_shape("vortex", obj)
    # its labels tie the graph's declared n to the file's size before n
    # vertices are allocated
    _require("labels" in obj["graph"], "vortex graph labels is missing")
    graph = graph_from_json(obj["graph"], label)
    perimeter = tuple(map(label, obj["perimeter"]))
    positions = list(map(str, range(len(perimeter))))
    _require(obj["bags"].keys() == set(positions), "vortex bags do not match its perimeter")
    index = graph.label_index
    bags = tuple(frozenset(map(index.get, map(label, obj["bags"][pos]))) for pos in positions)
    _require(not any(None in bag for bag in bags), "a vortex bag entry names no vertex of its graph")
    return Vortex(graph, perimeter, bags)


def structure_to_json(a) -> dict:
    # an apex ends most apex edges: each end is encoded once
    codes = {lab: label_to_json(lab) for lab in {*a.apex, *chain.from_iterable(a.apex_edges)}}
    return {
        "base": embedding_to_json(a.base),
        "vortices": [vortex_to_json(v) for v in a.vortices],
        "disc_faces": [walk.incidences for walk in a.disc_faces],
        "apex": [codes[lab] for lab in a.apex],
        "apex_edges": [[codes[x], codes[y]] for x, y in a.apex_edges],
        "params": a.params,
    }


def _face_with_incidences(base: MultiEmbedding, key: tuple):
    """The facial walk of `base` whose incidences are `key`.  A traced walk
    starts at its first incidence's dart, on one of the dart's two sides."""
    if key:
        v, e = key[0]
        edge = base.edges.get(e)
        if edge is not None and v in edge.ends:
            for side in (1, -1):
                walk = face_through(base, (e, edge.ends.index(v), side))
                if walk.incidences == key:
                    return walk
    raise ValueError("disc face is not a face of the stored base embedding")


def structure_from_json(obj: dict):
    from .vortex import AlmostEmbeddable

    check_shape("structure", obj)
    label = label_table()
    base = embedding_from_json(obj["base"], label)
    disc_faces = tuple(_face_with_incidences(base, tuple(map(tuple, inc))) for inc in obj["disc_faces"])
    return AlmostEmbeddable(
        base=base,
        vortices=tuple(vortex_from_json(v, label) for v in obj["vortices"]),
        disc_faces=disc_faces,
        apex=tuple(map(label, obj["apex"])),
        apex_edges=tuple((label(x), label(y)) for x, y in obj["apex_edges"]),
        params=tuple(obj["params"]),
    )


# ---------------------------------------------------------------- models

def model_to_json(model) -> dict:
    """A model of a complete pattern K_t, the only pattern written."""
    t = model.pattern.n
    if model.pattern.m != t * (t - 1) // 2:
        raise ValueError("only a model of a complete graph is encoded")
    return {
        "pattern_n": t,
        "sets": {str(x): sorted(s) for x, s in model.branch_sets.items()},
        "k": model.multiplicity,
    }


def model_from_json(obj: dict, host: SimpleGraph):
    from .minors import MinorModel

    t = check_shape("model", obj)["pattern_n"]
    _require("pattern_edges" not in obj, "model pattern_edges is refused: the pattern is always complete")
    # before K_t is built: its classical model has t disjoint branch sets and
    # a host edge between each pair of them
    _require(0 <= t <= host.n, f"model pattern_n is outside 0..{host.n}")
    _require(t * (t - 1) // 2 <= host.m, f"model pattern_n {t} needs more than the host's {host.m} edges")
    sets = {x: frozenset(s) for x, s in _keyed(obj["sets"], "model sets").items()}
    _require(sets.keys() <= set(range(t)), f"model sets has a key outside 0..{t - 1}")
    _require(obj.get("k", 1) >= 1, "multiplicity must be >= 1")
    # a complete minor needs a classical model, whatever multiplicity the
    # certificate declares
    return MinorModel(host, graphs.complete_graph(t), sets)


# ---------------------------------------------------------------- certificates

def certificate_to_json(cert) -> dict:
    return {
        "structure": structure_to_json(cert.structure),
        "model": model_to_json(cert.model),
        "n": cert.target,
        "guarantee_expr": str(cert.guarantee),
        "guarantee_float": float(cert.guarantee),
    }


def certificate_from_json(obj: dict):
    """The guarantee is derived from the declared params; `guarantee_expr`
    must be present but, like `guarantee_float`, is display-only and never
    parsed."""
    from .constructions import ConstructionCertificate

    check_shape("certificate", obj)
    structure = structure_from_json(obj["structure"])
    model = model_from_json(obj["model"], structure.host)
    return ConstructionCertificate(structure=structure, target=obj["n"], model=model)


def dumps(obj: dict) -> str:
    return _ENCODER.encode(obj) + "\n"
