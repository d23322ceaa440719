"""JSON and DOT serialization.

Schemas:
  graph        {"n": int, "edges": [[u,v],...], "labels": {"0": ...}}
  embedding    {"vertices": {...}, "edges": {"eid": [u,v]}, "rotations":
                {"v": [[eid,end],...]}, "signatures": {"eid": -1},
                "edge_labels": {"eid": [i,j]}}
  vortex       {"perimeter": [...], "bags": {"pos": [...]}, "graph": ...}
  model        {"pattern_n": t, "sets": {"x": [host indices]}, "k": 1}
  certificate  {"structure": ..., "model": ..., "n": ..., "guarantee_expr": ...}

Index keys are spelt as `str(index)` ("7", not "07" or "+7") and name
something (model `sets` keys < pattern_n; `signatures` and `edge_labels`
keys in `edges`); `labels` and `bags` hold one entry per vertex and per
perimeter position, and a bag entry is the label of a vertex of its vortex
graph.  A model is always a model of the complete graph K_pattern_n, so it
lists no pattern edges, and a certificate's model is verified as a
multiplicity-1 (classical) model, whatever its `k` declares.

All output is key-sorted so identical inputs give byte-identical files.
"""
from __future__ import annotations

import json

from . import graphs
from .embeddings import EmbEdge, MultiEmbedding, face_through
from .graphs import SimpleGraph, Split

# built once, with no cycle check: each `*_to_json` tree is fresh and acyclic
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


# ---------------------------------------------------------------- field types

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require(ok: bool, message: str):
    """Reject a field of the wrong JSON type before any object is built."""
    if not ok:
        raise ValueError(message)


def _keyed(obj, what: str) -> dict:
    """A JSON object keyed by integer strings, rekeyed by the integers; a key
    that is not `str` of its integer, such as "07", "+4" or " 4", is refused."""
    _require(isinstance(obj, dict), f"{what} is not an object")
    out = {int(k): v for k, v in obj.items()}
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
                owner, pos = obj["split"]
                _require(_is_int(pos), "split position is not an integer")
                return Split(label_from_json(owner), pos)
            if "str" in obj:
                _require(isinstance(obj["str"], str), "str label is not a string")
                return obj["str"]
        raise ValueError(f"unknown label encoding {obj}")
    # one encoding per label: a float or null could not be written back, a
    # bool would alias an int, and a bare string its {"str": ...} form
    raise ValueError(f"unsupported label {obj!r}")


# ---------------------------------------------------------------- graphs

def graph_to_json(g: SimpleGraph) -> dict:
    return {
        "n": g.n,
        "edges": g.edges(),
        "labels": {str(i): label_to_json(lab) for i, lab in enumerate(g.labels)},
    }


def graph_order(obj: dict) -> int:
    """A graph object's declared vertex count, checked to be a nonnegative
    integer before anything is allocated for it."""
    n = obj["n"]
    _require(_is_int(n) and n >= 0, "graph n is not a nonnegative integer")
    return n


def graph_from_json(obj: dict) -> SimpleGraph:
    n = graph_order(obj)
    labels = None
    if obj.get("labels"):
        _require(len(obj["labels"]) == n, "graph labels do not number n")
        labels = tuple(label_from_json(obj["labels"][str(i)]) for i in range(n))
    return graphs.from_edges(n, [tuple(e) for e in obj["edges"]], labels)


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


def embedding_from_json(obj: dict) -> MultiEmbedding:
    ends = _keyed(obj["edges"], "embedding edges")
    signatures = _keyed(obj.get("signatures", {}), "embedding signatures")
    edge_labels = _keyed(obj.get("edge_labels", {}), "embedding edge_labels")
    _require(
        signatures.keys() | edge_labels.keys() <= ends.keys(), "signatures or edge_labels name no edge"
    )
    edge_labels = {e: label_from_json(lab) for e, lab in edge_labels.items()}
    # unpacking rejects an edge or a dart that is not a pair
    edges = {
        e: EmbEdge(e, (u, v), signatures.get(e, 1), edge_labels.get(e))
        for e, (u, v) in ends.items()
    }
    labels = {
        v: label_from_json(lab) for v, lab in _keyed(obj["vertices"], "embedding vertices").items()
    }
    rotation = {
        v: tuple((e, end) for e, end in rot)
        for v, rot in _keyed(obj["rotations"], "embedding rotations").items()
    }
    return MultiEmbedding(labels, edges, rotation)


# ---------------------------------------------------------------- vortices

def vortex_to_json(v) -> dict:
    graph = graph_to_json(v.graph)
    codes = list(graph["labels"].values())
    # each bag in the JSON-text order of its labels, one text per vertex
    texts = [_ENCODER.encode(code) for code in codes]
    return {
        "graph": graph,
        "perimeter": [label_to_json(lab) for lab in v.perimeter],
        "bags": {
            str(pos): [codes[u] for u in sorted(bag, key=texts.__getitem__)]
            for pos, bag in enumerate(v.bags)
        },
    }


def vortex_from_json(obj: dict):
    from .vortex import Vortex

    # the labels tie the declared n to the file's size before n vertices
    # are allocated; indexing rejects a graph that is not an object
    labels = obj["graph"]["labels"]
    _require(
        isinstance(labels, dict) and len(labels) == graph_order(obj["graph"]),
        "vortex graph does not carry one label per vertex",
    )
    graph = graph_from_json(obj["graph"])
    perimeter = tuple(label_from_json(x) for x in obj["perimeter"])
    _require(len(obj["bags"]) == len(perimeter), "vortex bags do not match its perimeter")
    index = graph.label_index
    bags = tuple(
        frozenset(index.get(label_from_json(x)) for x in obj["bags"][str(pos)])
        for pos in range(len(perimeter))
    )
    _require(not any(None in bag for bag in bags), "a vortex bag entry names no vertex of its graph")
    return Vortex(graph, perimeter, bags)


def structure_to_json(a) -> dict:
    return {
        "base": embedding_to_json(a.base),
        "vortices": [vortex_to_json(v) for v in a.vortices],
        "disc_faces": [walk.incidences for walk in a.disc_faces],
        "apex": [label_to_json(lab) for lab in a.apex],
        "apex_edges": [[label_to_json(x), label_to_json(y)] for x, y in a.apex_edges],
        "params": a.params,
    }


def _is_incidence(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(map(_is_int, p))


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

    params = obj["params"]
    _require(
        isinstance(params, list) and len(params) == 4 and all(map(_is_int, params)),
        "params is not a list of 4 integers",
    )
    # the certificate derives its guarantee from them
    _require(min(params) >= 0, "params has a negative entry")
    base = embedding_from_json(obj["base"])
    faces = obj["disc_faces"]
    if not isinstance(faces, list) or not all(
        isinstance(inc, list) and all(_is_incidence(p) for p in inc) for inc in faces
    ):
        raise ValueError("disc_faces is not a list of lists of [vertex, edge] pairs")
    disc_faces = tuple(_face_with_incidences(base, tuple(map(tuple, inc))) for inc in faces)
    return AlmostEmbeddable(
        base=base,
        vortices=tuple(vortex_from_json(v) for v in obj["vortices"]),
        disc_faces=disc_faces,
        apex=tuple(label_from_json(x) for x in obj["apex"]),
        apex_edges=tuple(
            (label_from_json(x), label_from_json(y)) for x, y in obj["apex_edges"]
        ),
        params=tuple(params),
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

    t = obj["pattern_n"]
    _require(_is_int(t), "model pattern_n is not an integer")
    _require("pattern_edges" not in obj, "model pattern_edges is refused: the pattern is always complete")
    # before K_t is built: its classical model has t disjoint branch sets and
    # a host edge between each pair of them
    _require(0 <= t <= host.n, f"model pattern_n is outside 0..{host.n}")
    _require(t * (t - 1) // 2 <= host.m, f"model pattern_n {t} needs more than the host's {host.m} edges")
    _require(_is_int(obj.get("k", 1)), "model k is not an integer")
    _require(
        isinstance(obj["sets"], dict)
        and all(isinstance(s, list) and all(map(_is_int, s)) for s in obj["sets"].values()),
        "model sets is not an object of integer lists",
    )
    sets = {x: frozenset(s) for x, s in _keyed(obj["sets"], "model sets").items()}
    _require(sets.keys() <= set(range(t)), f"model sets has a key outside 0..{t - 1}")
    return MinorModel(host, graphs.complete_graph(t), sets, obj.get("k", 1))


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

    _require(_is_int(obj["n"]), "n is not an integer")
    structure = structure_from_json(obj["structure"])
    model = model_from_json(obj["model"], structure.host)
    _require("guarantee_expr" in obj, "guarantee_expr is missing")
    return ConstructionCertificate(structure=structure, target=obj["n"], model=model)


def dumps(obj: dict) -> str:
    return _ENCODER.encode(obj) + "\n"
