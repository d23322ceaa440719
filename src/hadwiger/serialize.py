"""JSON and DOT serialization.

Schemas:
  graph        {"n": int, "edges": [[u,v],...], "labels": {"0": ...}}
  embedding    {"vertices": {...}, "edges": {"eid": [u,v]}, "rotations":
                {"v": [[eid,end],...]}, "signatures": {"eid": -1},
                "edge_labels": {"eid": [i,j]}}
  vortex       {"perimeter": [...], "bags": {"pos": [...]}, "graph": ...}
  model        {"pattern_n": t, "sets": {"x": [host indices]}, "k": 1}
  certificate  {"structure": ..., "model": ..., "n": ..., "guarantee_expr": ...}

All output is key-sorted so identical inputs give byte-identical files.
"""
from __future__ import annotations

import json

from . import embeddings, graphs
from .embeddings import EmbEdge, MultiEmbedding
from .graphs import SimpleGraph, Split


# ---------------------------------------------------------------- labels

def label_to_json(label):
    if isinstance(label, Split):
        return {"split": [label_to_json(label.owner), label.position]}
    if isinstance(label, tuple):
        return [label_to_json(x) for x in label]
    if isinstance(label, str):
        return {"str": label}
    if isinstance(label, (int, bool)):
        return label
    raise TypeError(f"unsupported label type {type(label)}")


def label_from_json(obj):
    if isinstance(obj, list):
        return tuple(label_from_json(x) for x in obj)
    if isinstance(obj, dict):
        if "split" in obj:
            owner, pos = obj["split"]
            return Split(label_from_json(owner), pos)
        if "str" in obj:
            return obj["str"]
        raise ValueError(f"unknown label encoding {obj}")
    return obj


# ---------------------------------------------------------------- graphs

def graph_to_json(g: SimpleGraph) -> dict:
    return {
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "labels": {str(i): label_to_json(lab) for i, lab in enumerate(g.labels)},
    }


def graph_from_json(obj: dict) -> SimpleGraph:
    n = obj["n"]
    labels = None
    if obj.get("labels"):
        labels = tuple(label_from_json(obj["labels"][str(i)]) for i in range(n))
    return graphs.from_edges(n, [tuple(e) for e in obj["edges"]], labels)


def graph_to_dot(g: SimpleGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for i, lab in enumerate(g.labels):
        lines.append(f'  {i} [label="{lab}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- embeddings

def embedding_to_json(emb: MultiEmbedding) -> dict:
    return {
        "vertices": {str(v): label_to_json(lab) for v, lab in emb.vertex_labels.items()},
        "edges": {str(e): list(edge.ends) for e, edge in emb.edges.items()},
        "rotations": {str(v): [list(d) for d in rot] for v, rot in emb.rotation.items()},
        "signatures": {str(e): edge.sign for e, edge in emb.edges.items() if edge.sign != 1},
        "edge_labels": {
            str(e): label_to_json(edge.label)
            for e, edge in emb.edges.items()
            if edge.label is not None
        },
    }


def embedding_from_json(obj: dict) -> MultiEmbedding:
    signatures = {int(e): s for e, s in obj.get("signatures", {}).items()}
    edge_labels = {
        int(e): label_from_json(lab) for e, lab in obj.get("edge_labels", {}).items()
    }
    edges = {
        int(e): EmbEdge(
            int(e),
            (ends[0], ends[1]),
            signatures.get(int(e), 1),
            edge_labels.get(int(e)),
        )
        for e, ends in obj["edges"].items()
    }
    labels = {int(v): label_from_json(lab) for v, lab in obj["vertices"].items()}
    rotation = {
        int(v): tuple((d[0], d[1]) for d in rot) for v, rot in obj["rotations"].items()
    }
    emb = MultiEmbedding(labels, edges, rotation)
    emb.validate()
    return emb


def embedding_from_json_text(text: str) -> MultiEmbedding:
    return embedding_from_json(json.loads(text))


# ---------------------------------------------------------------- vortices

def vortex_to_json(v) -> dict:
    return {
        "graph": graph_to_json(v.graph),
        "perimeter": [label_to_json(lab) for lab in v.perimeter],
        "bags": {
            str(pos): sorted(
                (label_to_json(lab) for lab in bag), key=lambda x: json.dumps(x)
            )
            for pos, bag in enumerate(v.bags)
        },
    }


def vortex_from_json(obj: dict):
    from .vortex import Vortex

    graph = graph_from_json(obj["graph"])
    perimeter = tuple(label_from_json(x) for x in obj["perimeter"])
    bags = tuple(
        frozenset(label_from_json(x) for x in obj["bags"][str(pos)])
        for pos in range(len(perimeter))
    )
    return Vortex(graph, perimeter, bags)


def structure_to_json(a) -> dict:
    return {
        "base": embedding_to_json(a.base),
        "vortices": [vortex_to_json(v) for v in a.vortices],
        "disc_faces": [
            [list(inc) for inc in walk.incidences] for walk in a.disc_faces
        ],
        "apex": [label_to_json(lab) for lab in a.apex],
        "apex_edges": [
            [label_to_json(x), label_to_json(y)] for x, y in a.apex_edges
        ],
        "params": list(a.params),
    }


def _is_incidence(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(isinstance(x, int) for x in p)


def structure_from_json(obj: dict):
    from .vortex import AlmostEmbeddable

    base = embedding_from_json(obj["base"])
    by_incidence = {w.incidences: w for w in embeddings.trace_faces(base)}
    faces = obj["disc_faces"]
    if not isinstance(faces, list) or not all(
        isinstance(inc, list) and all(_is_incidence(p) for p in inc) for inc in faces
    ):
        raise ValueError("disc_faces is not a list of lists of [vertex, edge] pairs")
    disc_faces = []
    for inc in faces:
        key = tuple((p[0], p[1]) for p in inc)
        if key not in by_incidence:
            raise ValueError("disc face is not a face of the stored base embedding")
        disc_faces.append(by_incidence[key])
    return AlmostEmbeddable(
        base=base,
        vortices=tuple(vortex_from_json(v) for v in obj["vortices"]),
        disc_faces=tuple(disc_faces),
        apex=tuple(label_from_json(x) for x in obj["apex"]),
        apex_edges=tuple(
            (label_from_json(x), label_from_json(y)) for x, y in obj["apex_edges"]
        ),
        params=tuple(obj["params"]),
    )


# ---------------------------------------------------------------- models

def model_to_json(model) -> dict:
    obj = {
        "pattern_n": model.pattern.n,
        "sets": {
            str(x): sorted(s) for x, s in model.branch_sets.items()
        },
        "k": model.multiplicity,
    }
    complete = model.pattern.m == model.pattern.n * (model.pattern.n - 1) // 2
    if not complete:
        obj["pattern_edges"] = [list(e) for e in model.pattern.edges()]
    return obj


def model_from_json(obj: dict, host: SimpleGraph):
    from .minors import MinorModel

    t = obj["pattern_n"]
    if "pattern_edges" in obj:
        pattern = graphs.from_edges(t, [tuple(e) for e in obj["pattern_edges"]])
    else:
        pattern = graphs.complete_graph(t)
    sets = {int(x): frozenset(s) for x, s in obj["sets"].items()}
    return MinorModel(host, pattern, sets, obj.get("k", 1))


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
    import sympy

    from .constructions import ConstructionCertificate
    from .vortex import flatten

    structure = structure_from_json(obj["structure"])
    host = flatten(structure)
    model = model_from_json(obj["model"], host)
    return ConstructionCertificate(
        structure=structure,
        target=obj["n"],
        model=model,
        guarantee=sympy.sympify(obj["guarantee_expr"]),
    )


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
