"""Circular decompositions, vortices, and almost-embeddable structures.

A vortex is a graph together with a cyclic perimeter and one bag per
perimeter position; an almost-embeddable structure is an embedded base graph
with vortices attached on facial discs plus an apex set.  Validators here are
report-valued: they check every property and return witnesses for failures.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable

from . import embeddings, graphs
from .embeddings import FacialWalk, MultiEmbedding
from .errors import HadwigerError, InvalidDecomposition
from .graphs import SimpleGraph
from .report import Report


@dataclass(frozen=True)
class Vortex:
    """Graph with a circular decomposition.

    `bags` is aligned with `perimeter` by position (the bag family is a
    multiset keyed by perimeter position; equal bags may repeat).  A bag is
    a set of vertex indices of `graph`, refused at construction if one lies
    outside 0..n-1; the perimeter names base vertices, so it holds labels.
    """

    graph: SimpleGraph
    perimeter: tuple[Hashable, ...]
    bags: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.perimeter) != len(self.bags):
            raise ValueError("one bag per perimeter position required")
        if len(set(self.perimeter)) != len(self.perimeter):
            raise ValueError("perimeter repeats a vertex")
        if not frozenset().union(*self.bags).issubset(range(self.graph.n)):
            raise ValueError(f"a bag holds an index outside 0..{self.graph.n - 1}")


def validate_circular(v: Vortex) -> Report:
    """Check the four circular-decomposition properties."""
    rep = Report()
    graph = v.graph
    index = graph.label_index
    perim = v.perimeter
    t = len(perim)

    missing = [w for w in perim if w not in index]
    rep.add("perimeter-in-graph", not missing, missing or None)

    bad1 = [perim[i] for i in range(t) if index.get(perim[i]) not in v.bags[i]]
    rep.add("property-1-own-bag", not bad1, bad1 or None)

    # vertex -> ascending positions of the bags holding it
    positions: list[list[int]] = [[] for _ in range(graph.n)]
    for i, bag in enumerate(v.bags):
        for u in bag:
            positions[u].append(i)

    # witnesses in vertex order, which no hash seed can change
    on_perimeter = set(perim)
    bad2 = [
        lab for lab, p in zip(graph.labels, positions) if not p and lab not in on_perimeter
    ]
    rep.add("property-2-covers-vertices", not bad2, bad2 or None)

    held = [set(p) for p in positions]
    bad3 = sorted(
        (u, w) for u, nbrs in enumerate(graph.adj) for w in nbrs
        if u < w and held[u].isdisjoint(held[w])
    )
    rep.add(
        "property-3-covers-edges",
        not bad3,
        [(graph.labels[u], graph.labels[w]) for u, w in bad3] or None,
    )

    # occurrences must be consecutive in the circular order
    bad4 = sorted(
        ((graph.labels[u], p) for u, p in enumerate(positions) if p and not _one_run(p, t)),
        key=lambda item: graphs.label_sort_key(item[0]),
    )
    rep.add("property-4-consecutive", not bad4, bad4 or None)
    return rep


def _one_run(positions: list[int], t: int) -> bool:
    """Whether ascending positions on a t-cycle are consecutive on it: they
    span no more than their number, or leave at most one gap around it."""
    p = positions
    return p[-1] - p[0] < len(p) or sum(b - a != 1 for a, b in zip(p, p[1:] + [p[0] + t])) <= 1


def vortex_width(v: Vortex) -> int:
    """Max bag cardinality minus one; raises on an invalid decomposition."""
    rep = validate_circular(v)
    if not rep.ok:
        raise InvalidDecomposition(str(rep.failures[0]))
    return _width(v)


def _width(v: Vortex) -> int:
    """Max bag cardinality minus one, and 0 without bags."""
    return max((len(b) for b in v.bags), default=1) - 1


@dataclass(frozen=True)
class AlmostEmbeddable:
    """Embedded base graph, vortices on facial discs, and an apex set.

    `disc_faces[i]` is the facial walk of `base` that vortex i attaches to,
    as `embeddings.face_through` traces it: the construction traces each one
    from the base, and the loader refuses a walk that is not one, so it is
    never traced again here.
    `params` is the declared (g, p, k, a).  Apex adjacency is explicit in
    `apex_edges` (label pairs); apexes may also be adjacent to each other.
    """

    base: MultiEmbedding
    vortices: tuple[Vortex, ...] = ()
    disc_faces: tuple[FacialWalk, ...] = ()
    apex: tuple[Hashable, ...] = ()
    apex_edges: tuple[tuple[Hashable, Hashable], ...] = ()
    params: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self):
        if len(self.vortices) != len(self.disc_faces):
            raise ValueError("one disc face per vortex required")

    @cached_property
    def host(self) -> SimpleGraph:
        """The flattened graph of `flatten`, built once per structure."""
        return flatten(self)


def validate_almost_embeddable(a: AlmostEmbeddable) -> Report:
    g, p, k, apex_cap = a.params
    rep = Report()

    try:
        genus = embeddings.euler_genus(a.base)
        rep.add("base-genus", genus <= g, f"genus {genus} > declared {g}" if genus > g else None)
    except HadwigerError as exc:  # disconnected or malformed rotation
        rep.add("base-genus", False, str(exc))

    rep.add("vortex-count", len(a.vortices) <= p, len(a.vortices))
    rep.add("apex-count", len(a.apex) <= apex_cap, len(a.apex))

    base_labels = set(a.base.vertex_labels.values())

    seen: set = set()
    disjoint_ok = True
    witness = None
    for i, v in enumerate(a.vortices):
        overlap = v.graph.label_index.keys() & seen
        if overlap:
            disjoint_ok = False
            witness = (i, sorted(overlap, key=graphs.label_sort_key))
            break
        seen.update(v.graph.label_index)
    rep.add("vortices-disjoint", disjoint_ok, witness)

    for i, (v, face) in enumerate(zip(a.vortices, a.disc_faces)):
        sub = validate_circular(v)
        rep.extend(sub, prefix=f"vortex-{i}-")
        if sub.ok:
            width = _width(v)
            rep.add(f"vortex-{i}-width", width <= k, width)
        else:
            rep.add(f"vortex-{i}-width", False, str(sub.failures[0]))

        shared = v.graph.label_index.keys() & base_labels
        rep.add(
            f"vortex-{i}-meets-base-in-perimeter",
            shared == set(v.perimeter),
            sorted(shared ^ set(v.perimeter), key=graphs.label_sort_key) or None,
        )

        rep.add(f"vortex-{i}-disc-is-face", face.is_cycle)
        face_labels = [a.base.vertex_labels[u] for u in face.vertices]
        rep.add(
            f"vortex-{i}-perimeter-matches-disc",
            embeddings._cycles_equal(face_labels, list(v.perimeter)),
            (face_labels, list(v.perimeter)),
        )

    apex_set = set(a.apex)
    # flattening has already refused an endpoint that names no vertex, and
    # an apex that shares a label with the base or a vortex
    bad_apex_edges = [e for e in a.apex_edges if not any(x in apex_set for x in e)]
    rep.add("apex-edges-touch-apex", not bad_apex_edges, bad_apex_edges or None)
    return rep


def flatten(a: AlmostEmbeddable) -> SimpleGraph:
    """The union of base, vortex graphs and apex edges as one simple graph.
    Labels are preserved; deterministic vertex order (base first, then the
    vortices in order, then apexes)."""
    parts = [a.base.simple]
    parts.extend(v.graph for v in a.vortices)
    return add_apexes(graphs.union_by_labels(parts), a.apex, a.apex_edges)


def add_apexes(host: SimpleGraph, apex, apex_edges) -> SimpleGraph:
    """`host` plus the apex vertices, numbered after its own, and the apex
    edges: a structure's flattening from that of its apex-free part."""
    if not apex:
        return host
    labels = host.labels + tuple(apex)
    index = dict(host.label_index)
    index.update((lab, i) for i, lab in enumerate(apex, start=host.n))
    try:
        pairs = [(index[x], index[y]) for x, y in apex_edges]
    except KeyError as exc:
        raise ValueError(f"apex edge end {exc.args[0]!r} names no vertex") from None
    loop = min((i for i, j in pairs if i == j), default=None)
    if loop is not None:
        raise ValueError(f"loop at {loop}")
    adj = [set(a) for a in host.adj] + [set() for _ in apex]
    for i, j in pairs:
        adj[i].add(j)
        adj[j].add(i)
    return SimpleGraph(len(labels), tuple(map(frozenset, adj)), labels)

