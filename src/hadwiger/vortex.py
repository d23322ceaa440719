"""Circular decompositions, vortices, and almost-embeddable structures.

A vortex is a graph together with a cyclic perimeter and one bag per
perimeter position; an almost-embeddable structure is an embedded base graph
with vortices attached on facial discs plus an apex set.  Validators here are
report-valued: they check every property and return witnesses for failures.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from . import embeddings, graphs
from .embeddings import FacialWalk, MultiEmbedding
from .errors import InvalidDecomposition
from .graphs import SimpleGraph
from .report import Report


@dataclass(frozen=True)
class Vortex:
    """Graph with a circular decomposition.

    `bags` is aligned with `perimeter` by position (the bag family is a
    multiset keyed by perimeter position; equal bags may repeat).  All
    cross-references are by vertex label.
    """

    graph: SimpleGraph
    perimeter: tuple[Hashable, ...]
    bags: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.perimeter) != len(self.bags):
            raise ValueError("one bag per perimeter position required")
        if len(set(self.perimeter)) != len(self.perimeter):
            raise ValueError("perimeter repeats a vertex")


def validate_circular(v: Vortex) -> Report:
    """Check the four circular-decomposition properties."""
    rep = Report()
    labels = set(v.graph.labels)
    perim = list(v.perimeter)
    t = len(perim)

    missing = [w for w in perim if w not in labels]
    rep.add("perimeter-in-graph", not missing, missing or None)

    bad1 = [perim[i] for i in range(t) if perim[i] not in v.bags[i]]
    rep.add("property-1-own-bag", not bad1, bad1 or None)

    # label -> ascending positions of the bags holding it
    positions_of: dict = {}
    for i, bag in enumerate(v.bags):
        for lab in bag:
            positions_of.setdefault(lab, []).append(i)

    bad2 = [lab for lab in labels if lab not in perim and lab not in positions_of]
    rep.add("property-2-covers-vertices", not bad2, bad2 or None)

    bad3 = []
    for ui, wi in v.graph.edges():
        lu, lw = v.graph.labels[ui], v.graph.labels[wi]
        if set(positions_of.get(lu, ())).isdisjoint(positions_of.get(lw, ())):
            bad3.append((lu, lw))
    rep.add("property-3-covers-edges", not bad3, bad3 or None)

    bad4 = []
    for lab in sorted(labels, key=graphs.label_sort_key):
        positions = positions_of.get(lab)
        if not positions:
            continue
        # occurrences must be consecutive in the circular order
        runs = _circular_runs(positions, t)
        if runs > 1:
            bad4.append((lab, positions))
    rep.add("property-4-consecutive", not bad4, bad4 or None)
    return rep


def _circular_runs(positions: list[int], t: int) -> int:
    """Number of maximal runs of consecutive positions on a t-cycle."""
    if len(positions) in (0, t):
        return min(len(positions), 1)
    pos = set(positions)
    return sum(1 for i in positions if (i - 1) % t not in pos)


def vortex_width(v: Vortex) -> int:
    """Max bag cardinality minus one; raises on an invalid decomposition."""
    rep = validate_circular(v)
    if not rep.ok:
        first = rep.failures[0]
        idx = None
        if first.name.startswith("property-"):
            idx = int(first.name.split("-")[1])
        raise InvalidDecomposition(str(first), property_index=idx)
    return _width(v)


def _width(v: Vortex) -> int:
    """Max bag cardinality minus one, and 0 without bags."""
    return max((len(b) for b in v.bags), default=1) - 1


@dataclass(frozen=True)
class AlmostEmbeddable:
    """Embedded base graph, vortices on facial discs, and an apex set.

    `disc_faces[i]` is the facial walk of `base` that vortex i attaches to.
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


def validate_almost_embeddable(a: AlmostEmbeddable) -> Report:
    g, p, k, apex_cap = a.params
    rep = Report()

    try:
        genus = embeddings.euler_genus(a.base)
        rep.add("base-genus", genus <= g, f"genus {genus} > declared {g}" if genus > g else None)
    except Exception as exc:  # disconnected or malformed rotation
        rep.add("base-genus", False, str(exc))

    rep.add("vortex-count", len(a.vortices) <= p, len(a.vortices))
    rep.add("apex-count", len(a.apex) <= apex_cap, len(a.apex))

    base_labels = set(a.base.vertex_labels.values())
    traced = {w.incidences for w in embeddings.trace_faces(a.base)}

    seen: set = set()
    disjoint_ok = True
    witness = None
    for i, v in enumerate(a.vortices):
        overlap = seen & set(v.graph.labels)
        if overlap:
            disjoint_ok = False
            witness = (i, sorted(overlap, key=graphs.label_sort_key))
            break
        seen |= set(v.graph.labels)
    rep.add("vortices-disjoint", disjoint_ok, witness)

    for i, (v, face) in enumerate(zip(a.vortices, a.disc_faces)):
        sub = validate_circular(v)
        rep.extend(sub, prefix=f"vortex-{i}-")
        if sub.ok:
            width = _width(v)
            rep.add(f"vortex-{i}-width", width <= k, width)
        else:
            rep.add(f"vortex-{i}-width", False, str(sub.failures[0]))

        shared = set(v.graph.labels) & base_labels
        rep.add(
            f"vortex-{i}-meets-base-in-perimeter",
            shared == set(v.perimeter),
            sorted(shared ^ set(v.perimeter), key=graphs.label_sort_key) or None,
        )

        rep.add(f"vortex-{i}-disc-is-face", face.incidences in traced and face.is_cycle)
        face_labels = [a.base.vertex_labels[u] for u in face.vertices]
        rep.add(
            f"vortex-{i}-perimeter-matches-disc",
            embeddings._cycles_equal(face_labels, list(v.perimeter)),
            (face_labels, list(v.perimeter)),
        )

    apex_set = set(a.apex)
    non_apex = base_labels | set().union(
        *(set(v.graph.labels) for v in a.vortices), set()
    )
    bad_apex_edges = [
        e for e in a.apex_edges if not any(x in apex_set for x in e)
        or not all(x in apex_set or x in non_apex for x in e)
    ]
    rep.add("apex-edges-touch-apex", not bad_apex_edges, bad_apex_edges or None)
    rep.add("apex-disjoint-from-structure", not (apex_set & non_apex), sorted(apex_set & non_apex, key=graphs.label_sort_key) or None)
    return rep


def flatten(a: AlmostEmbeddable) -> SimpleGraph:
    """The union of base, vortex graphs and apex edges as one simple graph.
    Labels are preserved; deterministic vertex order (base first, then the
    vortices in order, then apexes)."""
    parts = [embeddings.underlying_simple(a.base)]
    parts.extend(v.graph for v in a.vortices)
    union = graphs.union_by_labels(parts)
    if not a.apex:
        return union
    labels = list(union.labels) + list(a.apex)
    index = {lab: i for i, lab in enumerate(labels)}
    edges = list(union.edges())
    for x, y in a.apex_edges:
        i, j = index[x], index[y]
        edges.append((min(i, j), max(i, j)))
    return graphs.from_edges(len(labels), sorted(set(edges)), tuple(labels))


def monotone_params_ok(small, large) -> bool:
    """Componentwise parameter monotonicity for the structure classes."""
    return all(s <= l for s, l in zip(small, large))
