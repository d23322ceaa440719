"""Combinatorial embeddings of multigraphs in surfaces.

An embedding is a rotation system (cyclic order of edge-ends around each
vertex) plus a per-edge signature in {+1, -1}; negative signatures encode
orientation-reversing edges, which nonorientable surfaces need.  Faces are
traced with the standard side-switching rule, Euler genus comes from Euler's
formula, and `split_at_faces` performs the degree-reduction surgery used by
the vortex construction.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple, Sequence

from . import graphs
from .errors import Disconnected, FacesNotDisjoint, MalformedRotation, NotACycle, NotInCatalog
from .graphs import SimpleGraph, Split

# A dart is (edge id, end index); end index selects which endpoint it sits at.
Dart = tuple[int, int]


class EmbEdge(NamedTuple):
    id: int
    ends: tuple[int, int]
    sign: int = 1
    label: object = None


@dataclass(frozen=True)
class MultiEmbedding:
    """Loops are forbidden; parallel edges (distinct edge ids) are fine.
    Construction runs `validate`: every dart is listed once, at its vertex.
    Edge ends, darts and signatures are ints (`serialize.SHAPES` in a file).

    Faces are traced on integer side codes: the dart-side (e, end, side) is
    4*rank[e] + 2*end + (side == 1), rank[e] being e's position among the
    sorted edge ids, and `sides` tabulates the successor of every code.
    Treat instances and their maps as immutable, since `sides` and `faces`
    are built once and cached; all operations return new embeddings.
    """

    vertex_labels: dict[int, Hashable]
    edges: dict[int, EmbEdge]
    rotation: dict[int, tuple[Dart, ...]]

    def __post_init__(self):
        self.validate()

    def validate(self):
        seen: set[Dart] = set()
        for v, rot in self.rotation.items():
            if v not in self.vertex_labels:
                raise MalformedRotation(f"rotation at unknown vertex {v}")
            for dart in rot:
                e, end = dart
                if e not in self.edges or end not in (0, 1):
                    raise MalformedRotation(f"bad dart {dart} at vertex {v}")
                if self.edges[e].ends[end] != v:
                    raise MalformedRotation(f"dart {dart} listed at wrong vertex {v}")
                if dart in seen:
                    raise MalformedRotation(f"duplicated dart {dart}")
                seen.add(dart)
        for e, edge in self.edges.items():
            u, v = edge.ends
            if u == v:
                raise MalformedRotation(f"loop edge {e}")
            if edge.sign not in (1, -1):
                raise MalformedRotation(f"bad signature on edge {e}")
            for end in (0, 1):
                if (e, end) not in seen:
                    raise MalformedRotation(f"missing dart ({e},{end})")

    @property
    def vertices(self) -> list[int]:
        return sorted(self.vertex_labels)

    @property
    def n(self) -> int:
        return len(self.vertex_labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def faces(self) -> tuple[FacialWalk, ...]:
        """The facial walks of `trace_faces`, traced once per embedding."""
        return trace_faces(self)

    @cached_property
    def sides(self) -> tuple[list[int], dict[int, int], list[int]]:
        """The face-tracing table `(ids, rank, nxt)`, built once: the sorted
        edge ids, each id's position among them, and for every dart-side
        code the code of the next side along its boundary circle."""
        ids = sorted(self.edges)
        rank = {e: r for r, e in enumerate(ids)}
        twisted = [self.edges[e].sign != 1 for e in ids]
        nxt = [0] * (4 * len(ids))
        for rot in self.rotation.values():
            codes = [4 * rank[e] + 2 * end for e, end in rot]
            for c, after, before in zip(codes, codes[1:] + codes[:1], codes[-1:] + codes[:-1]):
                # the side crossing into this dart on its right turns to the
                # next dart in the rotation, the other side to the previous one
                arrive = c ^ 2 | twisted[c >> 2]
                nxt[arrive] = after
                nxt[arrive ^ 1] = before + 1
        return ids, rank, nxt

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    @cached_property
    def simple(self) -> SimpleGraph:
        """The underlying simple graph, vertices ordered by embedding vertex
        id; built once per embedding."""
        order = self.vertices
        index = {v: i for i, v in enumerate(order)}
        pairs = set()
        for edge in self.edges.values():
            a, b = index[edge.ends[0]], index[edge.ends[1]]
            pairs.add((min(a, b), max(a, b)))
        return graphs.from_edges(
            len(order), sorted(pairs), tuple(self.vertex_labels[v] for v in order)
        )


@dataclass(frozen=True)
class FacialWalk:
    """A facial walk, stored as the traced sequence of signed darts."""

    states: tuple[tuple[int, int, int], ...]  # (edge, end, sigma)
    incidences: tuple[tuple[int, int], ...]  # (vertex, edge)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.incidences)

    def __len__(self):
        return len(self.incidences)

    @property
    def is_cycle(self) -> bool:
        vs = self.vertices
        return len(vs) >= 1 and len(set(vs)) == len(vs)


# Face tracing works on dart-sides (edge, end, side), side in {+1, -1} for the
# right/left side of the dart on its vertex disc.  Thickening the embedded
# graph into a band surface, each face is a boundary circle alternating band
# arcs and corner arcs; one step crosses a band arc (switching sides on
# untwisted bands only), then a corner arc to the neighbouring dart in the
# rotation.  Every face circle is covered by exactly two such orbits, offset
# by one band arc.  `MultiEmbedding.sides` codes (e, end, side) as 4*rank[e] +
# 2*end + (side == 1), so codes sort as the triples do, and tabulates each
# step; the partner orbit of c starts at 2*((c >> 1) ^ 1) + ((c & 1) ^ untwisted).


def _circle(emb: MultiEmbedding, code: int) -> tuple[FacialWalk, list[int]]:
    """The face whose boundary circle carries the side `code`, and every
    code on that circle.  The walk is whichever of the circle's two orbits
    holds the smallest code, started at that code."""
    ids, _, nxt = emb.sides
    partner = 2 * ((code >> 1) ^ 1) + ((code & 1) ^ (emb.edges[ids[code >> 2]].sign == 1))
    orbits = []
    for start in (code, partner):
        orbit = [start]
        c = nxt[start]
        while c != start:
            orbit.append(c)
            c = nxt[c]
        orbits.append(orbit)
    chosen = min(orbits, key=min)
    j = chosen.index(min(chosen))
    states = tuple([(ids[c >> 2], c >> 1 & 1, 2 * (c & 1) - 1) for c in chosen[j:] + chosen[:j]])
    incidences = tuple([(emb.edges[e].ends[end], e) for e, end, _ in states])
    return FacialWalk(states, incidences), orbits[0] + orbits[1]


def face_through(emb: MultiEmbedding, state) -> FacialWalk:
    """The face whose boundary circle carries the dart-side `state`."""
    e, end, side = state
    return _circle(emb, 4 * emb.sides[1][e] + 2 * end + (side == 1))[0]


def trace_faces(emb: MultiEmbedding) -> tuple[FacialWalk, ...]:
    """All facial walks, deterministically ordered.

    Each edge contributes exactly two incidence-sides across the returned
    walks (an edge may appear twice in one walk).  No check is needed: a
    valid embedding lists each dart once, so `nxt` is a permutation and each
    circle is two disjoint orbits of equal length.
    """
    seen = bytearray(4 * emb.m)
    walks: list[FacialWalk] = []
    for code in range(4 * emb.m):
        if seen[code]:
            continue
        walk, circle = _circle(emb, code)
        for c in circle:
            seen[c] = 1
        walks.append(walk)
    walks.sort(key=lambda w: w.incidences)
    return tuple(walks)


def euler_genus(emb: MultiEmbedding) -> int:
    """g = 2 - n + m - f for the traced 2-cell embedding.  A connected
    rotation system traces a closed connected surface, so g >= 0.  Faces
    are counted, not traced: each boundary circle is two orbits of the
    `sides` table, so f is half the number of its orbits."""
    if not graphs.is_connected(emb.simple):
        raise Disconnected("euler genus requires a connected embedding")
    # faces are traced from darts, so a lone vertex or an empty graph gets
    # none; either lies on the sphere
    if not emb.edges:
        return 0
    nxt = emb.sides[2]
    seen = bytearray(len(nxt))
    orbits = 0
    for start in range(len(nxt)):
        if not seen[start]:
            orbits += 1
            c = start
            while not seen[c]:
                seen[c] = 1
                c = nxt[c]
    return 2 - emb.n + emb.m - orbits // 2


def owner_label(label):
    """The vertex a (possibly split) vertex belongs to."""
    return label.owner if isinstance(label, Split) else label


def _cycles_equal(a: Sequence, b: Sequence) -> bool:
    """Cyclic sequences equal up to rotation and reflection.  Only the
    offsets where a turn of `a` starts with `b[0]` are compared."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    for turn in (a, a[::-1]):
        doubled = turn + turn
        for i, x in enumerate(turn):
            if x == b[0] and doubled[i : i + len(a)] == b:
                return True
    return False


def find_facial_cycle(emb: MultiEmbedding, cycle: Sequence[int]) -> FacialWalk:
    for walk in emb.faces:
        if walk.is_cycle and _cycles_equal(walk.vertices, cycle):
            return walk
    raise NotACycle(f"{list(cycle)} is not a facial cycle")


def split_at_faces(emb: MultiEmbedding, starts: Sequence[tuple[int, int, int]]) -> MultiEmbedding:
    """Split every vertex of degree > 3 on each given face into a path of
    degree-<=3 vertices lying along that face.

    Each face is named by one of its dart-sides (e, end, side) and traced
    once with `face_through`; the faces must be pairwise vertex-disjoint
    facial cycles.  New vertices are labeled Split(owner, i), i counted 1..d
    from the face corner.  Faces correspond one-to-one before and after, and
    a split face still carries every dart-side it had.
    """
    faces = [face_through(emb, state) for state in starts]
    seen_vertices: set[int] = set()
    for w in faces:
        if not w.is_cycle:
            raise NotACycle(f"facial walk {w.vertices} repeats a vertex")
        overlap = seen_vertices & set(w.vertices)
        if overlap:
            raise FacesNotDisjoint(f"faces share vertices {sorted(overlap)}")
        seen_vertices.update(w.vertices)

    labels = dict(emb.vertex_labels)
    edges = {e: [edge.ends[0], edge.ends[1], edge.sign, edge.label] for e, edge in emb.edges.items()}
    rotation = {v: list(rot) for v, rot in emb.rotation.items()}
    next_vertex = max(labels, default=-1) + 1
    next_edge = max(edges, default=-1) + 1

    for walk in faces:
        L = len(walk.states)
        for t in range(L):
            e_out, end_out, _ = walk.states[t]
            v = emb.edges[e_out].ends[end_out]
            if emb.degree(v) <= 3:
                continue
            e_in, end_in, _ = walk.states[(t - 1) % L]
            r_in: Dart = (e_in, 1 - end_in)
            r_out: Dart = (e_out, end_out)
            rot = rotation[v]
            d = len(rot)
            i = rot.index(r_out)
            # consecutive darts of a traced face are neighbours in the rotation
            start = i if rot[i - 1] == r_in else (i + 1) % d
            e_list = rot[start:] + rot[:start]

            xs = list(range(next_vertex, next_vertex + d))
            next_vertex += d
            own = owner_label(labels[v])
            for i, x in enumerate(xs, start=1):
                labels[x] = Split(own, i)
            # re-point each incident edge at its path vertex
            for i, dart in enumerate(e_list):
                e, end = dart
                edges[e][end] = xs[i]
            # path edges, signature +1
            path_ids = []
            for i in range(d - 1):
                edges[next_edge] = [xs[i], xs[i + 1], 1, None]
                path_ids.append(next_edge)
                next_edge += 1
            for i, x in enumerate(xs):
                rot_x: list[Dart] = []
                if 0 < i:
                    rot_x.append((path_ids[i - 1], 1))
                rot_x.append(e_list[i])
                if i < d - 1:
                    rot_x.append((path_ids[i], 0))
                rotation[x] = rot_x
            del rotation[v]
            del labels[v]

    new_edges = {
        e: EmbEdge(e, (ends[0], ends[1]), ends[2], ends[3]) for e, ends in edges.items()
    }
    new_rot = {v: tuple(rot) for v, rot in rotation.items()}
    return MultiEmbedding(labels, new_edges, new_rot)


def delete_vertex(emb: MultiEmbedding, v: int) -> MultiEmbedding:
    """`emb` without the vertex `v` and its edges.  The caller deletes a
    vertex whose removal leaves the embedding connected."""
    dead_edges = {e for e, edge in emb.edges.items() if v in edge.ends}
    labels = {u: lab for u, lab in emb.vertex_labels.items() if u != v}
    edges = {e: edge for e, edge in emb.edges.items() if e not in dead_edges}
    rotation = {
        u: tuple(d for d in rot if d[0] not in dead_edges)
        for u, rot in emb.rotation.items()
        if u != v
    }
    return MultiEmbedding(labels, edges, rotation)


def copy_blocks(emb: MultiEmbedding, k: int) -> dict[Dart, list[Dart]]:
    """Where `multiply_edges(emb, k)` puts the copies of each dart.

    The edge of rank r in ascending id order gets the copies r*k^2 ...
    (r+1)*k^2 - 1.  They sit contiguously where the original edge-end sat,
    in id order at the smaller endpoint; at the other endpoint the order is
    reversed for positive-signature edges and kept for negative ones, so
    that the copies bound bigons and the genus is unchanged.
    """
    blocks: dict[Dart, list[Dart]] = {}
    for rank, e in enumerate(sorted(emb.edges)):
        edge = emb.edges[e]
        small_end = 0 if edge.ends[0] < edge.ends[1] else 1
        copies = range(rank * k * k, (rank + 1) * k * k)
        big_darts = [(c, 1 - small_end) for c in copies]
        blocks[(e, small_end)] = [(c, small_end) for c in copies]
        blocks[(e, 1 - small_end)] = big_darts[::-1] if edge.sign == 1 else big_darts
    return blocks


def multiply_edges(emb: MultiEmbedding, k: int) -> MultiEmbedding:
    """Replace every edge uv by k^2 parallel copies labeled (i, j), where i
    indexes the endpoint with the smaller vertex id.  The copies are laid
    out by `copy_blocks`, their ids ascending in lexicographic (i, j) order."""
    blocks = copy_blocks(emb, k)
    edges: dict[int, EmbEdge] = {}
    for e in sorted(emb.edges):
        edge = emb.edges[e]
        for n, (c, _) in enumerate(sorted(blocks[(e, 0)])):
            i, j = divmod(n, k)
            edges[c] = EmbEdge(c, edge.ends, edge.sign, (i + 1, j + 1))
    rotation = {}
    for v, rot in emb.rotation.items():
        new_rot: list[Dart] = []
        for dart in rot:
            new_rot.extend(blocks[dart])
        rotation[v] = tuple(new_rot)
    return MultiEmbedding(dict(emb.vertex_labels), edges, rotation)


def embedding_from_neighbors(
    n: int,
    rotations: Sequence[Sequence[int]],
    negative_edges: Iterable[tuple[int, int]] = (),
    labels: Sequence[Hashable] | None = None,
) -> MultiEmbedding:
    """Build an embedding of a simple graph from per-vertex neighbor orders."""
    neg = {tuple(sorted(e)) for e in negative_edges}
    pair_ids: dict[tuple[int, int], int] = {}
    edges: dict[int, EmbEdge] = {}
    for v, rot in enumerate(rotations):
        for w in rot:
            key = (min(v, w), max(v, w))
            if key not in pair_ids:
                eid = len(pair_ids)
                pair_ids[key] = eid
                sign = -1 if key in neg else 1
                edges[eid] = EmbEdge(eid, key, sign)
    rotation = {}
    for v, rot in enumerate(rotations):
        darts = []
        for w in rot:
            key = (min(v, w), max(v, w))
            eid = pair_ids[key]
            darts.append((eid, key.index(v)))
        rotation[v] = tuple(darts)
    if labels is None:
        labels = tuple(range(n))
    return MultiEmbedding({v: labels[v] for v in range(n)}, edges, rotation)


def grid_embedding(n: int) -> MultiEmbedding:
    """Planar embedding of the n-by-n grid, neighbors in counterclockwise
    order (east, north, west, south).  Labels carry (x, y)."""
    g = graphs.grid_graph(n)
    # vertex (x, y) is i = (x-1)*n + y-1: east, north, west, south are i+n, i+1, i-n, i-1
    rotations = [[j for j in (i + n, i + 1, i - n, i - 1) if j in g.adj[i]] for i in range(g.n)]
    return embedding_from_neighbors(g.n, rotations, labels=g.labels)


# Complete-graph triangulation catalog.  K_m triangulates a surface only if
# m mod 6 is one of {0, 1, 3, 4}; the shipped entries are m in {3, 4, 6, 7}.
CATALOG_MEMBERS = (3, 4, 6, 7)


def triangulation_catalog(m: int) -> MultiEmbedding:
    """A triangular embedding of K_m with Euler genus (m-3)(m-4)/6, loaded
    from versioned data files and re-validated on every load."""
    if m not in CATALOG_MEMBERS:
        raise NotInCatalog(
            f"no triangulation of K_{m} in the catalog"
            + ("" if m % 6 in (0, 1, 3, 4) else f" (K_{m} triangulates no surface)")
        )
    from importlib.resources import files

    from . import serialize

    text = files("hadwiger.data").joinpath(f"k{m}.json").read_text()
    emb = serialize.embedding_from_json(json.loads(text))
    _validate_catalog_entry(emb, m)
    return emb


def _validate_catalog_entry(emb: MultiEmbedding, m: int):
    expected_genus = (m - 3) * (m - 4) // 6
    if emb.n != m or emb.m != m * (m - 1) // 2:
        raise NotInCatalog(f"catalog entry for K_{m} has wrong order/size")
    if any(len(w) != 3 for w in emb.faces):
        raise NotInCatalog(f"catalog entry for K_{m} has a non-triangular face")
    if euler_genus(emb) != expected_genus:
        raise NotInCatalog(f"catalog entry for K_{m} has wrong genus")
