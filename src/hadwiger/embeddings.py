"""Combinatorial embeddings of multigraphs in surfaces.

An embedding is a rotation system (cyclic order of edge-ends around each
vertex) plus a per-edge signature in {+1, -1}; negative signatures encode
orientation-reversing edges, which nonorientable surfaces need.  Faces are
traced with the standard side-switching rule, Euler genus comes from Euler's
formula, and `split_at_faces` performs the degree-reduction surgery used by
the vortex construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from . import graphs
from .errors import Disconnected, FacesNotDisjoint, MalformedRotation, NotACycle, NotInCatalog
from .graphs import SimpleGraph, Split

# A dart is (edge id, end index); end index selects which endpoint it sits at.
Dart = tuple[int, int]


@dataclass(frozen=True)
class EmbEdge:
    id: int
    ends: tuple[int, int]
    sign: int = 1
    label: object = None


@dataclass
class MultiEmbedding:
    """Loops are forbidden; parallel edges (distinct edge ids) are fine.

    Treat instances as immutable; all operations return new embeddings.
    """

    vertex_labels: dict[int, Hashable]
    edges: dict[int, EmbEdge]
    rotation: dict[int, tuple[Dart, ...]]

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
            if edge.ends[0] == edge.ends[1]:
                raise MalformedRotation(f"loop edge {e}")
            if edge.sign not in (1, -1):
                raise MalformedRotation(f"bad signature on edge {e}")
            for end in (0, 1):
                if (e, end) not in seen:
                    raise MalformedRotation(f"missing dart ({e},{end})")
        if len(seen) != 2 * len(self.edges):
            raise MalformedRotation("stray darts present")

    @property
    def vertices(self) -> list[int]:
        return sorted(self.vertex_labels)

    @property
    def n(self) -> int:
        return len(self.vertex_labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def dart_vertex(self, dart: Dart) -> int:
        e, end = dart
        return self.edges[e].ends[end]

    def is_connected(self) -> bool:
        if not self.vertex_labels:
            return True
        adj: dict[int, set[int]] = {v: set() for v in self.vertex_labels}
        for edge in self.edges.values():
            a, b = edge.ends
            adj[a].add(b)
            adj[b].add(a)
        start = next(iter(self.vertex_labels))
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertex_labels)


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
# arcs and corner arcs; the successor below advances one band arc (switching
# sides on untwisted bands only) plus one corner arc.  Every face circle is
# covered by exactly two such orbits, offset by a single arc.


def _face_successor(emb: MultiEmbedding, state):
    e, end, side = state
    edge = emb.edges[e]
    target = edge.ends[1 - end]
    arrival = -side if edge.sign == 1 else side
    rot = emb.rotation[target]
    pos = rot.index((e, 1 - end))
    if arrival == 1:
        ne, nend = rot[(pos + 1) % len(rot)]
        return (ne, nend, -1)
    ne, nend = rot[(pos - 1) % len(rot)]
    return (ne, nend, 1)


def _arc_shift(emb: MultiEmbedding, state):
    """The state one band arc further along the same boundary circle; its
    orbit is the partner orbit covering the other half of the circle."""
    e, end, side = state
    arrival = -side if emb.edges[e].sign == 1 else side
    return (e, 1 - end, arrival)


def _orbit(emb: MultiEmbedding, start):
    orbit = [start]
    cur = _face_successor(emb, start)
    while cur != start:
        orbit.append(cur)
        cur = _face_successor(emb, cur)
    return orbit


def _walk_from_states(emb: MultiEmbedding, states) -> FacialWalk:
    incidences = tuple((emb.edges[e].ends[end], e) for e, end, _ in states)
    return FacialWalk(tuple(states), incidences)


def face_through(emb: MultiEmbedding, state) -> FacialWalk:
    """The face whose boundary circle carries the dart-side `state`: the
    walk of whichever of the circle's two orbits holds the smallest state,
    started at that state."""
    orbit = _orbit(emb, state)
    partner = _orbit(emb, _arc_shift(emb, state))
    if set(orbit) & set(partner) or len(orbit) != len(partner):
        raise MalformedRotation("inconsistent facial orbits")
    chosen = orbit if min(orbit) <= min(partner) else partner
    j = chosen.index(min(chosen))
    return _walk_from_states(emb, chosen[j:] + chosen[:j])


def trace_faces(emb: MultiEmbedding) -> tuple[FacialWalk, ...]:
    """All facial walks, deterministically ordered.

    Each edge contributes exactly two incidence-sides across the returned
    walks (an edge may appear twice in one walk).
    """
    emb.validate()
    all_states = sorted(
        (e, end, side) for e in emb.edges for end in (0, 1) for side in (1, -1)
    )
    visited: set[tuple[int, int, int]] = set()
    walks: list[FacialWalk] = []
    for start in all_states:
        if start in visited:
            continue
        walk = face_through(emb, start)
        # the arc shift maps one orbit of a circle onto the other
        visited.update(walk.states)
        visited.update(_arc_shift(emb, s) for s in walk.states)
        walks.append(walk)
    if sum(len(w) for w in walks) != 2 * emb.m:
        raise MalformedRotation("face tracing does not cover each edge twice")
    walks.sort(key=lambda w: w.incidences)
    return tuple(walks)


def euler_genus(emb: MultiEmbedding) -> int:
    """g = 2 - n + m - f for the traced 2-cell embedding."""
    if not emb.is_connected():
        raise Disconnected("euler genus requires a connected embedding")
    f = len(trace_faces(emb))
    g = 2 - emb.n + emb.m - f
    if g < 0:
        raise MalformedRotation(f"negative genus {g}; rotation system inconsistent")
    return g


def owner_label(label):
    """The vertex a (possibly split) vertex belongs to."""
    return label.owner if isinstance(label, Split) else label


def _cycles_equal(a: Sequence, b: Sequence) -> bool:
    """Cyclic sequences equal up to rotation and reflection."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    doubled = a + a
    rev = list(reversed(a))
    doubled_rev = rev + rev
    for i in range(len(a)):
        if doubled[i : i + len(a)] == b or doubled_rev[i : i + len(a)] == b:
            return True
    return False


def find_facial_cycle(emb: MultiEmbedding, cycle: Sequence[int]) -> FacialWalk:
    for walk in trace_faces(emb):
        if walk.is_cycle and _cycles_equal(walk.vertices, cycle):
            return walk
    raise NotACycle(f"{list(cycle)} is not a facial cycle")


def split_at_faces(
    emb: MultiEmbedding, faces: Sequence[FacialWalk]
) -> MultiEmbedding:
    """Split every vertex of degree > 3 on each given face into a path of
    degree-<=3 vertices lying along that face.

    The walks must be pairwise vertex-disjoint facial cycles of `emb`.  New
    vertices are labeled Split(owner, i), i counted 1..d from the face corner.
    Faces correspond one-to-one before and after.
    """
    traced = {w.incidences for w in trace_faces(emb)}
    seen_vertices: set[int] = set()
    for w in faces:
        if w.incidences not in traced:
            raise NotACycle("walk is not a facial walk of this embedding")
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
            j = None
            for idx in range(d):
                pair = {rot[idx], rot[(idx + 1) % d]}
                if pair == {r_in, r_out}:
                    j = idx
                    break
            if j is None:
                raise MalformedRotation(
                    f"face corner at vertex {v} not adjacent in rotation"
                )
            e_list = [rot[(j + 1 + s) % d] for s in range(d)]

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
    out = MultiEmbedding(labels, new_edges, new_rot)
    out.validate()
    return out


def delete_vertex(emb: MultiEmbedding, v: int) -> MultiEmbedding:
    if v not in emb.vertex_labels:
        raise KeyError(f"no vertex {v}")
    dead_edges = {e for e, edge in emb.edges.items() if v in edge.ends}
    labels = {u: lab for u, lab in emb.vertex_labels.items() if u != v}
    edges = {e: edge for e, edge in emb.edges.items() if e not in dead_edges}
    rotation = {
        u: tuple(d for d in rot if d[0] not in dead_edges)
        for u, rot in emb.rotation.items()
        if u != v
    }
    out = MultiEmbedding(labels, edges, rotation)
    if not out.is_connected():
        raise Disconnected(f"deleting vertex {v} disconnects the embedding")
    out.validate()
    return out


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
    if k < 1:
        raise ValueError("k must be >= 1")
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
    out = MultiEmbedding(dict(emb.vertex_labels), edges, rotation)
    out.validate()
    return out


def underlying_simple(emb: MultiEmbedding) -> SimpleGraph:
    """Underlying simple graph; vertices ordered by embedding vertex id."""
    order = emb.vertices
    index = {v: i for i, v in enumerate(order)}
    pairs = set()
    for edge in emb.edges.values():
        a, b = index[edge.ends[0]], index[edge.ends[1]]
        pairs.add((min(a, b), max(a, b)))
    return graphs.from_edges(
        len(order), sorted(pairs), tuple(emb.vertex_labels[v] for v in order)
    )


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
    emb = MultiEmbedding({v: labels[v] for v in range(n)}, edges, rotation)
    emb.validate()
    return emb


def grid_embedding(n: int) -> MultiEmbedding:
    """Planar embedding of the n-by-n grid, neighbors in counterclockwise
    order (east, north, west, south).  Labels carry (x, y)."""
    g = graphs.grid_graph(n)

    def idx(x, y):
        return (x - 1) * n + (y - 1)

    rotations = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            rot = []
            if x < n:
                rot.append(idx(x + 1, y))
            if y < n:
                rot.append(idx(x, y + 1))
            if x > 1:
                rot.append(idx(x - 1, y))
            if y > 1:
                rot.append(idx(x, y - 1))
            rotations.append(rot)
    return embedding_from_neighbors(n * n, rotations, labels=g.labels)


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
    emb = serialize.embedding_from_json_text(text)
    _validate_catalog_entry(emb, m)
    return emb


def _validate_catalog_entry(emb: MultiEmbedding, m: int):
    expected_genus = (m - 3) * (m - 4) // 6
    if emb.n != m or emb.m != m * (m - 1) // 2:
        raise NotInCatalog(f"catalog entry for K_{m} has wrong order/size")
    walks = trace_faces(emb)
    if any(len(w) != 3 for w in walks):
        raise NotInCatalog(f"catalog entry for K_{m} has a non-triangular face")
    if euler_genus(emb) != expected_genus:
        raise NotInCatalog(f"catalog entry for K_{m} has wrong genus")
    if emb.m != 3 * emb.n + 3 * expected_genus - 6:
        raise NotInCatalog(f"catalog entry for K_{m} violates the edge bound")
