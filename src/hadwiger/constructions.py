"""Lower-bound constructions with machine-checkable certificates.

Each constructor returns both an almost-embeddable structure and an explicit
minor model of a large complete graph in the flattened structure, bundled
with the exact guarantee the construction promises.  Certificates are fully
re-verifiable: nothing is trusted from the construction itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import bounds, embeddings, graphs, minors, vortex
from .embeddings import MultiEmbedding
from .errors import GenusOutOfCatalog
from .minors import MinorModel
from .report import Report
from .vortex import AlmostEmbeddable, Vortex


@dataclass(frozen=True)
class ConstructionCertificate:
    """A structure, the order of the complete minor exhibited in it, and
    the witness model."""

    structure: AlmostEmbeddable
    target: int
    model: MinorModel

    @cached_property
    def guarantee(self) -> bounds.BoundValue:
        """The exact lower bound a + k*sqrt(p+g)/4 of the declared class."""
        return bounds.lower_guarantee(*self.structure.params)


def verify_certificate(cert: ConstructionCertificate) -> Report:
    """Check the model, the structure and the target against the guarantee.
    Both builders and the loader make the model classical (multiplicity 1)
    and give it `cert.structure.host` itself as its host."""
    rep = Report()
    pattern = cert.model.pattern
    # the pattern is complete: the loader builds K_pattern_n, and the builders pass a K_t
    rep.add("pattern-is-complete-of-target-order", pattern.n == cert.target, (pattern.n, pattern.m))
    rep.extend(minors.verify_model(cert.model), prefix="model-")
    rep.extend(vortex.validate_almost_embeddable(cert.structure), prefix="structure-")
    rep.add(
        "target-meets-guarantee",
        cert.guarantee <= cert.target,
        (cert.target, str(cert.guarantee)),
    )
    return rep


# ------------------------------------------------------------ core pipeline

def construct_vortex_graph(
    emb: MultiEmbedding, faces, k: int, params: tuple[int, int, int, int]
) -> tuple[AlmostEmbeddable, MinorModel]:
    """Vortex construction over an embedded graph G and a disjoint facial
    cover: returns a structure of the declared class `params` = (g, p, k, a)
    whose flattening contains G[k] as a minor, together with the witness
    model.

    Every edge becomes k^2 labeled parallel copies, the faces are split down
    to degree <= 3, and each face turns into a width-<=k vortex whose interior
    holds the k hub vertices per original face vertex.  Branch sets are stars:
    the hub (v, i) plus, per incident edge copy, the split vertex on v's side
    whose copy label selects i in v's position under the ascending-id order.
    The a apexes ("apex", j) are adjacent to every vertex and to each other.

    The caller passes k >= 1 and faces that cover every vertex of G: a
    vertex on no face would get no vortex, and so no hubs for its branch
    sets.
    """
    base_graph = emb.simple
    multiplied = embeddings.multiply_edges(emb, k)
    # The face on side +1 of an old dart is the face on side +1 of the last
    # dart of its copy block, and side -1 maps to the first block dart.
    blocks = embeddings.copy_blocks(emb, k)
    starts = []
    for walk in faces:
        e, end, side = walk.states[0]
        block = blocks[(e, end)]
        ce, cend = block[-1] if side == 1 else block[0]
        starts.append((ce, cend, side))

    h0 = embeddings.split_at_faces(multiplied, starts)
    # splitting keeps every dart-side of a split face on that face
    disc_faces = [embeddings.face_through(h0, start) for start in starts]

    vortices = []
    # the non-apex labels in flatten's order: the base, then each vortex's hubs
    labels = list(h0.simple.labels)
    for walk in disc_faces:
        perimeter = tuple(h0.vertex_labels[v] for v in walk.vertices)
        t = len(perimeter)
        owners = [embeddings.owner_label(lab) for lab in perimeter]
        face_labels = sorted(set(owners), key=graphs.label_sort_key)
        # the hubs follow the perimeter, k per face vertex in face-label
        # order; bag pos holds pos and the k hubs of its owner
        hubs = [(v, i) for v in face_labels for i in range(1, k + 1)]
        labels.extend(hubs)
        first = {v: t + k * i for i, v in enumerate(face_labels)}
        bags = tuple(frozenset((pos, *range(first[v], first[v] + k))) for pos, v in enumerate(owners))
        # the vortex graph is the union of the bags' cliques
        adj = [set() for _ in range(t + len(hubs))]
        for bag in bags:
            for u in bag:
                adj[u] |= bag
        adj = tuple(frozenset(nbrs) - {u} for u, nbrs in enumerate(adj))
        graph = graphs.SimpleGraph(len(adj), adj, perimeter + tuple(hubs))
        vortices.append(Vortex(graph, perimeter, bags))

    apex = tuple(("apex", j) for j in range(1, params[3] + 1))
    apex_edges = tuple(
        [(x, lab) for x in apex for lab in labels] + list(combinations(apex, 2))
    )
    structure = AlmostEmbeddable(
        base=h0,
        vortices=tuple(vortices),
        disc_faces=tuple(disc_faces),
        apex=apex,
        apex_edges=apex_edges,
        params=params,
    )

    lex = graphs.lex_product(base_graph, k)
    sets: dict = {(v, i): {(v, i)} for v in base_graph.labels for i in range(1, k + 1)}
    for e, edge in h0.edges.items():
        if edge.label is None:
            continue
        # the copy's (i, j) label indexes its original ends in ascending order;
        # splitting re-points ends in place, so end x in h0 is end x's side
        i, j = edge.label
        (a, b), (x, y) = multiplied.edges[e].ends, edge.ends
        if a > b:
            a, b, x, y = b, a, y, x
        sets[(emb.vertex_labels[a], i)].add(h0.vertex_labels[x])
        sets[(emb.vertex_labels[b], j)].add(h0.vertex_labels[y])

    index = structure.host.label_index
    branch_sets = {
        lex.index_of(key): frozenset(map(index.__getitem__, labs)) for key, labs in sets.items()
    }
    model = MinorModel(structure.host, lex, branch_sets, 1)
    return structure, model


# ------------------------------------------------------------ constructions

def grid_model(n: int, k: int) -> MinorModel:
    """Explicit model of a complete graph of order nk in the grid blowup
    L_n[2k]: branch set (x, z) takes row x in copy 2z-1 and column x in
    copy 2z."""
    host = graphs.lex_product(graphs.grid_graph(n), 2 * k)
    sets = {}
    for x in range(1, n + 1):
        for z in range(1, k + 1):
            members = {host.index_of(((x, y), 2 * z - 1)) for y in range(1, n + 1)}
            members |= {host.index_of(((y, x), 2 * z)) for y in range(1, n + 1)}
            sets[(x - 1) * k + (z - 1)] = frozenset(members)
    return MinorModel(host, graphs.complete_graph(n * k), sets, 1)


def _certificate(structure: AlmostEmbeddable, model: MinorModel) -> ConstructionCertificate:
    """The certificate of a family's complete minor `model` plus one
    singleton branch set per apex."""
    host = structure.host
    n = model.pattern.n
    sets = dict(model.branch_sets)
    sets.update((n + j, frozenset({host.index_of(x)})) for j, x in enumerate(structure.apex))
    target = n + len(structure.apex)
    return ConstructionCertificate(
        structure=structure,
        target=target,
        model=MinorModel(host, graphs.complete_graph(target), sets, 1),
    )


def one_vortex(g: int, p: int, k: int, a: int) -> ConstructionCertificate:
    """Single-vortex construction in the class (g, p, k, a), g >= 1, from a
    near-minimal complete-graph triangulation: delete one vertex, whose link
    is a Hamiltonian facial cycle, and run the vortex construction on it.
    Yields a complete minor of order (m-1)k + a >= k*sqrt(6g) + a."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # the integers c with sqrt(6g) + 1 <= c <= sqrt(6g) + 3
    r = math.isqrt(6 * g)
    lo, hi = r + 1 + (r * r < 6 * g), r + 3
    m = next((c for c in embeddings.CATALOG_MEMBERS if lo <= c <= hi), None)
    if m is None:
        raise GenusOutOfCatalog(
            f"no catalog triangulation of order in [{lo}, {hi}]",
            required_range=(lo, hi),
        )
    emb = embeddings.triangulation_catalog(m)
    reduced = embeddings.delete_vertex(emb, max(emb.vertices))
    hamiltonian = next(
        w
        for w in reduced.faces
        if w.is_cycle and set(w.vertices) == set(reduced.vertex_labels)
    )
    # the reduced triangulation is complete, so its blowup model is too
    return _certificate(*construct_vortex_graph(reduced, [hamiltonian], k, (g, p, k, a)))


def many_vortex(g: int, p: int, k: int, a: int) -> ConstructionCertificate:
    """Many-vortex construction in the class (g, p, k, a) over an even grid:
    one vortex per 2x2 block, composed with the explicit grid blowup model.
    Yields a complete minor of order 2*floor(sqrt(p))*floor(k/2) + a
    >= (2/(3*sqrt(3)))*k*sqrt(p) + a."""
    if k < 2:
        raise ValueError("at least two hub vertices per face vertex are needed")
    m = math.isqrt(p)
    half = k // 2
    emb = embeddings.grid_embedding(2 * m)
    by_coord = {lab: v for v, lab in emb.vertex_labels.items()}
    faces = []
    for x in range(1, m + 1):
        for y in range(1, m + 1):
            block = [
                by_coord[coord]
                for coord in [
                    (2 * x - 1, 2 * y - 1),
                    (2 * x, 2 * y - 1),
                    (2 * x, 2 * y),
                    (2 * x - 1, 2 * y),
                ]
            ]
            faces.append(embeddings.find_facial_cycle(emb, block))
    structure, outer = construct_vortex_graph(emb, faces, 2 * half, (g, p, k, a))
    return _certificate(structure, minors.compose_models(outer, grid_model(2 * m, half)))


def with_apex(g: int, p: int, k: int, a: int) -> ConstructionCertificate:
    """The construction for the class (g, p, k, a): one vortex when g >= p,
    many vortices otherwise, plus `a` dominant apex vertices.  Both the
    target order and the guarantee a + k*sqrt(p+g)/4 grow by exactly a."""
    if a < 0:
        raise ValueError("a must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    if g < 0:
        raise ValueError("g must be >= 0")
    # p >= 1, so g >= p leaves the one-vortex family a genus to work with
    family = one_vortex if g >= p else many_vortex
    return family(g, p, k, a)
