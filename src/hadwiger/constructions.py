"""Lower-bound constructions with machine-checkable certificates.

Each constructor returns both an almost-embeddable structure and an explicit
minor model of a large complete graph in the flattened structure, bundled
with the exact guarantee the construction promises.  Certificates are fully
re-verifiable: nothing is trusted from the construction itself.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import combinations

import sympy

from . import embeddings, graphs, minors, vortex
from .embeddings import MultiEmbedding
from .errors import (
    FacesDontCoverVertices,
    FacesNotDisjoint,
    GenusOutOfCatalog,
    GZero,
    KTooSmall,
)
from .graphs import SimpleGraph
from .minors import MinorModel
from .report import Report
from .vortex import AlmostEmbeddable, Vortex


@dataclass(frozen=True)
class ConstructionCertificate:
    """A structure, the order of the complete minor exhibited in it, the
    witness model, and the construction's exact lower-bound guarantee."""

    structure: AlmostEmbeddable
    target: int
    model: MinorModel
    guarantee: sympy.Expr


def verify_certificate(cert: ConstructionCertificate) -> Report:
    rep = Report()
    host = vortex.flatten(cert.structure)
    same_host = (
        host.labels == cert.model.host.labels and host.edges() == cert.model.host.edges()
    )
    rep.add("model-host-is-flattened-structure", same_host)
    pattern = cert.model.pattern
    rep.add(
        "pattern-is-complete-of-target-order",
        pattern.n == cert.target and pattern.m == cert.target * (cert.target - 1) // 2,
        (pattern.n, pattern.m),
    )
    rep.extend(minors.verify_model(cert.model), prefix="model-")
    rep.extend(vortex.validate_almost_embeddable(cert.structure), prefix="structure-")
    rep.add(
        "target-meets-guarantee",
        bool(sympy.Rational(cert.target) >= cert.guarantee),
        (cert.target, str(cert.guarantee)),
    )
    return rep


# ------------------------------------------------------------ core pipeline

def construct_vortex_graph(
    emb: MultiEmbedding, faces, k: int
) -> tuple[AlmostEmbeddable, MinorModel]:
    """Vortex construction over an embedded graph G and a disjoint facial
    cover: returns a structure whose flattening contains G[k] as a minor,
    together with the witness model.

    Every edge becomes k^2 labeled parallel copies, the faces are split down
    to degree <= 3, and each face turns into a width-<=k vortex whose interior
    holds the k hub vertices per original face vertex.  Branch sets are stars:
    the hub (v, i) plus, per incident edge copy, the split vertex on v's side
    whose copy label selects i in v's position under the ascending-id order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    face_vertex_sets = [set(w.vertices) for w in faces]
    for a, b in combinations(range(len(faces)), 2):
        shared = face_vertex_sets[a] & face_vertex_sets[b]
        if shared:
            raise FacesNotDisjoint(f"faces {a} and {b} share vertices {sorted(shared)}")
    covered = set().union(*face_vertex_sets) if faces else set()
    uncovered = set(emb.vertex_labels) - covered
    if uncovered:
        raise FacesDontCoverVertices(f"vertices {sorted(uncovered)} lie on no face")

    base_graph = embeddings.underlying_simple(emb)
    multiplied = embeddings.multiply_edges(emb, k)
    # The face on side +1 of an old dart is the face on side +1 of the last
    # dart of its copy block, and side -1 maps to the first block dart.
    blocks = embeddings.copy_blocks(emb, k)
    images = []
    for walk in faces:
        e, end, side = walk.states[0]
        block = blocks[(e, end)]
        ce, cend = block[-1] if side == 1 else block[0]
        images.append(embeddings.face_through(multiplied, (ce, cend, side)))

    # remember, per copy, its (i, j) label and its ascending-order endpoints
    copy_info = {}
    for e, edge in multiplied.edges.items():
        p, q = edge.ends
        small, big = (p, q) if p < q else (q, p)
        copy_info[e] = (
            edge.label,
            emb.vertex_labels[small],
            emb.vertex_labels[big],
        )

    h0 = embeddings.split_at_faces(multiplied, images)
    # splitting keeps every state of a split face on that face
    disc_faces = [embeddings.face_through(h0, img.states[0]) for img in images]

    vortices = []
    for walk, face_set in zip(disc_faces, face_vertex_sets):
        perimeter = tuple(h0.vertex_labels[v] for v in walk.vertices)
        owners = [embeddings.owner_label(lab) for lab in perimeter]
        face_labels = sorted(
            (emb.vertex_labels[v] for v in face_set), key=graphs.label_sort_key
        )
        hub = {v: [(v, i) for i in range(1, k + 1)] for v in face_labels}
        vertex_labels = list(perimeter) + [h for v in face_labels for h in hub[v]]
        index = {lab: t for t, lab in enumerate(vertex_labels)}
        edges = []
        for pos, x in enumerate(perimeter):
            edges.extend((index[x], index[h]) for h in hub[owners[pos]])
        for v in face_labels:
            edges.extend(
                (index[a], index[b]) for a, b in combinations(hub[v], 2)
            )
        graph = graphs.from_edges(len(vertex_labels), sorted(set(edges)), tuple(vertex_labels))
        bags = tuple(
            frozenset({x} | set(hub[owners[pos]])) for pos, x in enumerate(perimeter)
        )
        vortices.append(Vortex(graph, perimeter, bags))

    structure = AlmostEmbeddable(
        base=h0,
        vortices=tuple(vortices),
        disc_faces=tuple(disc_faces),
        params=(embeddings.euler_genus(h0), len(faces), k, 0),
    )

    lex = graphs.lex_product(base_graph, k)
    sets: dict = {(v, i): {(v, i)} for v in base_graph.labels for i in range(1, k + 1)}
    for e, edge in h0.edges.items():
        if edge.label is None:
            continue
        (i, j), small_lab, big_lab = copy_info[e]
        l0, l1 = (h0.vertex_labels[u] for u in edge.ends)
        if embeddings.owner_label(l0) == big_lab:
            l0, l1 = l1, l0
        sets[(small_lab, i)].add(l0)
        sets[(big_lab, j)].add(l1)

    host = vortex.flatten(structure)
    branch_sets = {
        lex.index_of(key): frozenset(host.index_of(lab) for lab in labs)
        for key, labs in sets.items()
    }
    model = MinorModel(host, lex, branch_sets, 1)
    return structure, model


# ------------------------------------------------------------ constructions

def grid_model(n: int, k: int) -> MinorModel:
    """Explicit model of a complete graph of order nk in the grid blowup
    L_n[2k]: branch set (x, z) takes row x in copy 2z-1 and column x in
    copy 2z."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    host = graphs.lex_product(graphs.grid_graph(n), 2 * k)
    sets = {}
    for x in range(1, n + 1):
        for z in range(1, k + 1):
            members = {host.index_of(((x, y), 2 * z - 1)) for y in range(1, n + 1)}
            members |= {host.index_of(((y, x), 2 * z)) for y in range(1, n + 1)}
            sets[(x - 1) * k + (z - 1)] = frozenset(members)
    return MinorModel(host, graphs.complete_graph(n * k), sets, 1)


def _declare(cert: ConstructionCertificate, params) -> ConstructionCertificate:
    structure = dataclasses.replace(cert.structure, params=params)
    return dataclasses.replace(cert, structure=structure)


def one_vortex(g: int, k: int) -> ConstructionCertificate:
    """Single-vortex construction from a near-minimal complete-graph
    triangulation: delete one vertex, whose link is a Hamiltonian facial
    cycle, and run the vortex construction on it.  Yields a complete minor
    of order (m-1)k >= k*sqrt(6g)."""
    if g < 1:
        raise GZero("construction is vacuous without genus")
    if k < 1:
        raise ValueError("k must be >= 1")
    m0 = sympy.sqrt(6 * g) + 1
    m = next(
        (c for c in embeddings.CATALOG_MEMBERS if bool(m0 <= c) and bool(c <= m0 + 2)),
        None,
    )
    if m is None:
        lo = int(sympy.ceiling(m0))
        hi = int(sympy.floor(m0 + 2))
        raise GenusOutOfCatalog(
            f"no catalog triangulation of order in [{lo}, {hi}]",
            required_range=(lo, hi),
        )
    emb = embeddings.triangulation_catalog(m)
    reduced = embeddings.delete_vertex(emb, max(emb.vertices))
    hamiltonian = next(
        w
        for w in embeddings.trace_faces(reduced)
        if w.is_cycle and set(w.vertices) == set(reduced.vertex_labels)
    )
    structure, model = construct_vortex_graph(reduced, [hamiltonian], k)
    cert = ConstructionCertificate(
        structure=structure,
        target=(m - 1) * k,
        model=model,
        guarantee=k * sympy.sqrt(6 * g),
    )
    return _declare(cert, (g, 1, k, 0))


def many_vortex(p: int, k: int) -> ConstructionCertificate:
    """Many-vortex construction over an even grid: one vortex per 2x2 block,
    composed with the explicit grid blowup model.  Yields a complete minor
    of order 2*floor(sqrt(p))*floor(k/2) >= (2/(3*sqrt(3)))*k*sqrt(p)."""
    if k < 2:
        raise KTooSmall("at least two hub vertices per face vertex are needed")
    if p < 1:
        raise ValueError("p must be >= 1")
    m = int(sympy.floor(sympy.sqrt(p)))
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
    structure, outer = construct_vortex_graph(emb, faces, 2 * half)
    inner = grid_model(2 * m, half)
    model = minors.compose_models(outer, inner)
    cert = ConstructionCertificate(
        structure=structure,
        target=2 * m * half,
        model=model,
        guarantee=sympy.Rational(2, 3) * k * sympy.sqrt(p) / sympy.sqrt(3),
    )
    return _declare(cert, (0, p, k, 0))


def combined(g: int, p: int, k: int) -> ConstructionCertificate:
    """Either construction, whichever branch applies, re-declared for the
    requested class and carrying the uniform guarantee k*sqrt(p+g)/4."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if g < 0:
        raise ValueError("g must be >= 0")
    if g >= p and g >= 1:
        cert = one_vortex(g, k)
    else:
        cert = many_vortex(p, k)
    cert = _declare(cert, (g, p, k, 0))
    return dataclasses.replace(
        cert, guarantee=sympy.Rational(1, 4) * k * sympy.sqrt(p + g)
    )


def with_apex(g: int, p: int, k: int, a: int) -> ConstructionCertificate:
    """Combined construction plus `a` dominant apex vertices; both the
    target order and the guarantee grow by exactly a."""
    if a < 0:
        raise ValueError("a must be >= 0")
    cert = combined(g, p, k)
    if a == 0:
        return cert
    old_host = cert.model.host
    apex = tuple(("apex", j) for j in range(1, a + 1))
    apex_edges = [
        (x, lab) for x in apex for lab in old_host.labels
    ] + list(combinations(apex, 2))
    structure = dataclasses.replace(
        cert.structure,
        apex=apex,
        apex_edges=tuple(apex_edges),
        params=(g, p, k, a),
    )
    host = vortex.flatten(structure)
    n = cert.target
    sets = {
        x: frozenset(host.index_of(old_host.labels[v]) for v in s)
        for x, s in cert.model.branch_sets.items()
    }
    for j in range(1, a + 1):
        sets[n + j - 1] = frozenset({host.index_of(("apex", j))})
    model = MinorModel(host, graphs.complete_graph(n + a), sets, 1)
    return ConstructionCertificate(
        structure=structure,
        target=n + a,
        model=model,
        guarantee=a + cert.guarantee,
    )
