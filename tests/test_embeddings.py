import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadwiger import constructions, embeddings, graphs
from hadwiger.embeddings import (
    CATALOG_MEMBERS,
    EmbEdge,
    MultiEmbedding,
    embedding_from_neighbors,
    euler_genus,
    face_through,
    find_facial_cycle,
    grid_embedding,
    multiply_edges,
    split_at_faces,
    trace_faces,
    triangulation_catalog,
)
from hadwiger.errors import (
    Disconnected,
    FacesNotDisjoint,
    MalformedRotation,
    NotACycle,
    NotInCatalog,
)
from oracles import reference_faces


def k4_embedding():
    return embedding_from_neighbors(
        4, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]
    )


def test_face_tracing_tetrahedron():
    walks = trace_faces(k4_embedding())
    assert len(walks) == 4
    assert all(len(w) == 3 for w in walks)
    assert euler_genus(k4_embedding()) == 0


def test_face_tracing_covers_each_edge_twice():
    emb = grid_embedding(3)
    counts = {}
    for w in trace_faces(emb):
        for _, e in w.incidences:
            counts[e] = counts.get(e, 0) + 1
    assert all(c == 2 for c in counts.values())


def test_planar_cycle_two_faces():
    emb = embedding_from_neighbors(3, [[1, 2], [2, 0], [0, 1]])
    assert len(trace_faces(emb)) == 2
    assert euler_genus(emb) == 0


def test_nonorientable_signature_changes_genus():
    # flipping one cycle edge turns the sphere into the projective plane
    emb = embedding_from_neighbors(3, [[1, 2], [2, 0], [0, 1]], negative_edges=[(0, 1)])
    assert euler_genus(emb) == 1


def test_validate_rejects_wrong_dart():
    emb = k4_embedding()
    emb.rotation[0] = ((0, 1),) + emb.rotation[0][1:]
    with pytest.raises(MalformedRotation):
        emb.validate()


def test_embedding_with_a_wrong_dart_is_refused_when_built():
    emb = k4_embedding()
    rotation = dict(emb.rotation)
    rotation[0] = ((0, 1),) + rotation[0][1:]
    with pytest.raises(MalformedRotation):
        MultiEmbedding(emb.vertex_labels, emb.edges, rotation)


def test_euler_genus_requires_connected():
    emb = embedding_from_neighbors(2, [[1], [0]])
    emb.vertex_labels[2] = 2
    emb.rotation[2] = ()
    with pytest.raises(Disconnected):
        euler_genus(emb)


def test_grid_embedding_faces():
    emb = grid_embedding(3)
    walks = trace_faces(emb)
    # four unit squares plus the outer face
    assert len(walks) == 5
    assert sorted(len(w) for w in walks) == [4, 4, 4, 4, 8]
    assert euler_genus(emb) == 0


def test_find_facial_cycle():
    emb = grid_embedding(2)
    walk = find_facial_cycle(emb, [0, 1, 3, 2])
    assert set(walk.vertices) == {0, 1, 2, 3}


def test_catalog_entries_triangulate():
    for m in CATALOG_MEMBERS:
        emb = triangulation_catalog(m)
        walks = trace_faces(emb)
        assert all(len(w) == 3 for w in walks)
        assert euler_genus(emb) == (m - 3) * (m - 4) // 6


def test_catalog_rejects_unknown_order():
    with pytest.raises(NotInCatalog):
        triangulation_catalog(5)
    with pytest.raises(NotInCatalog):
        triangulation_catalog(9)


def test_delete_vertex_leaves_hamiltonian_face():
    emb = triangulation_catalog(7)
    reduced = embeddings.delete_vertex(emb, 6)
    walks = trace_faces(reduced)
    hamiltonian = [w for w in walks if w.is_cycle and len(w) == 6]
    assert len(hamiltonian) == 1
    assert set(hamiltonian[0].vertices) == set(range(6))


def test_multiply_edges_preserves_genus():
    for emb in (k4_embedding(), triangulation_catalog(6), triangulation_catalog(7)):
        for k in (2, 3):
            big = multiply_edges(emb, k)
            assert big.m == emb.m * k * k
            assert euler_genus(big) == euler_genus(emb)


def test_multiply_edges_labels_cover_all_pairs():
    big = multiply_edges(k4_embedding(), 2)
    labels = [e.label for e in big.edges.values()]
    assert labels.count((1, 2)) == 6


def test_split_at_faces_reduces_degree():
    emb = multiply_edges(k4_embedding(), 2)
    face = next(w for w in trace_faces(emb) if len(w) == 3)
    h0 = split_at_faces(emb, [face.states[0]])
    for v in h0.vertex_labels:
        if isinstance(h0.vertex_labels[v], graphs.Split):
            assert h0.degree(v) <= 3
    assert euler_genus(h0) == 0


def test_split_at_faces_keeps_small_degrees():
    # degree-3 vertices stay untouched
    emb = k4_embedding()
    face = trace_faces(emb)[0]
    h0 = split_at_faces(emb, [face.states[0]])
    assert h0.n == 4
    assert not any(isinstance(lab, graphs.Split) for lab in h0.vertex_labels.values())


def test_split_at_faces_face_count_invariant():
    emb = multiply_edges(triangulation_catalog(6), 2)
    faces = trace_faces(emb)
    chosen = next(w for w in faces if w.is_cycle and len(w) == 3)
    h0 = split_at_faces(emb, [chosen.states[0]])
    assert len(trace_faces(h0)) == len(faces)


def test_split_at_disjoint_faces_only():
    emb = k4_embedding()
    walks = trace_faces(emb)
    with pytest.raises(FacesNotDisjoint):
        split_at_faces(emb, [walks[0].states[0], walks[1].states[0]])


def test_split_at_faces_rejects_a_face_that_repeats_a_vertex():
    # the path 0-1-2 has one face, 0-1-2-1, through every dart-side
    emb = embedding_from_neighbors(3, [[1], [0, 2], [1]])
    for e in emb.edges:
        for end in (0, 1):
            for side in (1, -1):
                with pytest.raises(NotACycle):
                    split_at_faces(emb, [(e, end, side)])


def test_face_through_answers_alike_from_the_cached_faces():
    # every dart-side of every face, on both of its orbits, gives the walk
    # the reference tracer lists, on a fresh embedding and on one whose
    # faces are already cached
    cases = [
        k4_embedding(),
        multiply_edges(k4_embedding(), 2),
        grid_embedding(3),
        triangulation_catalog(6),
        embedding_from_neighbors(3, [[1, 2], [2, 0], [0, 1]]),
    ]
    for cached in cases:
        fresh = MultiEmbedding(cached.vertex_labels, cached.edges, cached.rotation)
        assert "faces" not in vars(fresh)
        assert len(cached.faces) == len(reference_faces(cached))
        sides = set()
        for states, incidences in reference_faces(cached):
            for e, end, side in states:
                # one band arc further along the same boundary circle
                arrival = -side if cached.edges[e].sign == 1 else side
                for state in ((e, end, side), (e, 1 - end, arrival)):
                    sides.add(state)
                    for emb in (fresh, cached):
                        walk = face_through(emb, state)
                        assert (walk.states, walk.incidences) == (states, incidences)
        assert len(sides) == 4 * cached.m
        assert "faces" not in vars(fresh)


def test_underlying_simple_collapses_copies():
    big = multiply_edges(k4_embedding(), 3)
    simple = big.simple
    assert simple.n == 4 and simple.m == 6


def test_face_through_returns_the_face_of_every_state():
    big = multiply_edges(k4_embedding(), 2)
    split = split_at_faces(big, [next(w for w in trace_faces(big) if len(w) == 3).states[0]])
    cases = [triangulation_catalog(m) for m in (4, 6, 7)] + [grid_embedding(3), split]
    for emb in cases:
        for walk in trace_faces(emb):
            for e, end, side in walk.states:
                # one band arc further along the same boundary circle
                arrival = -side if emb.edges[e].sign == 1 else side
                assert face_through(emb, (e, end, side)) == walk
                assert face_through(emb, (e, 1 - end, arrival)) == walk


# the round-trip points of the benchmark at seed 1: four many-vortex and
# four one-vortex certificates, (g, p, k, a)
ROUND_TRIP_POINTS = [
    (5, 7, 5, 0), (3, 4, 3, 0), (0, 1, 3, 1), (3, 15, 2, 0),
    (1, 1, 6, 1), (4, 2, 4, 0), (5, 3, 4, 1), (1, 1, 4, 0),
]
# SHA-256 over the traced states and incidences of the catalog entries, the
# 4x4 grid and the bases of ROUND_TRIP_POINTS, recorded with the tuple-based
# tracer that preceded the side table
TRACED_FACES = "8bff57df36326f3f11ff1c9f1e600324fb63764522b6956e79f1cc222e19186f"


def test_traced_faces_are_pinned():
    embs = [triangulation_catalog(m) for m in CATALOG_MEMBERS] + [grid_embedding(4)]
    embs += [constructions.with_apex(*point).structure.base for point in ROUND_TRIP_POINTS]
    digest = hashlib.sha256()
    for emb in embs:
        for walk in trace_faces(emb):
            digest.update(repr((walk.states, walk.incidences)).encode())
    assert digest.hexdigest() == TRACED_FACES


def test_emb_edge_defaults_and_keywords():
    edge = EmbEdge(3, (0, 1))
    assert (edge.id, edge.ends, edge.sign, edge.label) == (3, (0, 1), 1, None)
    assert EmbEdge(id=3, ends=(0, 1), sign=-1, label=(1, 2)) == EmbEdge(3, (0, 1), -1, (1, 2))
    assert repr(edge) == "EmbEdge(id=3, ends=(0, 1), sign=1, label=None)"


@st.composite
def rotation_systems(draw):
    """A random connected rotation system: a spanning tree plus extra edges
    (parallel ones allowed), sparse and negative edge ids, random
    signatures and random cyclic orders."""
    n = draw(st.integers(1, 8))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        pairs += draw(st.lists(extra, max_size=8))
    ids = draw(st.lists(st.integers(-40, 40), min_size=len(pairs), max_size=len(pairs), unique=True))
    edges = {e: EmbEdge(e, pair, draw(st.sampled_from([1, -1]))) for e, pair in zip(ids, pairs)}
    darts = {v: [] for v in range(n)}
    for e, edge in edges.items():
        for end in (0, 1):
            darts[edge.ends[end]].append((e, end))
    rotation = {v: tuple(draw(st.permutations(ds))) for v, ds in darts.items()}
    emb = MultiEmbedding({v: v for v in range(n)}, edges, rotation)
    emb.validate()
    return emb


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rotation_systems())
def test_trace_faces_matches_the_reference_tracer(emb):
    walks = trace_faces(emb)
    assert [(w.states, w.incidences) for w in walks] == reference_faces(emb)
    # every dart-side lies on exactly one face circle: on the walk's own
    # orbit or, one band arc further, on its partner
    holder = {}
    for walk in walks:
        for e, end, side in walk.states:
            arrival = -side if emb.edges[e].sign == 1 else side
            holder[(e, end, side)] = holder[(e, 1 - end, arrival)] = walk
    states = [(e, end, side) for e in emb.edges for end in (0, 1) for side in (1, -1)]
    assert len(holder) == len(states)
    for state in states:
        assert face_through(emb, state) == holder[state]


def _cycles_equal_by_brute_force(a, b):
    a, b = list(a), list(b)
    turns = [a[i:] + a[:i] for i in range(len(a))] or [[]]
    return b in turns or b in [t[::-1] for t in turns]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    a=st.lists(st.integers(0, 2), max_size=7),
    shift=st.integers(0, 6),
    flip=st.booleans(),
    edit=st.none() | st.tuples(st.integers(0, 6), st.integers(0, 2)),
    extra=st.lists(st.integers(0, 2), max_size=1),
)
def test_cycles_equal_matches_brute_force(a, shift, flip, edit, extra):
    b = a[shift % len(a):] + a[:shift % len(a)] if a else []
    b = (b[::-1] if flip else b) + extra
    if edit and b:
        b[edit[0] % len(b)] = edit[1]
    assert embeddings._cycles_equal(a, b) == _cycles_equal_by_brute_force(a, b)


def test_cycles_equal_is_linear_on_a_long_cycle():
    rng = random.Random(0)
    a = rng.sample(range(10**6), 5000)
    turned = (a[1234:] + a[:1234])[::-1]
    broken = turned[:-1] + [-1]
    start = time.perf_counter()
    assert embeddings._cycles_equal(a, turned)
    assert not embeddings._cycles_equal(a, broken)
    assert time.perf_counter() - start < 0.05
