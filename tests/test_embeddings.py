import pytest

from hadwiger import embeddings, graphs
from hadwiger.embeddings import (
    CATALOG_MEMBERS,
    FacialWalk,
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
    h0 = split_at_faces(emb, [face])
    for v in h0.vertex_labels:
        if isinstance(h0.vertex_labels[v], graphs.Split):
            assert h0.degree(v) <= 3
    assert euler_genus(h0) == 0


def test_split_at_faces_keeps_small_degrees():
    # degree-3 vertices stay untouched
    emb = k4_embedding()
    face = trace_faces(emb)[0]
    h0 = split_at_faces(emb, [face])
    assert h0.n == 4
    assert not any(isinstance(lab, graphs.Split) for lab in h0.vertex_labels.values())


def test_split_at_faces_face_count_invariant():
    emb = multiply_edges(triangulation_catalog(6), 2)
    faces = trace_faces(emb)
    chosen = next(w for w in faces if w.is_cycle and len(w) == 3)
    h0 = split_at_faces(emb, [chosen])
    assert len(trace_faces(h0)) == len(faces)


def test_split_at_disjoint_faces_only():
    emb = k4_embedding()
    walks = trace_faces(emb)
    with pytest.raises(FacesNotDisjoint):
        split_at_faces(emb, [walks[0], walks[1]])


def test_split_at_faces_rejects_walks_that_are_not_faces():
    emb = multiply_edges(k4_embedding(), 2)
    face = next(w for w in trace_faces(emb) if len(w) == 3)
    e = face.states[0][0]
    not_faces = [
        FacialWalk((), ()),
        FacialWalk(((10**6, 0, 1),), ((0, 10**6),)),
        FacialWalk(((e, 0, 5),), face.incidences[:1]),
        # the right face, started at another dart-side
        FacialWalk(face.states[1:] + face.states[:1], face.incidences[1:] + face.incidences[:1]),
    ]
    for walk in not_faces:
        with pytest.raises(NotACycle):
            split_at_faces(emb, [walk])


def test_underlying_simple_collapses_copies():
    big = multiply_edges(k4_embedding(), 3)
    simple = big.simple
    assert simple.n == 4 and simple.m == 6


def test_face_through_returns_the_face_of_every_state():
    big = multiply_edges(k4_embedding(), 2)
    split = split_at_faces(big, [next(w for w in trace_faces(big) if len(w) == 3)])
    cases = [triangulation_catalog(m) for m in (4, 6, 7)] + [grid_embedding(3), split]
    for emb in cases:
        for walk in trace_faces(emb):
            for e, end, side in walk.states:
                # one band arc further along the same boundary circle
                arrival = -side if emb.edges[e].sign == 1 else side
                assert face_through(emb, (e, end, side)) == walk
                assert face_through(emb, (e, 1 - end, arrival)) == walk
