import hashlib

import pytest
import sympy

from hadwiger import constructions, embeddings, graphs, minors, serialize, vortex
from hadwiger.errors import (
    FacesDontCoverVertices,
    FacesNotDisjoint,
    GenusOutOfCatalog,
    GZero,
    KTooSmall,
)


def triangle_face():
    emb = embeddings.triangulation_catalog(3)
    return emb, embeddings.trace_faces(emb)[0]


def test_vortex_graph_k3_k1():
    emb, face = triangle_face()
    structure, model = constructions.construct_vortex_graph(emb, [face], 1)
    assert vortex.validate_almost_embeddable(structure).ok
    assert minors.verify_model(model).ok
    assert model.pattern.n == 3
    assert structure.params == (0, 1, 1, 0)


def test_vortex_graph_k3_k2_gives_k6():
    emb, face = triangle_face()
    structure, model = constructions.construct_vortex_graph(emb, [face], 2)
    assert minors.verify_model(model).ok
    assert model.pattern.n == 6
    assert model.pattern.m == 15
    assert vortex.vortex_width(structure.vortices[0]) <= 2


def test_vortex_graph_l2_inner_face():
    emb = embeddings.grid_embedding(2)
    face = embeddings.find_facial_cycle(emb, [0, 1, 3, 2])
    structure, model = constructions.construct_vortex_graph(emb, [face], 2)
    assert vortex.validate_almost_embeddable(structure).ok
    assert minors.verify_model(model).ok
    assert structure.params == (0, 1, 2, 0)


def test_disc_faces_follow_input_faces():
    emb, face = triangle_face()
    grid = embeddings.grid_embedding(2)
    cases = [
        (emb, face, 1),
        (emb, face, 2),
        (grid, embeddings.find_facial_cycle(grid, [0, 1, 3, 2]), 2),
    ]
    for base, face, k in cases:
        structure, _ = constructions.construct_vortex_graph(base, [face], k)
        (disc,) = structure.disc_faces
        assert disc in embeddings.trace_faces(structure.base)
        owners = [
            embeddings.owner_label(structure.base.vertex_labels[v]) for v in disc.vertices
        ]
        collapsed = [lab for i, lab in enumerate(owners) if lab != owners[i - 1]]
        expected = [base.vertex_labels[v] for v in face.vertices]
        rotations = [collapsed[i:] + collapsed[:i] for i in range(len(collapsed))]
        assert expected in rotations, (collapsed, expected)


def test_vortex_graph_rejects_partial_cover():
    emb = embeddings.grid_embedding(3)
    face = embeddings.find_facial_cycle(emb, [0, 1, 4, 3])
    with pytest.raises(FacesDontCoverVertices):
        constructions.construct_vortex_graph(emb, [face], 2)


def test_vortex_graph_rejects_overlapping_faces():
    emb = embeddings.grid_embedding(2)
    inner = embeddings.find_facial_cycle(emb, [0, 1, 3, 2])
    outer = next(w for w in embeddings.trace_faces(emb) if w.states != inner.states)
    with pytest.raises(FacesNotDisjoint):
        constructions.construct_vortex_graph(emb, [inner, outer], 2)


def test_grid_model_trivial():
    model = constructions.grid_model(1, 1)
    assert model.pattern.n == 1
    assert model.host.n == 2
    assert minors.verify_model(model).ok


def test_grid_model_n2_k1_branch_set():
    model = constructions.grid_model(2, 1)
    assert minors.verify_model(model).ok
    host = model.host
    expected = {
        host.index_of(((1, 1), 1)),
        host.index_of(((1, 2), 1)),
        host.index_of(((1, 1), 2)),
        host.index_of(((2, 1), 2)),
    }
    assert model.branch_sets[0] == frozenset(expected)


def test_grid_model_n3_k2():
    model = constructions.grid_model(3, 2)
    assert model.pattern.n == 6
    rep = minors.verify_model(model)
    assert rep.ok
    sets = list(model.branch_sets.values())
    assert all(a.isdisjoint(b) for i, a in enumerate(sets) for b in sets[i + 1:])


def test_one_vortex_g1_k1():
    cert = constructions.one_vortex(1, 1)
    assert cert.target == 3
    assert constructions.verify_certificate(cert).ok
    assert bool(cert.guarantee < 3)
    assert cert.guarantee == sympy.sqrt(6)


def test_one_vortex_g1_k2():
    cert = constructions.one_vortex(1, 2)
    assert cert.target == 6
    assert constructions.verify_certificate(cert).ok


def test_one_vortex_g2_k1_uses_k6():
    cert = constructions.one_vortex(2, 1)
    assert cert.target == 5
    assert cert.guarantee == sympy.sqrt(12)
    assert constructions.verify_certificate(cert).ok


def test_one_vortex_rejects_g0():
    with pytest.raises(GZero):
        constructions.one_vortex(0, 2)


def test_one_vortex_catalog_gap():
    # first genus whose triangulation order falls outside the catalog
    with pytest.raises(GenusOutOfCatalog) as exc:
        constructions.one_vortex(7, 1)
    assert exc.value.required_range == (8, 9)


def test_many_vortex_p1_k2():
    cert = constructions.many_vortex(1, 2)
    assert cert.target == 2
    assert constructions.verify_certificate(cert).ok
    assert cert.structure.params == (0, 1, 2, 0)


def test_many_vortex_p4_k2():
    cert = constructions.many_vortex(4, 2)
    assert cert.target == 4
    assert constructions.verify_certificate(cert).ok


def test_many_vortex_floor_behavior():
    assert constructions.many_vortex(1, 3).target == 2


def test_many_vortex_rejects_k1():
    with pytest.raises(KTooSmall):
        constructions.many_vortex(4, 1)


def test_combined_branches():
    high_genus = constructions.combined(2, 1, 2)
    assert high_genus.target == 10
    assert bool(high_genus.guarantee == sympy.sqrt(3) / 2)
    flat = constructions.combined(0, 1, 2)
    assert flat.target == 2
    mixed = constructions.combined(1, 4, 2)
    assert mixed.target == 4
    for cert in (high_genus, flat, mixed):
        assert constructions.verify_certificate(cert).ok


def test_with_apex_zero_is_combined():
    assert constructions.with_apex(0, 1, 2, 0).target == constructions.combined(0, 1, 2).target


def test_with_apex_adds_singletons():
    cert = constructions.with_apex(0, 1, 2, 3)
    assert cert.target == 5
    assert constructions.verify_certificate(cert).ok
    host = cert.model.host
    for j in (1, 2, 3):
        idx = host.index_of(("apex", j))
        assert frozenset({idx}) in cert.model.branch_sets.values()


def test_with_apex_one_vortex_branch():
    cert = constructions.with_apex(1, 1, 2, 1)
    assert cert.target == 7
    assert constructions.verify_certificate(cert).ok


def test_certificate_guarantee_is_exact():
    cert = constructions.with_apex(1, 1, 2, 3)
    assert cert.guarantee == 3 + sympy.Rational(1, 2) * sympy.sqrt(2)


# SHA-256 of the serialized certificate of with_apex(g, p, k, a), pinned so
# that a refactor of the construction cannot change certificate bytes
# unnoticed.  The points cover many-vortex with one, four and nine vortices,
# one-vortex on the K4, K6 (nonorientable) and K7 catalog entries, apexes,
# and k = 3.
PINNED_CERTIFICATES = {
    (0, 1, 2, 1): "150c14e9e5070ec2c773896ca6dafee317b1d8bbc4791c54e692ecce6c742c62",
    (0, 4, 2, 0): "65d646193cc867d547642bd997bd0b469b3bf255a9aab8527958af4abe7cb914",
    (0, 9, 2, 0): "a2965f210d1cd4d30e4e72b1554cd418b890382038ed87676857c352cdf36a74",
    (1, 1, 2, 0): "62a0c57d23bd6be2a6213febb85dbec225434af87969265c4e23b633722e1f42",
    (2, 1, 2, 0): "7cd0d34ec1f36e8f64e7dd6b222d9311a3d765855aec5f174c0d0135fd3ff15f",
    (5, 1, 2, 1): "a8e440c20cc7f2c3d1da1f787358f57f47d1c99ca77e9ebe8f4d879d289699c6",
    (1, 1, 3, 0): "66700aa09299651e222102a46d192d6615e43f2a3a9f3280e48d0a55633a920b",
}


def test_certificate_bytes_are_pinned():
    for point, digest in PINNED_CERTIFICATES.items():
        cert = constructions.with_apex(*point)
        text = serialize.dumps(serialize.certificate_to_json(cert))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, point
