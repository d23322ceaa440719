import hashlib
import json
import math

import pytest
import sympy

from hadwiger import constructions, embeddings, minors, serialize, vortex
from hadwiger.cli import main
from hadwiger.errors import FacesNotDisjoint, GenusOutOfCatalog, KTooSmall
from oracles import as_sympy


def triangle_face():
    emb = embeddings.triangulation_catalog(3)
    return emb, embeddings.trace_faces(emb)[0]


def assert_family_guarantee(cert, paper_bound, g, p, k, a):
    """The target meets the family's bound from the paper, and the guarantee
    is the declared class's a + k*sqrt(p+g)/4."""
    assert bool(cert.target >= a + paper_bound), (cert.target, paper_bound)
    assert as_sympy(cert.guarantee) == a + sympy.Rational(k, 4) * sympy.sqrt(p + g)


def one_vortex_bound(g, k):
    return k * sympy.sqrt(6 * g)


def many_vortex_bound(p, k):
    return sympy.Rational(2, 3) * k * sympy.sqrt(p) / sympy.sqrt(3)


def test_vortex_graph_k3_k1():
    emb, face = triangle_face()
    structure, model = constructions.construct_vortex_graph(emb, [face], 1, (0, 1, 1, 0))
    assert vortex.validate_almost_embeddable(structure).ok
    assert minors.verify_model(model).ok
    assert model.pattern.n == 3
    assert structure.params == (0, 1, 1, 0)


def test_vortex_graph_k3_k2_gives_k6():
    emb, face = triangle_face()
    structure, model = constructions.construct_vortex_graph(emb, [face], 2, (0, 1, 2, 0))
    assert minors.verify_model(model).ok
    assert model.pattern.n == 6
    assert model.pattern.m == 15
    assert vortex.vortex_width(structure.vortices[0]) <= 2


def test_vortex_graph_l2_inner_face():
    emb = embeddings.grid_embedding(2)
    face = embeddings.find_facial_cycle(emb, [0, 1, 3, 2])
    structure, model = constructions.construct_vortex_graph(emb, [face], 2, (0, 1, 2, 0))
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
        structure, _ = constructions.construct_vortex_graph(base, [face], k, (0, 1, k, 0))
        (disc,) = structure.disc_faces
        assert disc in embeddings.trace_faces(structure.base)
        owners = [
            embeddings.owner_label(structure.base.vertex_labels[v]) for v in disc.vertices
        ]
        collapsed = [lab for i, lab in enumerate(owners) if lab != owners[i - 1]]
        expected = [base.vertex_labels[v] for v in face.vertices]
        rotations = [collapsed[i:] + collapsed[:i] for i in range(len(collapsed))]
        assert expected in rotations, (collapsed, expected)


def test_vortex_graph_rejects_overlapping_faces():
    emb = embeddings.grid_embedding(2)
    inner = embeddings.find_facial_cycle(emb, [0, 1, 3, 2])
    outer = next(w for w in embeddings.trace_faces(emb) if w.states != inner.states)
    with pytest.raises(FacesNotDisjoint):
        constructions.construct_vortex_graph(emb, [inner, outer], 2, (0, 2, 2, 0))


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
    cert = constructions.one_vortex(1, 1, 1, 0)
    assert cert.target == 3
    assert constructions.verify_certificate(cert).ok
    assert not cert.guarantee >= 3
    assert_family_guarantee(cert, one_vortex_bound(1, 1), 1, 1, 1, 0)


def test_one_vortex_g1_k2():
    cert = constructions.one_vortex(1, 1, 2, 0)
    assert cert.target == 6
    assert constructions.verify_certificate(cert).ok


def test_one_vortex_g2_k1_uses_k6():
    cert = constructions.one_vortex(2, 1, 1, 0)
    assert cert.target == 5
    assert_family_guarantee(cert, one_vortex_bound(2, 1), 2, 1, 1, 0)
    assert constructions.verify_certificate(cert).ok


def test_one_vortex_catalog_gap():
    # first genus whose triangulation order falls outside the catalog
    with pytest.raises(GenusOutOfCatalog) as exc:
        constructions.one_vortex(7, 1, 1, 0)
    assert exc.value.required_range == (8, 9)


def test_many_vortex_p1_k2():
    cert = constructions.many_vortex(0, 1, 2, 0)
    assert cert.target == 2
    assert constructions.verify_certificate(cert).ok
    assert cert.structure.params == (0, 1, 2, 0)


def test_many_vortex_p4_k2():
    cert = constructions.many_vortex(0, 4, 2, 0)
    assert cert.target == 4
    assert constructions.verify_certificate(cert).ok


@pytest.mark.parametrize("p, k", [(1, 2), (3, 3), (5, 2), (12, 4)])
def test_many_vortex_guarantee_matches_sympy(p, k):
    cert = constructions.many_vortex(0, p, k, 0)
    assert_family_guarantee(cert, many_vortex_bound(p, k), 0, p, k, 0)


def test_many_vortex_floor_behavior():
    assert constructions.many_vortex(0, 1, 3, 0).target == 2


def test_many_vortex_rejects_k1():
    with pytest.raises(KTooSmall):
        constructions.many_vortex(0, 4, 1, 0)


def test_with_apex_branches():
    high_genus = constructions.with_apex(2, 1, 2, 0)
    assert high_genus.target == 10
    assert bool(as_sympy(high_genus.guarantee) == sympy.sqrt(3) / 2)
    flat = constructions.with_apex(0, 1, 2, 0)
    assert flat.target == 2
    mixed = constructions.with_apex(1, 4, 2, 0)
    assert mixed.target == 4
    for cert in (high_genus, flat, mixed):
        assert constructions.verify_certificate(cert).ok


def test_with_apex_zero_is_the_family_certificate():
    cert = constructions.with_apex(0, 1, 2, 0)
    family = constructions.many_vortex(0, 1, 2, 0)
    assert cert.target == family.target
    assert serialize.certificate_to_json(cert) == serialize.certificate_to_json(family)


FAMILY_POINTS = [
    ("one_vortex", (1, 1, 1, 0)),
    ("one_vortex", (2, 1, 2, 2)),
    ("many_vortex", (0, 1, 2, 0)),
    ("many_vortex", (1, 4, 3, 1)),
]


@pytest.mark.parametrize("family, point", FAMILY_POINTS)
def test_family_certificate_reloads_with_its_guarantee(family, point):
    cert = getattr(constructions, family)(*point)
    text = serialize.dumps(serialize.certificate_to_json(cert))
    obj = json.loads(text)
    back = serialize.certificate_from_json(obj)
    assert back.guarantee == cert.guarantee
    assert obj["guarantee_expr"] == str(back.guarantee)
    assert serialize.dumps(serialize.certificate_to_json(back)) == text
    assert constructions.verify_certificate(back).ok


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
    assert as_sympy(cert.guarantee) == 3 + sympy.Rational(1, 2) * sympy.sqrt(2)


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


def _record_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that keeps each call's argument."""
    calls = []
    real = getattr(module, name)

    def recorded(arg):
        calls.append(arg)
        return real(arg)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_verify_traces_and_flattens_once(tmp_path, capsys, monkeypatch):
    cert = tmp_path / "cert.json"
    assert main(["construct", "--g", "0", "--p", "4", "--k", "2", "--out", str(cert)]) == 0
    traced = _record_calls(monkeypatch, embeddings, "trace_faces")
    flattened = _record_calls(monkeypatch, vortex, "flatten")
    assert main(["verify", str(cert)]) == 0
    # the genus counts orbits and each disc face is traced alone, so no
    # full face list of the base is ever built
    assert (len(traced), len(flattened)) == (0, 1)


def test_construct_traces_each_embedding_at_most_once(monkeypatch):
    traced = _record_calls(monkeypatch, embeddings, "trace_faces")
    multiplied = []
    real = embeddings.multiply_edges

    def recorded(emb, k):
        multiplied.append(real(emb, k))
        return multiplied[-1]

    monkeypatch.setattr(embeddings, "multiply_edges", recorded)
    constructions.with_apex(0, 4, 2, 0)
    # the lists keep every embedding alive, so no id is reused
    traced_ids = {id(emb) for emb in traced}
    assert traced and len(traced_ids) == len(traced)
    # splitting checks its walks one face at a time
    assert multiplied and not traced_ids & {id(emb) for emb in multiplied}


@pytest.mark.parametrize("point", [(0, 4, 2, 0), (0, 4, 2, 1), (1, 1, 2, 0)])
def test_construct_flattens_each_structure_once(tmp_path, monkeypatch, point):
    flattened = _record_calls(monkeypatch, vortex, "flatten")
    argv = ["construct"] + [
        x for flag, v in zip(("--g", "--p", "--k", "--a"), point) for x in (flag, str(v))
    ]
    assert main(argv + ["--out", str(tmp_path / "cert.json")]) == 0
    # the structure is built once, apexes included, and flattened once
    assert len(flattened) == 1


@pytest.mark.parametrize("point", [(0, 4, 2, 1), (1, 1, 2, 0)])
def test_construct_and_verify_take_the_base_genus_once(monkeypatch, point):
    genus_of = _record_calls(monkeypatch, embeddings, "euler_genus")
    cert = constructions.with_apex(*point)
    assert constructions.verify_certificate(cert).ok
    assert sum(emb is cert.structure.base for emb in genus_of) == 1


@pytest.mark.parametrize("point", [(0, 4, 2, 1), (1, 1, 2, 2)])
def test_with_apex_host_equals_flatten(point):
    structure = constructions.with_apex(*point).structure
    host = vars(structure)["host"]
    fresh = vortex.flatten(structure)
    assert host.labels == fresh.labels
    assert host.edges() == fresh.edges()


def test_catalog_decision_matches_sympy():
    for g in range(1, 501):
        m0 = sympy.sqrt(6 * g) + 1
        fits = [c for c in embeddings.CATALOG_MEMBERS if m0 <= c <= m0 + 2]
        if fits:
            assert constructions.one_vortex(g, 1, 1, 0).target == fits[0] - 1, g
        else:
            with pytest.raises(GenusOutOfCatalog) as exc:
                constructions.one_vortex(g, 1, 1, 0)
            expected = (int(sympy.ceiling(m0)), int(sympy.floor(m0 + 2)))
            assert exc.value.required_range == expected, g


def test_many_vortex_isqrt_matches_sympy():
    for p in range(1, 10001):
        m = math.isqrt(p)
        assert m * m <= p < (m + 1) * (m + 1), p
    for m in range(1, 101):
        for p in (m * m - 1, m * m, m * m + 1):
            assert math.isqrt(p) == int(sympy.floor(sympy.sqrt(p))), p
