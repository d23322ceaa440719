import pytest

from hadwiger import constructions, embeddings, graphs, minors, vortex
from hadwiger.errors import InvalidDecomposition
from hadwiger.vortex import AlmostEmbeddable, Vortex


def single_vertex_vortex():
    g = graphs.from_edges(1, [], ("w",))
    return Vortex(g, ("w",), (frozenset({0}),))


def path_vortex():
    """Perimeter a-b-c-d with one interior vertex x spanning b and c.
    Perimeter edges live in the base graph, not in the vortex.  Bags hold
    vertex indices: a, b, c, d, x are 0, 1, 2, 3, 4."""
    g = graphs.from_edges(5, [(1, 4), (2, 4)], ("a", "b", "c", "d", "x"))
    bags = (
        frozenset({0}),
        frozenset({1, 4}),
        frozenset({2, 4}),
        frozenset({3}),
    )
    return Vortex(g, ("a", "b", "c", "d"), bags)


def test_width_single_vertex():
    assert vortex.vortex_width(single_vertex_vortex()) == 0


def test_width_counts_max_bag():
    assert vortex.vortex_width(path_vortex()) == 1


def test_validate_circular_passes():
    assert vortex.validate_circular(path_vortex()).ok


def test_missing_edge_cover_fails_property_3():
    v = path_vortex()
    bad = Vortex(v.graph, v.perimeter, (v.bags[0], frozenset({1})) + v.bags[2:])
    rep = vortex.validate_circular(bad)
    failed = {c.name for c in rep.failures}
    assert "property-3-covers-edges" in failed


def test_nonconsecutive_occurrence_fails_property_4():
    v = path_vortex()
    # x lands in bags 1 and 3 but neither 0 nor 2
    bags = (
        frozenset({0}),
        frozenset({1, 4}),
        frozenset({2}),
        frozenset({3, 4}),
    )
    rep = vortex.validate_circular(Vortex(v.graph, v.perimeter, bags))
    assert not rep.ok
    assert any(c.name == "property-4-consecutive" for c in rep.failures)


def test_wraparound_occurrence_is_consecutive():
    # x occupies bags 3 and 0, consecutive only through the wraparound
    g = graphs.from_edges(5, [(0, 4), (3, 4)], ("a", "b", "c", "d", "x"))
    bags = (
        frozenset({0, 4}),
        frozenset({1}),
        frozenset({2}),
        frozenset({3, 4}),
    )
    rep = vortex.validate_circular(Vortex(g, ("a", "b", "c", "d"), bags))
    assert rep.ok
    assert all(c.ok for c in rep.checks if c.name == "property-4-consecutive")


@pytest.mark.parametrize("entry", [5, -1], ids=["n", "minus-one"])
def test_bag_index_outside_the_graph_is_refused(entry):
    v = path_vortex()
    with pytest.raises(ValueError, match="outside 0..4"):
        Vortex(v.graph, v.perimeter, (v.bags[0] | {entry},) + v.bags[1:])


def test_width_raises_with_property_index():
    v = path_vortex()
    bad = Vortex(v.graph, v.perimeter, (frozenset(),) + v.bags[1:])
    with pytest.raises(InvalidDecomposition, match="property-1"):
        vortex.vortex_width(bad)


def construction_structure(k=2):
    emb = embeddings.triangulation_catalog(3)
    face = embeddings.trace_faces(emb)[0]
    return constructions.construct_vortex_graph(emb, [face], k, (0, 1, k, 0))


def test_construction_vortex_validates():
    structure, _ = construction_structure()
    assert len(structure.vortices) == 1
    assert vortex.validate_circular(structure.vortices[0]).ok
    assert vortex.vortex_width(structure.vortices[0]) <= 2


def test_validate_almost_embeddable_passes():
    structure, _ = construction_structure()
    assert vortex.validate_almost_embeddable(structure).ok


def test_disconnected_base_fails_base_genus():
    two_triangles = embeddings.embedding_from_neighbors(
        6, [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]]
    )
    rep = vortex.validate_almost_embeddable(AlmostEmbeddable(base=two_triangles))
    assert [(c.name, c.witness) for c in rep.failures] == [
        ("base-genus", "euler genus requires a connected embedding")
    ]


def test_programming_error_in_the_genus_check_propagates(monkeypatch):
    structure, _ = construction_structure()

    def broken(emb):
        raise RuntimeError("not a validation failure")

    monkeypatch.setattr(embeddings, "euler_genus", broken)
    with pytest.raises(RuntimeError):
        vortex.validate_almost_embeddable(structure)


def test_apex_label_equal_to_a_host_label_is_refused():
    host = graphs.from_edges(2, [(0, 1)], ("x", "y"))
    with pytest.raises(ValueError, match="labels not unique"):
        graphs.union_by_labels([host], ("y",), ())
    # an unknown end is refused first, then a loop, then the shared label
    with pytest.raises(ValueError, match="end 'q' names no vertex"):
        graphs.union_by_labels([host], ("y",), (("y", "y"), ("q", "x")))
    with pytest.raises(ValueError, match="apex edge loop at 'y'"):
        graphs.union_by_labels([host], ("y",), (("x", "y"), ("y", "y")))


def test_tightened_declaration_fails_width():
    import dataclasses

    structure, _ = construction_structure(k=2)
    g, p, _, a = structure.params
    tight = dataclasses.replace(structure, params=(g, p, 1, a))
    rep = vortex.validate_almost_embeddable(tight)
    assert any("width" in c.name for c in rep.failures)


def test_invalid_vortex_fails_width_with_first_circular_failure(monkeypatch):
    import dataclasses

    structure, _ = construction_structure()
    v = structure.vortices[0]
    own = v.graph.index_of(v.perimeter[0])
    evicted = Vortex(v.graph, v.perimeter, (v.bags[0] - {own},) + v.bags[1:])
    broken = dataclasses.replace(structure, vortices=(evicted,))
    first = vortex.validate_circular(evicted).failures[0]
    assert first.name == "property-1-own-bag"

    calls = []
    real = vortex.validate_circular
    monkeypatch.setattr(vortex, "validate_circular", lambda w: calls.append(w) or real(w))
    rep = vortex.validate_almost_embeddable(broken)
    width = next(c for c in rep.checks if c.name == "vortex-0-width")
    assert not width.ok
    assert width.witness == str(first)
    assert calls == [evicted]


def test_shared_vertex_between_vortices_rejected():
    structure, _ = construction_structure()
    import dataclasses

    v = structure.vortices[0]
    doubled = dataclasses.replace(
        structure,
        vortices=(v, v),
        disc_faces=(structure.disc_faces[0], structure.disc_faces[0]),
        params=(structure.params[0], 2) + structure.params[2:],
    )
    rep = vortex.validate_almost_embeddable(doubled)
    assert any(c.name == "vortices-disjoint" for c in rep.failures)


def test_flatten_no_vortices_is_base_graph():
    emb = embeddings.triangulation_catalog(4)
    a = AlmostEmbeddable(base=emb, params=(0, 0, 0, 0))
    flat = vortex.flatten(a)
    base = emb.simple
    assert flat.labels == base.labels and flat.edges() == base.edges()


def test_flatten_k3_blowup_contains_k6():
    structure, model = construction_structure(k=2)
    host = vortex.flatten(structure)
    assert minors.verify_model(model).ok
    assert model.pattern.n == 6
    assert model.host.labels == host.labels


def test_apex_raises_hadwiger_number_by_count():
    emb = embeddings.triangulation_catalog(4)
    base = emb.simple
    bare = AlmostEmbeddable(base=emb, params=(0, 0, 0, 0))
    eta0 = minors.hadwiger_model(vortex.flatten(bare))[0]
    apexed = AlmostEmbeddable(
        base=emb,
        apex=("a1", "a2"),
        apex_edges=tuple(
            [("a1", lab) for lab in base.labels]
            + [("a2", lab) for lab in base.labels]
            + [("a1", "a2")]
        ),
        params=(0, 0, 0, 2),
    )
    assert vortex.validate_almost_embeddable(apexed).ok
    assert minors.hadwiger_model(vortex.flatten(apexed))[0] == eta0 + 2

