import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from hadwiger import graphs, minors, serialize
from hadwiger.errors import BudgetExceeded
from hadwiger.minors import MinorModel
from oracles import (
    bramble_order,
    check_tree_decomposition,
    naive_eta,
    naive_treewidth,
)
from paper_lemmas import (
    clique_sum_with_embeddings,
    cycle_graph,
    lex_to_model,
    model_to_lex,
    project_model_cliquesum,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graphs.from_edges(10, outer + spokes + inner)


def c6_triangle_model():
    c6 = cycle_graph(6)
    sets = {0: frozenset({0, 1}), 1: frozenset({2, 3}), 2: frozenset({4, 5})}
    return MinorModel(c6, graphs.complete_graph(3), sets, 1)


def test_verify_model_passes_c6_contraction():
    assert minors.verify_model(c6_triangle_model()).ok


def test_verify_model_detects_disconnected_set():
    m = c6_triangle_model()
    bad = MinorModel(m.host, m.pattern, {**m.branch_sets, 0: frozenset({0, 3})}, 1)
    rep = minors.verify_model(bad)
    assert any(c.name == "sets-connected" and c.witness == [0] for c in rep.failures)


def test_verify_model_detects_overlap():
    m = c6_triangle_model()
    bad = MinorModel(m.host, m.pattern, {**m.branch_sets, 0: frozenset({0, 1, 2})}, 1)
    rep = minors.verify_model(bad)
    assert any(c.name.startswith("capacity") for c in rep.failures)


def test_verify_model_detects_missing_pattern_edge():
    host = graphs.from_edges(4, [(0, 1), (2, 3)])
    sets = {0: frozenset({0, 1}), 1: frozenset({2}), 2: frozenset({3})}
    rep = minors.verify_model(MinorModel(host, graphs.complete_graph(3), sets, 1))
    assert any(c.name == "pattern-edges-touch" for c in rep.failures)


def k4_in_c4_overlap_model():
    """Every C_4 vertex carries two branch sets; touch is by shared vertices."""
    c4 = cycle_graph(4)
    sets = {
        0: frozenset({0, 1}),
        1: frozenset({1, 2}),
        2: frozenset({2, 3}),
        3: frozenset({3, 0}),
    }
    return MinorModel(c4, graphs.complete_graph(4), sets, 2)


def test_overlap_model_verifies_with_multiplicity_2():
    assert minors.verify_model(k4_in_c4_overlap_model()).ok


def test_model_to_lex_gives_disjoint_model():
    lifted = model_to_lex(k4_in_c4_overlap_model(), 2)
    assert lifted.multiplicity == 1
    assert minors.verify_model(lifted).ok
    assert lifted.host.n == 8


def test_model_to_lex_rejects_overloaded_vertex():
    m = k4_in_c4_overlap_model()
    with pytest.raises(ValueError, match="lies in 2 sets, k=1"):
        model_to_lex(m, 1)


def test_lex_round_trip():
    m = k4_in_c4_overlap_model()
    lifted = model_to_lex(m, 2)
    back = lex_to_model(lifted, m.host, 2)
    assert minors.verify_model(back).ok
    assert back.branch_sets == m.branch_sets


def test_model_to_lex_k1_is_identity_up_to_labels():
    m = c6_triangle_model()
    lifted = model_to_lex(m, 1)
    assert minors.verify_model(lifted).ok
    assert {frozenset(s) for s in lifted.branch_sets.values()} == {
        frozenset(s) for s in m.branch_sets.values()
    }


def test_project_model_cliquesum():
    k4a = graphs.complete_graph(4)
    k4b = graphs.from_edges(4, k4a.edges(), ["a", "b", "c", "d"])
    s, m1, m2 = clique_sum_with_embeddings(k4a, [0, 1, 2], k4b, [0, 1, 2])
    # three joint vertices plus the private vertex of side b
    sets = {
        0: frozenset({0}),
        1: frozenset({1}),
        2: frozenset({2}),
        3: frozenset({4}),
    }
    model = MinorModel(s, graphs.complete_graph(4), sets, 1)
    assert minors.verify_model(model).ok
    with pytest.raises(ValueError, match="branch set 3 avoids the chosen side"):
        project_model_cliquesum(model, k4a, m1)
    side = project_model_cliquesum(model, k4b, m2)
    assert minors.verify_model(side).ok
    assert side.branch_sets[3] == frozenset({3})


def test_project_model_inside_one_side_is_unchanged():
    g1 = graphs.complete_graph(5)
    g2 = graphs.from_edges(3, graphs.complete_graph(3).edges(), "xyz")
    s, m1, _ = clique_sum_with_embeddings(g1, [0, 1], g2, [0, 1])
    sets = {i: frozenset({i}) for i in range(5)}
    model = MinorModel(s, graphs.complete_graph(5), sets, 1)
    side = project_model_cliquesum(model, g1, m1)
    assert side.branch_sets == sets


def test_compose_models():
    outer = c6_triangle_model()
    inner = MinorModel(
        graphs.complete_graph(3),
        graphs.complete_graph(2),
        {0: frozenset({0, 1}), 1: frozenset({2})},
        1,
    )
    composed = minors.compose_models(outer, inner)
    assert minors.verify_model(composed).ok
    assert composed.pattern.n == 2


def test_hadwiger_oracle_known_values():
    assert minors.hadwiger_model(graphs.complete_graph(5))[0] == 5
    assert minors.hadwiger_model(cycle_graph(5))[0] == 3
    assert minors.hadwiger_model(graphs.grid_graph(2))[0] == 3


def test_hadwiger_witness_verifies():
    eta, model = minors.hadwiger_model(graphs.grid_graph(3))
    assert eta == 4
    assert minors.verify_model(model).ok
    assert model.pattern.n == 4


def test_hadwiger_oracle_matches_naive_on_petersen():
    g = petersen()
    eta, model = minors.hadwiger_model(g)
    assert minors.verify_model(model).ok
    assert eta == naive_eta(g) == 5


def test_hadwiger_oracle_budget():
    with pytest.raises(BudgetExceeded):
        minors.hadwiger_model(graphs.grid_graph(4))


def gnp(n, p, rng):
    return graphs.from_edges(
        n, [e for e in graphs.complete_graph(n).edges() if rng.random() < p]
    )


def adj_masks(g):
    return [sum(1 << v for v in g.adj[u]) for u in range(g.n)]


def sparse_to_dense_graphs():
    rng = random.Random(7)
    return [
        gnp(n, p, rng)
        for p in (0.15, 0.3, 0.5, 0.8)
        for n in range(2, 10)
        for _ in range(2)
    ]


def greedy_model(g):
    """The greedy contraction path's clique size, checked as a K_t model of
    `g`, and the min-degree ceiling it was run against."""
    adj = adj_masks(g)
    ceiling = minors.min_degree_width(adj) + 1
    t, bags = minors.greedy_minor(adj, ceiling)
    sets = {x: frozenset(v for v in range(g.n) if bag >> v & 1) for x, bag in enumerate(bags)}
    assert minors.verify_model(MinorModel(g, graphs.complete_graph(t), sets, 1)).ok
    return t, ceiling


def test_hadwiger_oracle_matches_naive_on_random_graphs():
    paths = {"greedy < eta": 0, "greedy = eta < ceiling": 0, "greedy = ceiling": 0}
    disconnected = 0
    for g in sparse_to_dense_graphs():
        eta = minors.hadwiger_model(g)[0]
        assert eta == naive_eta(g)
        greedy, ceiling = greedy_model(g)
        assert greedy <= eta <= ceiling
        if greedy < eta:
            paths["greedy < eta"] += 1
        elif eta < ceiling:
            paths["greedy = eta < ceiling"] += 1
        else:
            paths["greedy = ceiling"] += 1
        disconnected += not graphs.is_connected_subset(g, range(g.n))
    # the search must also run to the end, not only stop at the ceiling or
    # be skipped; and it must both beat the greedy path and confirm it
    assert min(paths.values()) >= 1, paths
    assert disconnected >= 1


def test_greedy_minor_on_seeded_gnp_12():
    # too large for naive_eta; hadwiger_model is cross-checked against it
    # on the smaller graphs above
    for p in (0.4, 0.5):
        for seed in range(12):
            g = gnp(12, p, random.Random(seed))
            assert greedy_model(g)[0] <= minors.hadwiger_model(g)[0]


# name -> (host, eta, SHA-256 of the witness JSON), recorded before the
# search gained its edge-count prune and its min-degree ceiling.  Wherever
# the greedy contraction path (`minors.greedy_minor`) reaches eta, its
# clique is the witness.  That changed gnp-12-0.5-2's witness, so its pin was
# re-recorded when the greedy seed was added.  On petersen the path stops at
# 4 and the search supplies the K5; on the other five the path's K_eta is
# the one the search found first.
PINNED_WITNESSES = {
    "k5": (
        lambda: graphs.complete_graph(5), 5,
        "01e4d80c1e760d5e5162bf746b306eee522167176ceb8c07747aacc70808e851",
    ),
    "c12": (
        lambda: cycle_graph(12), 3,
        "bd56d9b4b76dc704b5314dda16f9bbda760f82ffa241032cda95426c613f6fe6",
    ),
    "grid3": (
        lambda: graphs.grid_graph(3), 4,
        "7986103a477ef40cfa03dee4918cc32a6a50180e59d28d62f4ba974f6796bd99",
    ),
    "petersen": (
        petersen, 5,
        "a0d02a59046aa60138c7fbcd550def169c1fc68bfccb09ba8921719e0eb32df7",
    ),
    "gnp-10-0.75-0": (
        lambda: gnp(10, 0.75, random.Random(0)), 6,
        "5e92f8ae2758d2e20ab037a9646ffb450083e800fc2e579112b413a1161055bf",
    ),
    "gnp-10-0.75-1": (
        lambda: gnp(10, 0.75, random.Random(1)), 7,
        "de51100f1d85adcaeeedaa690f73754e5f1c09979c19c64d5b090782c59c1d34",
    ),
    # loose ceiling: eta = 6, min-degree width 6
    "gnp-12-0.5-2": (
        lambda: gnp(12, 0.5, random.Random(2)), 6,
        "d784ddee0bf9d48300c60687227a27a7e57d1ea1d015718cbab33cab04acdad1",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_WITNESSES))
def test_hadwiger_witness_bytes_are_pinned(name):
    build, eta, digest = PINNED_WITNESSES[name]
    got, model = minors.hadwiger_model(build())
    text = serialize.dumps(serialize.model_to_json(model))
    assert got == eta
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 over the witness JSON of every graph of sparse_to_dense_graphs(),
# in order, re-recorded when the greedy seed was added: the greedy path now
# supplies the witness wherever it reaches eta
SPARSE_TO_DENSE_WITNESSES = "23c8a87c915bc23bbe69e0cffc51f2621dc32ca4d5cf2dffaf7aee10e24787d8"


def test_hadwiger_witness_bytes_are_pinned_on_sparse_to_dense_graphs():
    digest = hashlib.sha256()
    for g in sparse_to_dense_graphs():
        model = minors.hadwiger_model(g)[1]
        digest.update(serialize.dumps(serialize.model_to_json(model)).encode())
    assert digest.hexdigest() == SPARSE_TO_DENSE_WITNESSES


def test_hadwiger_model_is_invariant_under_relabelling():
    rng = random.Random(0)
    g = gnp(12, 0.8, rng)
    eta = minors.hadwiger_model(g)[0]
    for _ in range(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = graphs.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        got, model = minors.hadwiger_model(h)
        assert got == eta
        assert minors.verify_model(model).ok


def test_min_degree_width_bounds_treewidth():
    for g in sparse_to_dense_graphs():
        assert minors.min_degree_width(adj_masks(g)) >= minors.treewidth_oracle(g)


def test_min_degree_width_known_values():
    tree = graphs.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert minors.min_degree_width(adj_masks(tree)) == 1
    for n in (3, 6, 12):
        assert minors.min_degree_width(adj_masks(cycle_graph(n))) == 2
    for n in range(1, 8):
        assert minors.min_degree_width(adj_masks(graphs.complete_graph(n))) == n - 1


def test_treewidth_known_values():
    tree = graphs.from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    assert minors.treewidth_oracle(tree) == 1
    assert minors.treewidth_oracle(graphs.complete_graph(5)) == 4
    assert minors.treewidth_oracle(cycle_graph(6)) == 2


def test_treewidth_l3_cross_checked():
    g = graphs.grid_graph(3)
    assert minors.treewidth_oracle(g) == 3
    # independent lower bound: a bramble of order 4
    idx = g.index_of
    sets = [
        {idx((i, 1)), idx((i, 2)), idx((1, j)), idx((2, j))}
        for i in (1, 2)
        for j in (1, 2)
    ]
    sets.append({idx((3, y)) for y in (1, 2, 3)})
    sets.append({idx((1, 3)), idx((2, 3))})
    assert bramble_order(g, sets) == 4
    # independent upper bound: an explicit width-3 path decomposition
    bags = [frozenset(range(i, i + 4)) for i in range(6)]
    assert check_tree_decomposition(g, bags, [(i, i + 1) for i in range(5)])


def test_treewidth_oracle_matches_naive_on_random_graphs():
    rng = random.Random(11)
    disconnected = 0
    for p in (0.1, 0.3, 0.5, 0.8):
        for n in range(1, 8):
            for _ in range(2):
                g = gnp(n, p, rng)
                assert minors.treewidth_oracle(g) == naive_treewidth(g)
                disconnected += not graphs.is_connected_subset(g, range(g.n))
    assert disconnected >= 1


def elimination_decomposition(g, order):
    """Bags and tree edges of the decomposition an elimination ordering
    induces: v's bag is v with its neighbours when it is eliminated, its
    parent is the first of those neighbours eliminated after it, and the
    roots of the resulting forest are chained into one tree."""
    pos = {v: i for i, v in enumerate(order)}
    nbrs = {v: set(g.adj[v]) for v in range(g.n)}
    bags, edges, roots = [], [], []
    for i, v in enumerate(order):
        around = nbrs.pop(v)
        for u in around:
            nbrs[u] |= around - {u}
            nbrs[u].discard(v)
        bags.append(frozenset(around | {v}))
        if around:
            edges.append((i, pos[min(around, key=pos.get)]))
        else:
            roots.append(i)
    return bags, edges + list(zip(roots, roots[1:]))


def assert_ordering_certifies_width(g):
    width, order = minors.treewidth_ordering(g)
    assert sorted(order) == list(range(g.n))
    bags, edges = elimination_decomposition(g, order)
    assert check_tree_decomposition(g, bags, edges)
    assert max(len(b) for b in bags) == width + 1


def test_treewidth_ordering_witness_decomposes():
    for g in sparse_to_dense_graphs() + [graphs.grid_graph(3)]:
        assert_ordering_certifies_width(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(graphs.complete_graph(n).edges())
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graphs.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_treewidth_ordering_witness_property(g):
    assert_ordering_certifies_width(g)


def test_treewidth_budget():
    with pytest.raises(BudgetExceeded):
        minors.treewidth_oracle(graphs.grid_graph(4))


def test_max_clique():
    g = graphs.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    assert minors.max_clique(g) == [0, 1, 2]


def test_max_clique_floor_keeps_the_clique_that_beats_it():
    rng = random.Random(3)
    for _ in range(200):
        g = gnp(rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)), rng)
        adj = adj_masks(g)
        clique = minors._max_clique_masks(adj)
        for floor in range(len(clique) + 2):
            expected = clique if len(clique) > floor else []
            assert minors._max_clique_masks(adj, floor) == expected
