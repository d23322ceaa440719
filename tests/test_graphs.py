import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hadwiger import graphs
from hadwiger.graphs import Split
from paper_lemmas import clique_sum_with_embeddings, cycle_graph, is_clique


def test_from_edges_rejects_loops():
    with pytest.raises(ValueError):
        graphs.from_edges(2, [(0, 0)])


def test_from_edges_rejects_repeated_labels():
    with pytest.raises(ValueError, match="labels not unique"):
        graphs.from_edges(3, [(0, 1)], ("x", "y", "x"))


def test_complete_graph_counts():
    k5 = graphs.complete_graph(5)
    assert k5.n == 5 and k5.m == 10
    assert is_clique(k5, range(5))


def test_cycle_graph_degrees():
    c6 = cycle_graph(6)
    assert all(len(c6.adj[v]) == 2 for v in range(6))
    assert graphs.is_connected(c6)


def test_grid_graph_labels_and_size():
    g = graphs.grid_graph(3)
    assert g.n == 9
    assert g.m == 12
    assert g.index_of((2, 2)) == 4
    assert g.index_of((1, 2)) in g.adj[g.index_of((1, 1))]
    assert g.index_of((2, 2)) not in g.adj[g.index_of((1, 1))]


@settings(deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_lex_product_edge_count(n, k):
    g = cycle_graph(3) if n == 1 else graphs.grid_graph(n)
    prod = graphs.lex_product(g, k)
    # each vertex blows up to a k-clique, each edge to a complete join
    assert prod.n == g.n * k
    assert prod.m == g.n * k * (k - 1) // 2 + g.m * k * k


def test_lex_product_labels():
    prod = graphs.lex_product(graphs.complete_graph(2), 2)
    assert set(prod.labels) == {(0, 1), (0, 2), (1, 1), (1, 2)}
    assert prod.m == 6


def test_split_label_is_not_a_tuple():
    # hub labels like (0, 1) must never collide with Split(0, 1)
    assert Split(0, 1) != (0, 1)
    assert Split((1, 2), 3) != ((1, 2), 3)
    assert len({Split(0, 1), (0, 1)}) == 2
    assert (Split((1, 2), 3).owner, Split((1, 2), 3).position) == ((1, 2), 3)


def test_split_repr_is_pinned():
    # `verify` stdout embeds these reprs
    assert repr(Split((1, 2), 3)) == "Split(owner=(1, 2), position=3)"
    assert repr(Split(Split("a", 1), 2)) == "Split(owner=Split(owner='a', position=1), position=2)"


def test_split_hash_is_the_same_under_every_hash_seed():
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    code = "from hadwiger.graphs import Split; print(hash(Split((1, 2), 3)))"
    hashes = {
        subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(hashes) == 1


def test_clique_sum_identifies_and_drops():
    k4a = graphs.complete_graph(4)
    k4b = graphs.from_edges(4, k4a.edges(), ["a", "b", "c", "d"])
    s, m1, m2 = clique_sum_with_embeddings(k4a, [0, 1, 2], k4b, [0, 1, 2], drop=[(0, 1)])
    assert s.n == 5
    assert 1 not in s.adj[0]  # dropped in the sum
    assert m2[0] in s.adj[m2[3]]


def test_clique_sum_rejects_non_clique():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="not a clique"):
        clique_sum_with_embeddings(c4, [0, 1, 2], graphs.complete_graph(3), [0, 1, 2])
    with pytest.raises(ValueError, match=r"\|C1\|=2 != \|C2\|=3"):
        clique_sum_with_embeddings(c4, [0, 1], graphs.complete_graph(3), [0, 1, 2])


def test_is_connected_subset():
    g = graphs.grid_graph(3)
    assert graphs.is_connected_subset(g, [0, 1, 2])
    assert not graphs.is_connected_subset(g, [0, 8])
    assert not graphs.is_connected_subset(g, [])
    assert not graphs.is_connected(graphs.from_edges(4, [(0, 1), (2, 3)]))


def test_union_by_labels_glues_on_labels():
    a = graphs.from_edges(2, [(0, 1)], ("x", "y"))
    b = graphs.from_edges(2, [(0, 1)], ("y", "z"))
    u = graphs.union_by_labels([a, b])
    assert u.n == 3 and u.m == 2
    assert u.labels == ("x", "y", "z")


def test_label_sort_key_total_order():
    labels = [Split(1, 2), (1, 2), "apex", 3, ((1, 1), 2)]
    ordered = sorted(labels, key=graphs.label_sort_key)
    assert ordered[0] == 3
    assert ordered[-1] == Split(1, 2)
