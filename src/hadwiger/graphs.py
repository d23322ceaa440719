"""Simple graphs with provenance labels and the algebra used by the constructions.

Vertices are dense integer indices 0..n-1.  Every vertex additionally carries a
unique structured label; the construction pipeline addresses vertices by label
(labels survive products, splittings and identifications), while serialization
and the oracles work on indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Hashable, Iterable, Sequence


# The first member of every Split: it hashes the same in every process, as a
# str under PYTHONHASHSEED or an object() by address would not, and no JSON
# value decodes to it.
_SPLIT_TAG = 1j


class Split(tuple):
    """Label for a vertex created by splitting `owner` at a face; `position`
    is the 1-based index along the replacement path.

    A tuple `(_SPLIT_TAG, owner, position)`, so hashing, equality and
    construction run in C; the tag keeps it unequal to every ordinary
    label, since no label decoded from JSON holds a complex number."""

    __slots__ = ()

    def __new__(cls, owner: Hashable, position: int):
        return tuple.__new__(cls, (_SPLIT_TAG, owner, position))

    owner = property(itemgetter(1))
    position = property(itemgetter(2))

    def __repr__(self):
        return f"Split(owner={self[1]!r}, position={self[2]!r})"


def label_sort_key(label):
    """Total order over the heterogeneous label universe (ints, strings,
    nested tuples, Split records)."""
    if isinstance(label, Split):
        return (3, label_sort_key(label.owner), label.position)
    if isinstance(label, tuple):
        return (2, tuple(label_sort_key(x) for x in label))
    if isinstance(label, str):
        return (1, label)
    return (0, label)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph.  Immutable after construction.

    `adj` must be symmetric and loop-free; `from_edges` and the builders
    below guarantee it, and `from_edges` rejects edges that break it.
    Construction indexes the labels once, in `label_index`, and refuses repeats.
    """

    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[Hashable, ...]

    def __post_init__(self):
        if len(self.adj) != self.n or len(self.labels) != self.n:
            raise ValueError("adjacency/label length mismatch")
        if len(self.label_index) != self.n:
            raise ValueError("labels not unique")

    @cached_property
    def label_index(self) -> dict:
        return dict(zip(self.labels, range(self.n)))

    def index_of(self, label) -> int:
        return self.label_index[label]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def from_edges(n: int, edges: Iterable[tuple[int, int]], labels=None) -> SimpleGraph:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}-{v} leaves the vertex range 0..{n - 1}")
        adj[u].add(v)
        adj[v].add(u)
    if labels is None:
        labels = tuple(range(n))
    return SimpleGraph(n, tuple(frozenset(a) for a in adj), tuple(labels))


def complete_graph(m: int) -> SimpleGraph:
    return from_edges(m, combinations(range(m), 2))


def grid_graph(n: int) -> SimpleGraph:
    """The n-by-n grid; vertex (x, y) with x, y in [1, n], edges between
    vertices at L1 distance 1.  Labels carry the (x, y) coordinates."""

    def idx(x, y):
        return (x - 1) * n + (y - 1)

    edges = []
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x < n:
                edges.append((idx(x, y), idx(x + 1, y)))
            if y < n:
                edges.append((idx(x, y), idx(x, y + 1)))
    labels = tuple((x, y) for x in range(1, n + 1) for y in range(1, n + 1))
    return from_edges(n * n, edges, labels)


def lex_product(g: SimpleGraph, k: int) -> SimpleGraph:
    """Blow every vertex up to a k-clique; adjacency inherited completely.
    Vertex (v, i) gets label (label(v), i) with i in [1, k]."""

    def idx(v, i):
        return v * k + (i - 1)

    edges = []
    for v in range(g.n):
        edges.extend((idx(v, i), idx(v, j)) for i, j in combinations(range(1, k + 1), 2))
    for u, v in g.edges():
        edges.extend(
            (idx(u, i), idx(v, j)) for i in range(1, k + 1) for j in range(1, k + 1)
        )
    labels = tuple((g.labels[v], i) for v in range(g.n) for i in range(1, k + 1))
    return from_edges(g.n * k, edges, labels)


def is_connected_subset(g: SimpleGraph, vertices: Iterable[int]) -> bool:
    vs = set(vertices)
    if not vs:
        return False
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def is_connected(g: SimpleGraph) -> bool:
    if g.n == 0:
        return True
    return is_connected_subset(g, range(g.n))


def union_by_labels(parts: Sequence[SimpleGraph], apex=(), apex_edges=()) -> SimpleGraph:
    """Union of several graphs glued on equal labels, multi-edges collapsed,
    plus the `apex` vertices and the `apex_edges` (label pairs).  Vertex
    order: the first part's own, then first occurrence across the others,
    then the apexes.  Refuses an apex edge end that names no vertex, then an
    apex edge loop, then an apex whose label is taken."""
    first, *rest = parts
    # label -> vertex, numbered in insertion order, so its keys are the labels
    index = dict(first.label_index)
    adj = list(map(set, first.adj))
    for part in rest:
        ids = [index.setdefault(lab, len(index)) for lab in part.labels]
        adj.extend(set() for _ in range(len(index) - len(adj)))
        for u, nbrs in zip(ids, part.adj):
            adj[u].update(map(ids.__getitem__, nbrs))
    labels = list(index)
    if apex:
        index.update(zip(apex, range(len(labels), len(labels) + len(apex))))
        labels.extend(apex)
        adj.extend(set() for _ in apex)
        try:
            pairs = [(index[x], index[y]) for x, y in apex_edges]
        except KeyError as exc:
            raise ValueError(f"apex edge end {exc.args[0]!r} names no vertex") from None
        loop = next((x for x, y in apex_edges if x == y), None)
        if loop is not None:
            raise ValueError(f"apex edge loop at {loop!r}")
        for i, j in pairs:
            adj[i].add(j)
            adj[j].add(i)
    return SimpleGraph(len(labels), tuple(map(frozenset, adj)), tuple(labels))
