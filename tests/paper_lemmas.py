"""The graph algebra of the paper's upper-bound lemmas, used only by the tests.

Joret and Wood bound the Hadwiger number through clique-sums and relaxed
(multiplicity-k) models of a graph G that become classical models of its
lexicographic blowup G[k].  No command builds either, so they live here,
on top of the package's `union_by_labels`, `lex_product` and `verify_model`,
for acceptance criteria 6-8 and their unit tests.  Misuse raises ValueError.
"""
from itertools import combinations

from hadwiger import graphs, minors
from hadwiger.graphs import SimpleGraph
from hadwiger.minors import MinorModel


def cycle_graph(m: int) -> SimpleGraph:
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return graphs.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def is_clique(g: SimpleGraph, vertices) -> bool:
    return all(v in g.adj[u] for u, v in combinations(list(vertices), 2))


def clique_sum_with_embeddings(g1, c1, g2, c2, drop=()):
    """Clique-sum identifying c1[i] with c2[i], then deleting the `drop` edges
    (index pairs into c1/c2 positions).

    Returns (sum graph, map1, map2), map_i sending a vertex of g_i to its
    vertex in the sum.  Identified vertices keep g1's labels; the sum lists
    g1's vertices first, then g2's others in order.
    """
    if len(c1) != len(c2):
        raise ValueError(f"|C1|={len(c1)} != |C2|={len(c2)}")
    if len(set(c1)) != len(c1) or len(set(c2)) != len(c2):
        raise ValueError("clique vertex lists contain repeats")
    if not is_clique(g1, c1) or not is_clique(g2, c2):
        raise ValueError("C1 or C2 is not a clique")
    labels2 = list(g2.labels)
    for w1, w2 in zip(c1, c2):
        labels2[w2] = g1.labels[w1]
    glued = graphs.union_by_labels([g1, SimpleGraph(g2.n, g2.adj, tuple(labels2))])
    if glued.n != g1.n + g2.n - len(c2):
        raise ValueError("label collision between summands")
    dropped = {(min(c1[i], c1[j]), max(c1[i], c1[j])) for i, j in drop}
    kept = [e for e in glued.edges() if e not in dropped]
    s = graphs.from_edges(glued.n, kept, glued.labels)
    return s, tuple(range(g1.n)), tuple(map(glued.index_of, labels2))


def model_to_lex(model: MinorModel, k: int) -> MinorModel:
    """A multiplicity-k model in G as a multiplicity-1 model in G[k]: the
    branch sets through v, in pattern-index order, get the copies (v, 1),
    (v, 2), ...  Refuses a vertex that carries more than k sets."""
    host = model.host
    lex = graphs.lex_product(host, k)
    users = {v: [] for v in range(host.n)}
    for x in sorted(model.branch_sets):
        for v in model.branch_sets[x]:
            users[v].append(x)
    for v, xs in users.items():
        if len(xs) > k:
            raise ValueError(f"vertex {host.labels[v]!r} lies in {len(xs)} sets, k={k}")
    sets = {
        x: frozenset(lex.index_of((host.labels[v], users[v].index(x) + 1)) for v in s)
        for x, s in model.branch_sets.items()
    }
    return MinorModel(lex, model.pattern, sets, 1)


def lex_to_model(model: MinorModel, base: SimpleGraph, k: int) -> MinorModel:
    """Project a multiplicity-1 model in base[k] down to a multiplicity-k
    model in the base; host labels have the (base label, copy) shape."""
    labels = model.host.labels
    sets = {
        x: frozenset(base.index_of(labels[v][0]) for v in s)
        for x, s in model.branch_sets.items()
    }
    return MinorModel(base, model.pattern, sets, k)


def project_model_cliquesum(model: MinorModel, side_graph: SimpleGraph, embed) -> MinorModel:
    """Restrict a model in a clique-sum to the summand that `embed` maps
    into the sum.  Branch-set pieces cut off by the other side reconnect
    through the identified clique, whose edges the summand keeps.  Refuses
    a side that some set misses or on which the restriction is no model."""
    inverse = {h: s for s, h in enumerate(embed)}
    sets = {}
    for x, s in model.branch_sets.items():
        sets[x] = frozenset(inverse[v] for v in s if v in inverse)
        if not sets[x]:
            raise ValueError(f"branch set {x} avoids the chosen side")
    out = MinorModel(side_graph, model.pattern, sets, model.multiplicity)
    rep = minors.verify_model(out)
    if not rep.ok:
        raise ValueError("; ".join(str(c) for c in rep.failures))
    return out
