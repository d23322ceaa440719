"""Minor models, relaxed models with bounded overlap, and exact oracles.

A model of a pattern H in a host G assigns every pattern vertex a nonempty
connected branch set of host vertices.  A relaxed model with multiplicity k
lets each host vertex appear in up to k branch sets; two sets "touch" when
they share a vertex or the host has an edge between them.  A multiplicity-1
model is the classical notion: disjoint sets, one host edge per pattern edge.

The oracles are exact and exponential; they refuse hosts above a vertex cap.
`hadwiger_model` first follows one greedy contraction path (`greedy_minor`)
and keeps the largest quotient clique it sees.  The width of a min-degree
elimination plus one bounds the Hadwiger number from above; when the greedy
clique reaches it, that clique is the answer and its witness, and nothing
is searched.  Otherwise contractions are searched depth first on bitmask
quotients, starting from the greedy clique.  A contraction is pruned in its
parent, before its state is built, when it would leave too few bags or too
few edges for a clique larger than the best one found; each quotient's
clique search starts at that best size, and the search stops once the best
clique reaches the ceiling.
`treewidth_ordering` computes the exact treewidth by a DP over elimination
prefixes on neighbourhood masks and returns an optimal ordering as witness.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import graphs
from .errors import BudgetExceeded
from .graphs import SimpleGraph
from .report import Report


@dataclass(frozen=True)
class MinorModel:
    """Branch sets keyed by pattern vertex, as host vertex indices."""

    host: SimpleGraph
    pattern: SimpleGraph
    branch_sets: dict
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


def _sets_touch(host: SimpleGraph, s1: frozenset, s2: frozenset) -> bool:
    if s1 & s2:
        return True
    return any(host.adj[u] & s2 for u in s1)


def verify_model(model: MinorModel) -> Report:
    """Check every model property; failures carry witnesses."""
    rep = Report()
    host, pattern = model.host, model.pattern
    sets = model.branch_sets

    missing = [x for x in range(pattern.n) if x not in sets]
    rep.add("sets-cover-pattern", not missing, missing or None)

    bad_range = [
        x for x, s in sets.items()
        if not s or any(not 0 <= v < host.n for v in s)
    ]
    rep.add("sets-nonempty-in-host", not bad_range, bad_range or None)
    if missing or bad_range:
        return rep

    disconnected = [
        x for x in range(pattern.n)
        if not graphs.is_connected_subset(host, sets[x])
    ]
    rep.add("sets-connected", not disconnected, disconnected or None)

    load: dict = {}
    for x in range(pattern.n):
        for v in sets[x]:
            load[v] = load.get(v, 0) + 1
    overloaded = sorted(v for v, c in load.items() if c > model.multiplicity)
    rep.add(
        f"capacity-{model.multiplicity}",
        not overloaded,
        [(v, load[v]) for v in overloaded] or None,
    )

    untouched = [
        (x, y) for x, y in pattern.edges()
        if not _sets_touch(host, sets[x], sets[y])
    ]
    rep.add("pattern-edges-touch", not untouched, untouched or None)
    return rep


def compose_models(outer: MinorModel, inner: MinorModel) -> MinorModel:
    """Model composition: a model of J in H and a model of H in G give a
    model of J in G.  The caller passes an inner model of multiplicity 1
    whose host is the outer pattern H, vertex for vertex."""
    new_sets = {
        x: frozenset().union(*(outer.branch_sets[h] for h in s))
        for x, s in inner.branch_sets.items()
    }
    return MinorModel(outer.host, inner.pattern, new_sets, outer.multiplicity)


# ------------------------------------------------------------ oracles

def _adj_masks(g: SimpleGraph) -> list[int]:
    adj = [0] * g.n
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _max_clique_masks(adj: list[int], floor: int = 0) -> list[int]:
    """Pivoted Bron-Kerbosch on adjacency masks; the first maximum clique
    in its branching order, sorted, or [] when no clique is larger than
    `floor`.  A branch is cut once it cannot beat both `floor` and the
    largest clique found; the branching order does not depend on either,
    so any `floor` below the clique number gives the same clique as 0."""
    best = []
    bound = floor

    def expand(r: list[int], p: int, x: int):
        nonlocal best, bound
        if p == 0 and x == 0:
            if len(r) > bound:
                best = list(r)
                bound = len(r)
            return
        if len(r) + p.bit_count() <= bound:
            return
        pivot = (p | x).bit_length() - 1
        candidates = p & ~adj[pivot]
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            r.append(v)
            expand(r, p & adj[v], x & adj[v])
            r.pop()
            p &= ~(1 << v)
            x |= 1 << v

    expand([], (1 << len(adj)) - 1, 0)
    return sorted(best)


def max_clique(g: SimpleGraph) -> list[int]:
    """One maximum clique, by pivoted Bron-Kerbosch on vertex bitmasks."""
    return _max_clique_masks(_adj_masks(g))


def min_degree_width(adj_masks: list[int]) -> int:
    """Width of the min-degree elimination ordering (ties to the lowest
    index): eliminate a vertex of least degree, make its neighbours a
    clique, repeat; the width is the largest degree at elimination.  It is
    an upper bound on the treewidth (Bodlaender and Koster, "Treewidth
    computations I. Upper bounds", 2010), hence η ≤ width + 1."""
    adj = dict(enumerate(adj_masks))
    width = 0
    while adj:
        v = min(adj, key=lambda u: adj[u].bit_count())
        nbrs = adj.pop(v)
        width = max(width, nbrs.bit_count())
        m = nbrs
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            adj[u] = (adj[u] | nbrs) & ~(1 << u | 1 << v)
    return width


# The default vertex cap of every exact oracle and of `hadwiger eta --cap`.
ORACLE_CAP = 12


def check_budget(n: int, cap: int):
    """Refuse a host of `n` vertices above the oracles' vertex cap."""
    if n > cap:
        raise BudgetExceeded(f"host has {n} vertices, oracle cap is {cap}")


def _quotient(adj: list[int], bags: tuple) -> tuple[list[int], int]:
    """The quotient of the graph with adjacency masks `adj` by the disjoint
    `bags`: one adjacency row per bag, over bag positions, and its edge
    count."""
    quotient = []
    edges = 0
    for bag in bags:
        reach = 0
        m = bag
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            reach |= adj[v]
        reach &= ~bag
        row = 0
        for j, other in enumerate(bags):
            if reach & other:
                row |= 1 << j
        quotient.append(row)
        edges += row.bit_count()
    return quotient, edges // 2


def _merge(bags: tuple, i: int, j: int) -> tuple:
    """`bags` with bags i and j merged into one, kept sorted."""
    return tuple(
        sorted([bags[t] for t in range(len(bags)) if t not in (i, j)] + [bags[i] | bags[j]])
    )


def greedy_minor(adj: list[int], ceiling: int) -> tuple[int, tuple]:
    """The largest quotient clique along one contraction path, and its bags.

    The path starts from singleton bags and contracts a bag of least
    nonzero degree into its neighbour with the fewest common neighbours
    (ties to the lowest position): the "least-c" rule of Bodlaender, Koster
    and Wolle, "Contraction and treewidth lower bounds" (JGAA 2006).  It
    stops once the clique reaches `ceiling`, when no edge is left, or when
    the next quotient has no more bags than the clique found; contraction
    never adds bags, so no later quotient could beat it.
    """
    bags = tuple(1 << v for v in range(len(adj)))
    best, best_bags = 0, ()
    while True:
        quotient, _ = _quotient(adj, bags)
        clique = _max_clique_masks(quotient, best)
        if clique:
            best = len(clique)
            best_bags = tuple(bags[i] for i in clique)
        live = [i for i, row in enumerate(quotient) if row]
        if best == ceiling or not live or len(bags) - 1 <= best:
            return best, best_bags
        i = min(live, key=lambda t: quotient[t].bit_count())
        nbrs = [t for t in range(len(bags)) if quotient[i] >> t & 1]
        j = min(nbrs, key=lambda t: (quotient[i] & quotient[t]).bit_count())
        bags = _merge(bags, i, j)


def hadwiger_model(g: SimpleGraph, cap: int = ORACLE_CAP) -> tuple[int, MinorModel]:
    """Exact largest complete minor with a verified witness model.

    The answer is the maximum clique number over all quotients by
    connected partitions, and the min-degree width plus one bounds it from
    above (η ≤ treewidth + 1).  `greedy_minor` first follows one
    contraction path; when its clique reaches that ceiling, the search is
    skipped and the witness is the path's.  Otherwise a depth-first search
    over edge contractions proves the answer, starting from the path's
    clique: it keeps the path's witness when nothing larger exists and
    gives its own first larger clique otherwise.  States are memoized by
    the partition (a sorted tuple of bag masks).  A contraction of two
    adjacent bags is skipped in the parent, before the child is built, when
    the child would have no more bags than the best clique known, or fewer
    edges than a clique one larger needs: its edge count is the parent's
    less one, less the two bags' common neighbours, and contraction never
    adds quotient edges.  Each quotient's clique search only looks for
    cliques larger than the best known.  The search stops once the best
    clique reaches the ceiling.
    """
    check_budget(g.n, cap)
    if g.n == 0:
        raise ValueError("empty host")
    adj = _adj_masks(g)
    ceiling = min_degree_width(adj) + 1
    best, best_bags = greedy_minor(adj, ceiling)
    # bags are kept sorted and disjoint, so the tuple is its own memo key
    visited: set = set()

    def search(bags: tuple):
        nonlocal best, best_bags
        if bags in visited:
            return
        visited.add(bags)
        q = len(bags)
        quotient, edges = _quotient(adj, bags)
        clique = _max_clique_masks(quotient, best)
        if clique:
            best = len(clique)
            best_bags = tuple(bags[i] for i in clique)
        for i in range(q):
            later = quotient[i] & ~((2 << i) - 1)
            while later:
                j = (later & -later).bit_length() - 1
                later &= later - 1
                if best == ceiling:
                    return
                # merging bags i and j leaves q - 1 bags and drops edge ij
                # plus one edge per common neighbour: prune that child here,
                # before it is built or memoised (best never decreases, so
                # it would be pruned at every later visit too)
                if q - 1 <= best or (
                    edges - 1 - (quotient[i] & quotient[j]).bit_count()
                    < (best + 1) * best // 2
                ):
                    continue
                search(_merge(bags, i, j))

    if best < ceiling:
        search(tuple(1 << v for v in range(g.n)))

    sets = {x: frozenset(v for v in range(g.n) if mask >> v & 1) for x, mask in enumerate(best_bags)}
    model = MinorModel(g, graphs.complete_graph(best), sets, 1)
    return best, model


def treewidth_ordering(g: SimpleGraph, cap: int = ORACLE_CAP) -> tuple[int, list[int]]:
    """Exact treewidth and an elimination ordering of that width.

    Prefix DP of Bodlaender, Fomin, Koster, Kratsch and Thilikos ("On exact
    algorithms for treewidth", ESA 2006): TW(S) = min over v in S of
    max(TW(S - v), |Q(S - v, v)|), Q being the vertices outside S that v
    reaches through S - v.  Neighbourhoods of all 2^n masks are tabulated
    once, so Q is v's component grown inside S by mask unions; v is skipped
    when TW(S - v) already reaches S's best cost.  Each prefix's argmin
    vertex, read back from the full set, is the witness ordering.
    """
    check_budget(g.n, cap)
    n = g.n
    adj = _adj_masks(g)
    full = (1 << n) - 1
    nb = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        nb[s] = nb[s ^ low] | adj[low.bit_length() - 1]
    tw = [0] * (full + 1)
    last = [0] * (full + 1)
    for s in range(1, full + 1):
        best = n
        m = s
        while m:
            bit = m & -m
            m ^= bit
            prev = s ^ bit
            if tw[prev] >= best:
                continue
            c = bit
            while (grown := c | nb[c] & prev) != c:
                c = grown
            cost = max(tw[prev], (nb[c] & ~s).bit_count())
            if cost < best:
                best, last[s] = cost, bit
        tw[s] = best
    order = []
    s = full
    while s:
        order.append(last[s].bit_length() - 1)
        s ^= last[s]
    return tw[full], order[::-1]


def treewidth_oracle(g: SimpleGraph, cap: int = ORACLE_CAP) -> int:
    """Exact treewidth; see `treewidth_ordering` for the method."""
    return treewidth_ordering(g, cap)[0]
