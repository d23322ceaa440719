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
quotients, starting from the greedy clique.  Both walk quotients through
one kernel: a quotient is its sorted tuple of bag masks and one adjacency
row per bag, over bag positions.  The root's rows are the adjacency masks,
and merging two adjacent bags derives the child's rows from the parent's
by a few mask operations per row (`_merged`, `_contracted`).  A contraction
is pruned in its parent, before its state is built, when it would leave
too few bags or too few edges for a clique larger than the best one found,
and a child already visited is never built.  Each quotient's clique search
starts at that best size and returns at once when too few rows have the
degree a larger clique needs; the search stops once the best clique
reaches the ceiling.
`treewidth_ordering` computes the exact treewidth by a DP over elimination
prefixes on neighbourhood masks and returns an optimal ordering as witness.
"""
from __future__ import annotations

from bisect import bisect
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
    `floor`.  It returns [] without branching when fewer than floor + 1
    rows have degree floor or more, since a clique of floor + 1 vertices
    needs that many.  A branch is cut once it cannot beat both `floor` and
    the largest clique found; the branching order does not depend on
    either, so any `floor` below the clique number gives the same clique
    as 0."""
    if sum(map(floor.__le__, map(int.bit_count, adj))) <= floor:
        return []
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


def _merged(bags: tuple, i: int, j: int) -> tuple[tuple, int]:
    """`bags` (sorted, disjoint) with bags i < j merged into one, kept
    sorted, and the merged bag's position in it."""
    bag = bags[i] | bags[j]
    # both merged bags are below their union, so it sorts past them
    p = bisect(bags, bag) - 2
    rest = bags[:i] + bags[i + 1:j] + bags[j + 1:]
    return rest[:p] + (bag,) + rest[p:], p


def _contracted(rows: list[int], i: int, j: int, p: int) -> list[int]:
    """The quotient rows after merging adjacent bags i < j into position p
    (as `_merged` places it), derived from the parent's rows: each row
    loses bits i and j, its higher bits close the two gaps, bit p opens
    and is set where bit i or j was, and the merged row is rows i and j
    joined, re-indexed the same way.  The child has the parent's edges
    less one, less the two bags' common neighbours."""
    low = (1 << i) - 1
    mid = (1 << j - 1) - 1 ^ low
    high = ~(low | mid)
    below = (1 << p) - 1
    ends = 1 << i | 1 << j
    out = []
    for r in rows[:i] + rows[i + 1:j] + rows[j + 1:]:
        s = r & low | r >> 1 & mid | r >> 2 & high
        out.append(s & below | (s & ~below) << 1 | (r & ends != 0) << p)
    r = rows[i] | rows[j]
    s = r & low | r >> 1 & mid | r >> 2 & high
    out.insert(p, s & below | (s & ~below) << 1)
    return out


def greedy_minor(adj: list[int], ceiling: int) -> tuple[int, tuple]:
    """The largest quotient clique along one contraction path, and its bags.

    The path starts from singleton bags, whose quotient rows are the
    adjacency masks, and contracts a bag of least nonzero degree into its
    neighbour with the fewest common neighbours (ties to the lowest
    position): the "least-c" rule of Bodlaender, Koster and Wolle,
    "Contraction and treewidth lower bounds" (JGAA 2006).  Each quotient's
    rows come from the last one's (`_contracted`).  It stops once the
    clique reaches `ceiling`, when no edge is left, or when the next
    quotient has no more bags than the clique found; contraction never adds
    bags, so no later quotient could beat it.
    """
    bags = tuple(1 << v for v in range(len(adj)))
    rows = adj
    best, best_bags = 0, ()
    while True:
        clique = _max_clique_masks(rows, best)
        if clique:
            best = len(clique)
            best_bags = tuple(bags[i] for i in clique)
        live = [i for i, row in enumerate(rows) if row]
        if best == ceiling or not live or len(bags) - 1 <= best:
            return best, best_bags
        i = min(live, key=lambda t: rows[t].bit_count())
        nbrs = [t for t in range(len(bags)) if rows[i] >> t & 1]
        j = min(nbrs, key=lambda t: (rows[i] & rows[t]).bit_count())
        i, j = sorted((i, j))
        bags, p = _merged(bags, i, j)
        rows = _contracted(rows, i, j, p)


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
    the partition (a sorted tuple of bag masks).  The root's quotient is
    the graph itself; every other quotient's rows are derived from its
    parent's (`_contracted`), and only after its partition is found
    unvisited.  A contraction of two adjacent bags is skipped in the
    parent, before the child is built, when the child would have no more
    bags than the best clique known, or fewer edges than a clique one
    larger needs: its edge count is the parent's less one, less the two
    bags' common neighbours, and contraction never adds quotient edges.
    Each quotient's clique search only looks for cliques larger than the
    best known.  The search stops once the best clique reaches the ceiling.
    """
    check_budget(g.n, cap)
    if g.n == 0:
        raise ValueError("empty host")
    adj = _adj_masks(g)
    ceiling = min_degree_width(adj) + 1
    best, best_bags = greedy_minor(adj, ceiling)
    # bags are kept sorted and disjoint, so the tuple is its own memo key
    visited: set = set()

    def search(bags: tuple, rows: list[int], edges: int):
        nonlocal best, best_bags
        visited.add(bags)
        clique = _max_clique_masks(rows, best)
        if clique:
            best = len(clique)
            best_bags = tuple(bags[i] for i in clique)
        # every child has q - 1 bags, so none beats a best of q - 1; once a
        # child lifts best to q - 1, the edge prune cuts its siblings
        if best == ceiling or len(bags) - 1 <= best:
            return
        need = (best + 1) * best // 2
        for i, row in enumerate(rows):
            later = row & ~((2 << i) - 1)
            while later:
                j = (later & -later).bit_length() - 1
                later &= later - 1
                # merging bags i and j drops edge ij plus one edge per
                # common neighbour: prune that child here, before it is
                # built or memoised (best never decreases, so it would be
                # pruned at every later visit too)
                child_edges = edges - 1 - (row & rows[j]).bit_count()
                if child_edges < need:
                    continue
                child, p = _merged(bags, i, j)
                if child not in visited:
                    search(child, _contracted(rows, i, j, p), child_edges)
                    if best == ceiling:
                        return
                    need = (best + 1) * best // 2

    if best < ceiling:
        search(tuple(1 << v for v in range(g.n)), adj, g.m)

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
