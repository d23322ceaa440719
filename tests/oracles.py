"""Independent naive oracles used only by the tests.

These deliberately share no code with the package's search oracles: the
Hadwiger number is recomputed by enumerating all partitions of the vertex
set into connected parts and taking the largest clique in the quotient, an
edge-count certificate bounds it from above, the treewidth is the least
width over every elimination ordering, and tree decompositions are checked
axiom by axiom.  `quotient_rows` rebuilds a contracted graph's adjacency
rows from the vertex adjacency, the reference for the search's
contraction kernel.  `as_sympy` rebuilds a bound as a sympy expression, the
independent reference for exact bound values.  `reference_faces` traces the
faces of a rotation system on dart-side tuples, reading only the rotations,
edges and signatures, as the cross-check of the package's face tracer.
"""
from itertools import combinations, permutations

import sympy

from hadwiger.graphs import SimpleGraph


def as_sympy(bound) -> sympy.Expr:
    """The sympy expression of a `bounds.BoundValue`, built from its fields."""
    return sympy.Rational(bound.const.numerator, bound.const.denominator) + sum(
        (sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(r) for r, q in bound.terms),
        sympy.Integer(0),
    )


def _adj_masks(g: SimpleGraph):
    adj = [0] * g.n
    for u, v in g.edges():
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _mask_connected(mask: int, adj) -> bool:
    start = mask & -mask
    seen = start
    frontier = start
    while frontier:
        grow = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            grow |= adj[v] & mask & ~seen
        seen |= grow
        frontier = grow
    return seen == mask


def _clique_number(parts, adj) -> int:
    t = len(parts)
    part_adj = [0] * t
    for i, j in combinations(range(t), 2):
        mi = parts[i]
        touching = False
        while mi and not touching:
            v = (mi & -mi).bit_length() - 1
            mi &= mi - 1
            touching = bool(adj[v] & parts[j])
        if touching:
            part_adj[i] |= 1 << j
            part_adj[j] |= 1 << i
    best = 0

    def bk(r, p):
        nonlocal best
        if not p:
            best = max(best, r)
            return
        if r + bin(p).count("1") <= best:
            return
        while p:
            v = (p & -p).bit_length() - 1
            bk(r + 1, p & part_adj[v])
            p &= p - 1

    bk(0, (1 << t) - 1)
    return best


def naive_eta(g: SimpleGraph) -> int:
    """Largest complete minor by exhaustive partition enumeration.

    Every complete minor extends to a partition of the whole vertex set into
    connected parts (pad with singletons), so full partitions suffice.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    adj = _adj_masks(g)
    best = 0

    def assign(v: int, parts: list[int]):
        nonlocal best
        if v == g.n:
            if all(_mask_connected(p, adj) for p in parts):
                best = max(best, _clique_number(parts, adj))
            return
        for i in range(len(parts)):
            parts[i] |= 1 << v
            assign(v + 1, parts)
            parts[i] &= ~(1 << v)
        parts.append(1 << v)
        assign(v + 1, parts)
        parts.pop()

    assign(0, [])
    return best


def quotient_rows(g: SimpleGraph, bags) -> tuple[list[int], int]:
    """The quotient of g by the disjoint vertex masks `bags`, read from g's
    adjacency sets: one row per bag, whose bit t is set when some edge of g
    joins that bag to bag t, and the number of quotient edges."""
    members = [[v for v in range(g.n) if bag >> v & 1] for bag in bags]
    rows = []
    for s, own in enumerate(members):
        row = 0
        for t, other in enumerate(members):
            if t != s and any(g.adj[u] & set(other) for u in own):
                row |= 1 << t
        rows.append(row)
    return rows, sum(bin(row).count("1") for row in rows) // 2


def no_kt_minor_by_edge_count(g: SimpleGraph, t: int) -> bool:
    """True only when counting edges proves that g has no K_t minor.

    A K_t model with branch sets B_1, ..., B_t spends t(t-1)/2 host edges
    between the sets, one per pattern edge, and at least |B_i| - 1 edges on a
    spanning tree inside each B_i; these edges are all distinct.  So a graph
    with m < t(t-1)/2 edges has no K_t minor.  When m == t(t-1)/2 the tree
    edges sum to zero, every set is a single vertex, and the sets form a K_t
    subgraph; so without such a subgraph there is no K_t minor either.  In
    every other case the count proves nothing and the answer is False.
    """
    need = t * (t - 1) // 2
    m = len(g.edges())
    if m < need:
        return True
    if m > need:
        return False
    adj = _adj_masks(g)
    for verts in combinations(range(g.n), t):
        if all(adj[u] >> v & 1 for u, v in combinations(verts, 2)):
            return False
    return True


def naive_treewidth(g: SimpleGraph) -> int:
    """Treewidth as the least width over all n! elimination orderings.

    Eliminating a vertex joins its remaining neighbours into a clique; the
    width of an ordering is the largest neighbourhood met.  An ordering is
    abandoned once it reaches the best width known.  Meant for n <= 7.
    """
    best = max(g.n - 1, 0)
    for order in permutations(range(g.n)):
        nbrs = {v: set(g.adj[v]) for v in range(g.n)}
        width = 0
        for v in order:
            around = nbrs.pop(v)
            width = max(width, len(around))
            if width >= best:
                break
            for u in around:
                nbrs[u] |= around - {u}
                nbrs[u].discard(v)
        else:
            best = width
    return best


def check_tree_decomposition(g: SimpleGraph, bags, tree_edges) -> bool:
    """Axioms: vertex cover, edge cover, and connected bag subtrees."""
    if set().union(*bags) != set(range(g.n)):
        return False
    for u, v in g.edges():
        if not any(u in b and v in b for b in bags):
            return False
    t = len(bags)
    tree_adj = {i: set() for i in range(t)}
    for i, j in tree_edges:
        tree_adj[i].add(j)
        tree_adj[j].add(i)
    for v in range(g.n):
        nodes = {i for i in range(t) if v in bags[i]}
        if not nodes:
            return False
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in tree_adj[i]:
                if j in nodes and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != nodes:
            return False
    return True


def bramble_order(g: SimpleGraph, sets) -> int:
    """Order of a bramble: the minimum hitting set size, provided the sets
    are connected and pairwise touching.  A bramble of order w + 2 certifies
    treewidth at least w + 1."""
    adj = _adj_masks(g)
    masks = []
    for s in sets:
        mask = 0
        for v in s:
            mask |= 1 << v
        if not _mask_connected(mask, adj):
            raise ValueError(f"bramble set {sorted(s)} is not connected")
        masks.append(mask)
    for a, b in combinations(masks, 2):
        closure = a
        m = a
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            closure |= adj[v]
        if not closure & b:
            raise ValueError("bramble sets fail to touch")
    for r in range(g.n + 1):
        for hit in combinations(range(g.n), r):
            h = 0
            for v in hit:
                h |= 1 << v
            if all(mask & h for mask in masks):
                return r
    raise AssertionError("unhittable bramble")


def reference_faces(emb):
    """The facial walks of a rotation system as (states, incidences) pairs,
    in the order `embeddings.trace_faces` promises.

    Faces are traced on dart-sides (edge, end, side), side +1/-1 for the
    right/left of the dart, with the signed side-switching rule (Mohar &
    Thomassen, Graphs on Surfaces, section 3.3): cross the edge, switching
    sides only on a positive edge, then turn to the neighbouring dart in the
    rotation at the far vertex.  Each face circle is covered by two orbits
    one band arc apart; the walk is the orbit holding the smaller state,
    started there.
    """
    after, before = {}, {}
    for rot in emb.rotation.values():
        for i, dart in enumerate(rot):
            after[dart] = rot[(i + 1) % len(rot)]
            before[dart] = rot[i - 1]

    def arrival(e, side):
        return -side if emb.edges[e].sign == 1 else side

    def successor(state):
        e, end, side = state
        if arrival(e, side) == 1:
            return (*after[(e, 1 - end)], -1)
        return (*before[(e, 1 - end)], 1)

    def orbit(start):
        states = [start]
        while (nxt := successor(states[-1])) != start:
            states.append(nxt)
        return states

    walks, seen = [], set()
    for start in sorted((e, end, side) for e in emb.edges for end in (0, 1) for side in (1, -1)):
        if start in seen:
            continue
        e, end, side = start
        one, two = orbit(start), orbit((e, 1 - end, arrival(e, side)))
        if set(one) & set(two) or len(one) != len(two):
            raise ValueError("inconsistent facial orbits")
        seen.update(one, two)
        chosen = one if min(one) < min(two) else two
        j = chosen.index(min(chosen))
        states = tuple(chosen[j:] + chosen[:j])
        walks.append((states, tuple((emb.edges[e].ends[end], e) for e, end, _ in states)))
    walks.sort(key=lambda w: w[1])
    return walks
