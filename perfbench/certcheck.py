"""Independent checker for `hadwiger construct` certificates.

It reads the certificate JSON alone and imports nothing from `hadwiger`, so
a fault shared by the builder and the package verifier cannot hide here.
Labels are compared by their canonical JSON text.

Checked:
  * the flattened host, rebuilt by label from the base edges, the vortex
    graphs and the apex edges;
  * exactly `n` branch sets, each non-empty and connected, pairwise disjoint
    and pairwise adjacent in the host;
  * every vortex bag has at most k+1 members, every vortex edge lies inside
    some bag, at most p vortices and at most a apexes;
  * the guarantee in integer arithmetic: n >= a and 16(n-a)^2 >= k^2 (p+g).

Run `python3 perfbench/certcheck.py CERT.json ...` to check files by hand.
"""
from __future__ import annotations

import copy
import json
import sys


def _key(label) -> str:
    return json.dumps(label, sort_keys=True, separators=(",", ":"))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def flattened_host(cert: dict):
    """Host vertex keys in index order and the adjacency sets by index.

    Index order is the certificate format's: base vertices by ascending
    embedding id, then vortex vertices by first appearance, then apexes.
    """
    st = cert["structure"]
    base = st["base"]
    base_ids = sorted(int(v) for v in base["vertices"])
    order = [_key(base["vertices"][str(v)]) for v in base_ids]
    index = {lab: i for i, lab in enumerate(order)}
    if len(index) != len(order):
        raise ValueError("base labels repeat")
    id_key = {v: _key(base["vertices"][str(v)]) for v in base_ids}
    label_edges = [(id_key[int(u)], id_key[int(w)]) for u, w in base["edges"].values()]
    for vx in st["vortices"]:
        g = vx["graph"]
        keys = [_key(g["labels"][str(i)]) for i in range(g["n"])]
        for lab in keys:
            if lab not in index:
                index[lab] = len(order)
                order.append(lab)
        label_edges.extend((keys[i], keys[j]) for i, j in g["edges"])
    for lab in st["apex"]:
        lab = _key(lab)
        if lab in index:
            raise ValueError("apex label also labels a structure vertex")
        index[lab] = len(order)
        order.append(lab)
    label_edges.extend((_key(x), _key(y)) for x, y in st["apex_edges"])
    adj = [set() for _ in order]
    for x, y in label_edges:
        i, j = index[x], index[y]
        if i == j:
            raise ValueError(f"loop at {x}")
        adj[i].add(j)
        adj[j].add(i)
    return order, adj


def _connected(members: set, adj) -> bool:
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == members


def model_problems(sets: dict, count: int, adj) -> list[str]:
    """Problems of `sets` (JSON branch sets keyed "0".."count-1", host
    indices) as a model of K_count in the graph with adjacency `adj`."""
    out = []
    if sorted(sets) != sorted(str(x) for x in range(count)):
        out.append(f"{len(sets)} branch sets for K_{count}")
    members = {}
    owner = {}
    for x, s in sets.items():
        if not isinstance(s, list) or not all(_is_int(v) and 0 <= v < len(adj) for v in s):
            out.append(f"branch set {x} is not a list of host indices")
            continue
        ms = set(s)
        if not ms:
            out.append(f"branch set {x} is empty")
            continue
        if not _connected(ms, adj):
            out.append(f"branch set {x} is not connected")
        for v in ms:
            if v in owner:
                out.append(f"branch sets {owner[v]} and {x} share host vertex {v}")
            owner[v] = x
        members[x] = ms
    reach = {x: set().union(*(adj[v] for v in ms)) for x, ms in members.items()}
    keys = sorted(members)
    for i, x in enumerate(keys):
        for y in keys[i + 1:]:
            if not reach[x] & members[y]:
                out.append(f"branch sets {x} and {y} are not adjacent")
    return out


def problems(cert: dict) -> list[str]:
    """Every violated property, as short messages; empty when valid."""
    out = []
    try:
        order, adj = flattened_host(cert)
        params = cert["structure"]["params"]
        n = cert["n"]
        model = cert["model"]
        sets = model["sets"]
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed: {exc!r}"]
    if len(params) != 4 or not all(_is_int(x) and x >= 0 for x in params):
        return [f"params not four nonnegative integers: {params!r}"]
    if not _is_int(n):
        return [f"n is not an integer: {n!r}"]
    g, p, k, a = params

    if model.get("pattern_n") != n or "pattern_edges" in model or model.get("k", 1) != 1:
        out.append("model pattern is not K_n with multiplicity 1")
    out.extend(model_problems(sets, n, adj))

    vortices = cert["structure"]["vortices"]
    if len(vortices) > p:
        out.append(f"{len(vortices)} vortices > p = {p}")
    if len(cert["structure"]["apex"]) > a:
        out.append(f"{len(cert['structure']['apex'])} apexes > a = {a}")
    for t, vx in enumerate(vortices):
        where: dict = {}
        for pos, bag in vx["bags"].items():
            if len(bag) > k + 1:
                out.append(f"vortex {t} bag {pos} has {len(bag)} > k+1 members")
            for lab in bag:
                where.setdefault(_key(lab), set()).add(pos)
        g_ = vx["graph"]
        keys_ = [_key(g_["labels"][str(i)]) for i in range(g_["n"])]
        for i, j in g_["edges"]:
            if not where.get(keys_[i], set()) & where.get(keys_[j], set()):
                out.append(f"vortex {t} edge {keys_[i]}-{keys_[j]} lies in no bag")
                break

    if n < a:
        out.append(f"n = {n} < a = {a}")
    elif 16 * (n - a) ** 2 < k * k * (p + g):
        out.append(f"16(n-a)^2 = {16 * (n - a) ** 2} < k^2(p+g) = {k * k * (p + g)}")
    return out


def broken_variants(cert: dict) -> dict:
    """Hand-broken copies of a valid certificate, each of which must be
    rejected.  Needs a certificate with at least two branch sets and one
    vortex."""
    sets = cert["model"]["sets"]
    out = {}

    c = copy.deepcopy(cert)
    c["model"]["sets"]["1"] = sorted(set(sets["1"]) | {sets["0"][0]})
    out["shared-vertex"] = c

    c = copy.deepcopy(cert)
    del c["model"]["sets"][str(len(sets) - 1)]
    out["missing-set"] = c

    c = copy.deepcopy(cert)
    c["n"] += 1
    out["n-too-large"] = c

    c = copy.deepcopy(cert)
    c["model"]["sets"]["0"] = []
    out["empty-set"] = c

    c = copy.deepcopy(cert)
    g, p, k, a = c["structure"]["params"]
    c["structure"]["params"] = [g, len(c["structure"]["vortices"]) - 1, k, a]
    out["too-many-vortices"] = c

    c = copy.deepcopy(cert)
    bags = c["structure"]["vortices"][0]["bags"]
    bags["0"] = bags["0"] + [lab for b in list(bags.values())[1:] for lab in b][: k + 1]
    out["wide-bag"] = c

    c = copy.deepcopy(cert)
    c["structure"]["vortices"][0]["bags"] = {pos: [] for pos in bags}
    out["edges-outside-bags"] = c

    c = copy.deepcopy(cert)
    v0 = sets["0"][0]
    adj = flattened_host(cert)[1]
    far = next(v for v in range(len(adj)) if v != v0 and v not in adj[v0])
    c["model"]["sets"]["0"] = sorted({v0, far})
    out["disconnected-set"] = c
    return out


def main(argv: list[str]) -> int:
    bad = 0
    for path in argv:
        with open(path) as f:
            found = problems(json.load(f))
        print(f"{path}: {'ok' if not found else '; '.join(found[:5])}")
        bad += bool(found)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
