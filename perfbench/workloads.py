"""Inputs of the four workloads, made from the run's seed.

The seed varies the inputs without changing the work they cause, so that
runs with different seeds measure the same thing:

  * round trips: the seed picks the declared (g, p) within the class that
    selects the same construction, the parity of k where only floor(k/2)
    matters, and the order of the points;
  * eta-exact: the seed shuffles the graphs' order and their edge lists.
    Vertex numbering is kept, because the exact search's running time
    depends on it (up to 2x on one graph under relabelling);
  * hostile-verify: the seed picks where and with what each mutant strikes.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from hadwiger import graphs
from hadwiger.cli import main as cli_main

import mutants

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_ETA = os.path.join(HERE, "eta_expected.json")

# many-vortex: (blocks per grid side m, k // 2, apexes).  The base is the
# 2m x 2m grid with one vortex per 2x2 block; p ranges over [m^2, (m+1)^2)
# and g over [0, p), which all give the same construction.
MANY_VORTEX = [(1, 1, 1), (2, 1, 0), (2, 2, 0), (3, 1, 0)]

# one-vortex: (catalog triangulation order, k, apexes).  The base is that
# triangulation minus one vertex; g ranges over the genera that select it.
ONE_VORTEX = [(4, 4, 0), (4, 6, 1), (6, 4, 0), (7, 4, 1)]
GENERA = {4: (1,), 6: (2, 3, 4), 7: (5, 6)}

# eta-exact: G(n, p) graphs drawn from fixed seeds, picked so that each
# takes between 0.1 s and 0.4 s in the exact search, plus the Petersen graph.
# A pass then takes about 2 s of search, so a run times every graph at
# eight or more moments.
ETA_POOL = [
    (10, 0.3, 0), (10, 0.3, 2), (10, 0.5, 0), (10, 0.5, 1), (10, 0.75, 3),
    (10, 0.75, 7), (11, 0.3, 0), (12, 0.75, 1),
]

# hostile-verify base certificates: a small and a mid-sized one of each
# construction (4 to 40 KB).
HOSTILE_BASES = {
    "small-mv": (1, 2, 3, 1),
    "small-ov": (1, 1, 2, 0),
    "mid-mv": (0, 4, 2, 0),
    "mid-ov": (1, 1, 4, 0),
}


def many_vortex_points(rng: random.Random) -> list[tuple]:
    points = []
    for m, half, a in MANY_VORTEX:
        p = rng.randrange(m * m, (m + 1) ** 2)
        points.append((rng.randrange(p), p, 2 * half + rng.randrange(2), a))
    rng.shuffle(points)
    return points


def one_vortex_points(rng: random.Random) -> list[tuple]:
    points = []
    for order, k, a in ONE_VORTEX:
        g = rng.choice(GENERA[order])
        points.append((g, rng.randint(1, g), k, a))
    rng.shuffle(points)
    return points


def construct_argv(point, out: str) -> list[str]:
    g, p, k, a = point
    return ["construct", "--g", str(g), "--p", str(p), "--k", str(k), "--a", str(a), "--out", out]


# ------------------------------------------------------------- eta graphs

def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def pool_graphs() -> dict[str, tuple[int, list]]:
    """name -> (n, sorted edge list) for every graph of the eta-exact set."""
    out = {"petersen": (10, sorted(petersen_edges()))}
    for n, p, seed in ETA_POOL:
        rng = random.Random(f"eta-{n}-{p}-{seed}")
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        out[f"gnp-{n}-{p}-{seed}"] = (n, edges)
    return out


def fingerprint(n: int, edges) -> str:
    return hashlib.sha256(json.dumps([n, sorted(edges)]).encode()).hexdigest()[:16]


def load_expected() -> dict:
    """The naive-oracle table, checked against the graphs it was made for."""
    with open(EXPECTED_ETA) as f:
        table = json.load(f)
    for name, (n, edges) in pool_graphs().items():
        row = table[name]
        if row["fingerprint"] != fingerprint(n, edges):
            raise ValueError(f"{EXPECTED_ETA} is stale for {name}; rerun expected_eta.py")
    return table


@dataclass
class EtaGraph:
    name: str
    path: str
    graph: object  # hadwiger SimpleGraph, the input of treewidth_oracle
    edges: list
    eta: int


def eta_inputs(rng: random.Random, workdir: str) -> list[EtaGraph]:
    table = load_expected()
    items = list(pool_graphs().items())
    rng.shuffle(items)
    out = []
    for i, (name, (n, edges)) in enumerate(items):
        listed = [[v, u] if rng.random() < 0.5 else [u, v] for u, v in edges]
        rng.shuffle(listed)
        path = os.path.join(workdir, f"graph-{i}.json")
        with open(path, "w") as f:
            json.dump({"n": n, "edges": listed}, f)
        out.append(EtaGraph(name, path, graphs.from_edges(n, edges), edges, table[name]["eta"]))
    return out


# ------------------------------------------------------------- hostile mutants

@dataclass
class HostileInputs:
    bases: dict = field(default_factory=dict)  # name -> (point, path, bytes)
    mutants: list = field(default_factory=list)  # (Mutant, path)
    marker: str = ""


def hostile_inputs(rng: random.Random, workdir: str) -> HostileInputs:
    """Build the base certificates with the CLI and write every mutant."""
    inputs = HostileInputs(marker=os.path.join(workdir, "evaluated-marker"))
    objs = {}
    for name, point in HOSTILE_BASES.items():
        path = os.path.join(workdir, f"base-{name}.json")
        if cli_main(construct_argv(point, path)) != 0:
            raise RuntimeError(f"base certificate {point} failed to build")
        with open(path, "rb") as f:
            data = f.read()
        inputs.bases[name] = (point, path, data)
        objs[name] = json.loads(data)
    found = mutants.seeded_mutants(objs, rng)
    found += mutants.known_fault_mutants(objs["small-mv"], inputs.marker)
    for i, m in enumerate(found):
        path = os.path.join(workdir, f"mutant-{i}.json")
        with open(path, "w") as f:
            f.write(m.text)
        inputs.mutants.append((m, path))
    return inputs


def make_inputs(workload: str, seed: int, workdir: str):
    rng = random.Random(seed)
    if workload == "many-vortex":
        return many_vortex_points(rng)
    if workload == "one-vortex":
        return one_vortex_points(rng)
    if workload == "eta-exact":
        return eta_inputs(rng, workdir)
    if workload == "hostile-verify":
        return hostile_inputs(rng, workdir)
    raise ValueError(f"unknown workload {workload}")
