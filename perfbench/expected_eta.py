"""Recompute the expected Hadwiger number of every eta-exact graph.

Uses `tests/oracles.naive_eta`, which enumerates every partition of the
vertex set into connected parts and shares no code with the package's
search oracles, and writes `perfbench/eta_expected.json`.  Takes a few
minutes (about a minute per 12-vertex graph).

    python3 perfbench/expected_eta.py
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from hadwiger import graphs  # noqa: E402
from oracles import naive_eta  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    table = {}
    for name, (n, edges) in workloads.pool_graphs().items():
        start = time.perf_counter()
        eta = naive_eta(graphs.from_edges(n, edges))
        took = time.perf_counter() - start
        if eta * (eta - 1) // 2 > len(edges):
            raise AssertionError(f"{name}: eta {eta} needs more than {len(edges)} edges")
        table[name] = {"n": n, "m": len(edges), "eta": eta, "fingerprint": workloads.fingerprint(n, edges)}
        print(f"{name:20} n={n} m={len(edges)} eta={eta} ({took:.1f} s)", file=sys.stderr)
    if table["petersen"]["eta"] != 5:
        raise AssertionError("the Petersen graph has Hadwiger number 5")
    with open(workloads.EXPECTED_ETA, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
