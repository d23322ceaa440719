"""Self-test of the benchmark's own checkers.

    python3 perfbench/selftest.py

* certcheck accepts every certificate `hadwiger construct` builds at the
  round-trip points of seeds 0 and 1, and rejects each hand-broken copy of
  every one of them;
* every neutral mutant passes certcheck, and the mutant kinds give
  `hadwiger verify` the exit codes the generator expects, for seeds 0-9;
* the witness check of eta-exact rejects a model that is not one.

Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import certcheck  # noqa: E402
import mutants  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check_certificates(workdir) -> list[str]:
    errors = []
    points = set()
    for seed in (0, 1):
        points.update(workloads.many_vortex_points(random.Random(seed)))
        points.update(workloads.one_vortex_points(random.Random(seed)))
    for i, point in enumerate(sorted(points)):
        path = os.path.join(workdir, f"cert-{i}.json")
        _, code, _, exc = run.cli_op(workloads.construct_argv(point, path))
        if exc or code != 0:
            errors.append(f"construct {point}: {exc or code}")
            continue
        with open(path) as f:
            cert = json.load(f)
        found = certcheck.problems(cert)
        if found:
            errors.append(f"certcheck rejects the valid certificate {point}: {found[:2]}")
        for name, broken in certcheck.broken_variants(cert).items():
            if not certcheck.problems(broken):
                errors.append(f"certcheck accepts {point} broken by {name}")
    return errors


def check_mutants(workdir) -> list[str]:
    errors = []
    bases = {}
    for name, point in workloads.HOSTILE_BASES.items():
        path = os.path.join(workdir, f"base-{name}.json")
        run.cli_op(workloads.construct_argv(point, path))
        with open(path) as f:
            bases[name] = json.load(f)
    path = os.path.join(workdir, "mutant.json")
    for seed in range(10):
        for m in mutants.seeded_mutants(bases, random.Random(seed)):
            if m.expect == mutants.NEUTRAL and certcheck.problems(json.loads(m.text)):
                errors.append(f"seed {seed}: neutral mutant {m.name} fails certcheck")
            with open(path, "w") as f:
                f.write(m.text)
            _, code, _, exc = run.cli_op(["verify", path])
            if exc or code not in m.expect:
                errors.append(f"seed {seed}: {m.name} gave {exc or code}, expected {sorted(m.expect)}")
    return errors


def check_witness_check() -> list[str]:
    adj = [{1}, {0, 2}, {1}]  # the path 0-1-2 has no K3 minor
    wrong = {"0": [0], "1": [1], "2": [2]}
    if not certcheck.model_problems(wrong, 3, adj):
        return ["the witness check accepts K3 in a path"]
    return []


def main() -> int:
    run.import_package()
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        errors = check_witness_check() + check_certificates(workdir) + check_mutants(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest:", "ok" if not errors else f"{len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
