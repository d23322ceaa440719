"""Benchmark of the hadwiger CLI and its layers.

    python3 perfbench/run.py --workload many-vortex --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads: many-vortex, one-vortex,
eta-exact, hostile-verify (see README.md next to this file).

Every operation runs in this one process, on one thread: a CLI invocation
goes through `hadwiger.cli.main`, an oracle call through `hadwiger.minors`.
The run repeats whole passes over the workload's inputs for `--seconds`
seconds (at least two passes, so that constructions can be compared byte
for byte).  A pass has two phases; the wall time of each, with every
operation at its fastest over the run's passes, gives the end-to-end
metrics:

  produce_s  construct (round trips, and the base certificates of
             hostile-verify) or `eta --witness` (eta-exact)
  check_s    verify (round trips, and the mutants of hostile-verify) or
             treewidth_oracle (eta-exact)

`setup_s` is the median time a fresh interpreter takes to import
hadwiger.cli and make the workload's inputs, over five such probes run
between the first passes and counted in `--seconds`; `peak_rss_mib` is
this process's peak resident memory after the passes.

With `--trace 1` the run alternates untraced and traced passes and reports
per-layer calls and self times per pass (see tracing.py), the certificate
bytes written per pass and the tracing overhead.  The spans and aggregates
go to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("many-vortex", "one-vortex", "eta-exact", "hostile-verify")
SETUP_PROBES = 5
MIN_PASSES = 2
BASE_BUILDS = 3


def import_package():
    """Import the package from this checkout's source tree, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import hadwiger.cli
    except ImportError as exc:
        sys.exit(f"cannot import hadwiger from {SRC}: {exc}")
    if not os.path.abspath(hadwiger.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"hadwiger was imported from {hadwiger.cli.__file__}, not from {SRC}")


@dataclass
class Op:
    name: str
    phase: str  # "produce" or "check"
    seconds: float
    ok: bool
    detail: str = ""
    known_fault: bool = False


def settle():
    """Before an operation, outside its timing: a full collection if a
    collection of the middle generation has run since the last full one.

    Only such a collection promotes objects to the oldest generation and
    counts towards the next full collection, so after this the operation's
    own full collections fall where its own allocations put them, not
    where earlier operations left the counters.  Nothing is frozen: the
    imported modules stay in the oldest generation and every full
    collection walks them, as in a `hadwiger` process.  Operations too
    short to run a middle collection (most mutants rejected on load) skip
    the 30-40 ms a full collection of the imported heap takes on a 2-vCPU
    VM; their young garbage goes to the next operation's young collections.
    """
    if gc.get_count()[2] > 0:
        gc.collect()


def cli_op(argv):
    """Run `hadwiger <argv>` in process: (seconds, exit code, stdout, escaped)."""
    from hadwiger.cli import main

    out, err = io.StringIO(), io.StringIO()
    settle()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        return perf_counter() - start, None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code, out.getvalue(), ""


def _report_ok(stdout: str) -> bool:
    try:
        return json.loads(stdout)["ok"] is True
    except (ValueError, KeyError, TypeError):
        return False


# ------------------------------------------------------------- workloads

class RoundTrip:
    """construct every point, then verify every certificate just written."""

    def __init__(self, points, workdir):
        self.points = points
        self.workdir = workdir
        self.passes: list[list[Op]] = []

    def cert_path(self, j, i):
        return os.path.join(self.workdir, f"pass-{j}", f"cert-{i}.json")

    def run_pass(self, j) -> list[Op]:
        from workloads import construct_argv

        os.makedirs(os.path.join(self.workdir, f"pass-{j}"))
        ops = []
        for i, point in enumerate(self.points):
            path = self.cert_path(j, i)
            secs, code, _, exc = cli_op(construct_argv(point, path))
            ok = not exc and code == 0 and os.path.exists(path)
            ops.append(Op(f"construct {point}", "produce", secs, ok, exc or f"exit {code}"))
        for i, point in enumerate(self.points):
            secs, code, out, exc = cli_op(["verify", self.cert_path(j, i)])
            ok = not exc and code == 0 and _report_ok(out)
            ops.append(Op(f"verify {point}", "check", secs, ok, exc or f"exit {code}"))
        self.passes.append(ops)
        return ops

    def cert_bytes(self) -> int:
        return sum(os.path.getsize(self.cert_path(0, i)) for i in range(len(self.points)))

    def finish(self) -> list[str]:
        """Independent checks of every certificate; a construction that
        fails them, or that differs between passes, fails in every pass."""
        import certcheck

        problems = []
        smallest = None
        for i, point in enumerate(self.points):
            with open(self.cert_path(0, i), "rb") as f:
                data = f.read()
            found = certcheck.problems(json.loads(data))
            for j in range(1, len(self.passes)):
                with open(self.cert_path(j, i), "rb") as f:
                    if f.read() != data:
                        found.append(f"pass {j} wrote different bytes")
            if found:
                for ops in self.passes:
                    ops[i].ok = False
                    ops[i].detail = "; ".join(found[:3])
            elif smallest is None or len(data) < len(smallest):
                smallest = data
        if smallest is not None:
            for name, broken in certcheck.broken_variants(json.loads(smallest)).items():
                if not certcheck.problems(broken):
                    problems.append(f"certcheck accepts the hand-broken certificate {name}")
        return problems


class EtaExact:
    """`eta --witness` over every graph, then treewidth_oracle over each."""

    def __init__(self, graphs, workdir):
        self.graphs = graphs
        self.workdir = workdir
        self.passes: list[list[Op]] = []
        self.widths: dict[str, set] = {g.name: set() for g in graphs}

    def run_pass(self, j) -> list[Op]:
        from hadwiger import minors

        os.makedirs(os.path.join(self.workdir, f"pass-{j}"))
        ops = []
        for i, g in enumerate(self.graphs):
            witness = os.path.join(self.workdir, f"pass-{j}", f"witness-{i}.json")
            secs, code, out, exc = cli_op(["eta", g.path, "--witness", witness])
            found = exc or self._eta_problem(g, code, out, witness)
            ops.append(Op(f"eta {g.name}", "produce", secs, not found, found))
        for g in self.graphs:
            settle()
            start = perf_counter()
            try:
                tw = minors.treewidth_oracle(g.graph)
            except Exception as exc:  # an escaping error fails this operation
                ops.append(Op(f"treewidth {g.name}", "check", perf_counter() - start, False, repr(exc)))
                continue
            secs = perf_counter() - start
            self.widths[g.name].add(tw)
            ok = isinstance(tw, int) and g.eta - 1 <= tw
            ops.append(Op(f"treewidth {g.name}", "check", secs, ok, f"tw {tw}, eta {g.eta}"))
        self.passes.append(ops)
        return ops

    @staticmethod
    def _eta_problem(g, code, out, witness) -> str:
        import certcheck

        if code != 0:
            return f"exit {code}"
        if out.strip() != str(g.eta):
            return f"printed {out.strip()!r}, expected eta {g.eta}"
        with open(witness) as f:
            model = json.load(f)
        if model.get("pattern_n") != g.eta or "pattern_edges" in model or model.get("k", 1) != 1:
            return "witness is not a model of K_eta"
        adj = [set() for _ in range(g.graph.n)]
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        found = certcheck.model_problems(model["sets"], g.eta, adj)
        return "; ".join(found[:3])

    def cert_bytes(self) -> int:
        return 0

    def finish(self) -> list[str]:
        problems = []
        heuristic = _min_degree_widths(self.graphs)
        for t, g in enumerate(self.graphs):
            if g.eta * (g.eta - 1) // 2 > len(g.edges):
                problems.append(f"{g.name}: expected eta {g.eta} needs more than m = {len(g.edges)} edges")
            widths = self.widths[g.name]
            bad = len(widths) > 1 or (heuristic and max(widths, default=0) > heuristic[g.name])
            if bad:
                for ops in self.passes:
                    op = ops[len(self.graphs) + t]
                    op.ok = False
                    op.detail = f"treewidths {sorted(widths)}, min-degree width {heuristic.get(g.name)}"
        return problems


def _min_degree_widths(graphs) -> dict:
    """Width of networkx's min-degree elimination, an upper bound on the
    treewidth; empty when networkx is not installed."""
    try:
        import networkx as nx
        from networkx.algorithms.approximation import treewidth_min_degree
    except ImportError:
        return {}
    out = {}
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.graph.n))
        h.add_edges_from(g.edges)
        out[g.name] = treewidth_min_degree(h)[0]
    return out


class HostileVerify:
    """construct the base certificates, then verify every mutant.  Each base
    is built BASE_BUILDS times per pass, so that the produce phase holds
    enough work to be timed as steadily as the check phase."""

    def __init__(self, inputs, workdir):
        self.inputs = inputs
        self.workdir = workdir
        self.passes: list[list[Op]] = []

    def run_pass(self, j) -> list[Op]:
        from workloads import construct_argv

        os.makedirs(os.path.join(self.workdir, f"pass-{j}"))
        ops = []
        for b in range(BASE_BUILDS):
            for name, (point, _, data) in self.inputs.bases.items():
                path = os.path.join(self.workdir, f"pass-{j}", f"base-{name}-{b}.json")
                secs, code, _, exc = cli_op(construct_argv(point, path))
                ok = not exc and code == 0 and _read(path) == data
                ops.append(Op(f"construct {point} #{b}", "produce", secs, ok, exc or f"exit {code}"))
        marker = self.inputs.marker
        for mutant, path in self.inputs.mutants:
            secs, code, out, exc = cli_op(["verify", path])
            evaluated = os.path.isdir(marker)
            if evaluated:
                os.rmdir(marker)
            ok = (
                not exc
                and not evaluated
                and code in mutant.expect
                and (code not in (0, 1) or _report_ok(out) == (code == 0))
            )
            detail = exc or ("guarantee_expr was evaluated" if evaluated else f"exit {code}")
            ops.append(Op(f"verify {mutant.name}", "check", secs, ok, detail, mutant.known_fault))
        self.passes.append(ops)
        return ops

    def cert_bytes(self) -> int:
        return sum(len(data) for _, _, data in self.inputs.bases.values())

    def finish(self) -> list[str]:
        """A neutral rewrite must still pass the independent checker."""
        import certcheck
        from mutants import NEUTRAL

        problems = []
        for mutant, _ in self.inputs.mutants:
            if mutant.expect == NEUTRAL and certcheck.problems(json.loads(mutant.text)):
                problems.append(f"neutral mutant {mutant.name} fails the independent checker")
        return problems


def _read(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return b""


def make_runner(workload, seed, workdir):
    import workloads

    inputs = workloads.make_inputs(workload, seed, workdir)
    if workload in ("many-vortex", "one-vortex"):
        return RoundTrip(inputs, workdir)
    if workload == "eta-exact":
        return EtaExact(inputs, workdir)
    return HostileVerify(inputs, workdir)


# ------------------------------------------------------------- measuring

def setup_probe(args, workdir) -> float:
    """Wall time of a fresh interpreter that imports hadwiger.cli and makes
    this run's inputs, then exits."""
    probe_dir = os.path.join(workdir, "setup-probe")
    os.makedirs(probe_dir)
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe", probe_dir,
    ]
    # wait() without a timeout blocks in waitpid; with one it polls every
    # 50 ms, which would round the measurement
    start = perf_counter()
    code = subprocess.Popen(cmd, stdout=subprocess.DEVNULL).wait()
    seconds = perf_counter() - start
    shutil.rmtree(probe_dir)
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}")
    return seconds


def phase_seconds(passes: list[list[Op]], phase: str) -> float:
    """Time of one pass over the phase's operations, each operation at its
    fastest over `passes`.

    On a shared machine, stretches of seconds to minutes run 20-80 %
    slower, long enough to cover most samples of an operation; the work is
    the same in every pass, and the slowdown only ever adds time, so the
    fastest repetition is the least disturbed measurement of it."""
    return sum(min(op.seconds for op in same) for same in zip(*passes) if same[0].phase == phase)


def run_passes(runner, seconds, tracer=None, between=None):
    """Whole passes until `seconds` have gone by.  With a tracer, passes
    alternate untraced and traced; returns (untraced, traced) lists of each
    pass's operations.  `between(j)` runs before pass j, within `seconds`."""
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    j = 0
    while j < MIN_PASSES or perf_counter() < deadline:
        if between:
            between(j)
        trace_this = tracer is not None and j % 2 == 1
        if trace_this:
            tracer.install()
        try:
            ops = runner.run_pass(j)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else untraced).append(ops)
        j += 1
    return untraced, traced


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tracer, runner, untraced, traced) -> dict:
    from tracing import COVER_TARGET, FUNCTIONS, span_name

    n = len(traced)
    out = {}
    for module, path, with_total in FUNCTIONS:
        name = span_name(module, path)
        calls = tracer.calls.get(name, 0)
        out[f"{name}.calls"] = metric(calls // n if calls % n == 0 else calls / n, "count")
        out[f"{name}.self_s"] = metric(tracer.self_s.get(name, 0.0) / n, "s")
        if with_total:
            out[f"{name}.total_s"] = metric(tracer.total_s.get(name, 0.0) / n, "s")
    out["serialize.cert_bytes"] = metric(runner.cert_bytes(), "bytes")

    def pass_seconds(passes):
        return phase_seconds(passes, "produce") + phase_seconds(passes, "check")

    out["trace.overhead_s"] = metric(pass_seconds(traced) - pass_seconds(untraced), "s")
    shares = tracer.cover_shares()
    out["trace.cover_min"] = metric(min(shares, default=1.0), "share")
    out["trace.cover_misses"] = metric(sum(s < COVER_TARGET for s in shares) / n, "count")
    return out


def write_results(args, metrics, untraced, traced, tracer):
    """Metrics, per-operation times and, when traced, the spans."""
    os.makedirs(OUT, exist_ok=True)
    mode = "trace" if tracer else "run"
    path = os.path.join(OUT, f"{mode}-{args.workload}-seed{args.seed}.json")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": metrics,
        "ops": [
            {"name": same[0].name, "phase": same[0].phase, "min_s": min(op.seconds for op in same),
             "median_s": statistics.median(op.seconds for op in same)}
            for same in zip(*untraced)
        ],
    }
    if tracer:
        result["traced_ops"] = [
            {"name": same[0].name, "min_s": min(op.seconds for op in same)} for same in zip(*traced)
        ]
        result["coverage"] = [{"name": n, "wall_s": w, "covered_s": c} for n, w, c in tracer.coverage]
        result["spans"] = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p} for i, n, s, e, p in tracer.spans
        ]
        result["spans_dropped"] = tracer.dropped
    with open(path, "w") as f:
        json.dump(result, f)
    print(f"results written to {os.path.relpath(path, ROOT)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    if args.setup_probe:
        import workloads

        workloads.make_inputs(args.workload, args.seed, args.setup_probe)
        return 0

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    runner = make_runner(args.workload, args.seed, workdir)

    # The set-up probes run between the first passes, so that they sample
    # the machine at several moments of the run rather than in one stretch.
    probes: list[float] = []

    def probe(j):
        if j < SETUP_PROBES:
            probes.append(setup_probe(args, workdir))

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    untraced, traced = run_passes(runner, args.seconds, tracer, None if args.trace else probe)
    while not args.trace and len(probes) < SETUP_PROBES:
        probe(len(probes))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = runner.finish()

    ops = [op for passes in (untraced, traced) for pass_ops in passes for op in pass_ops]
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if not op.known_fault]
    for op in {op.name: op for op in failed}.values():
        tag = "known fault" if op.known_fault else "FAILED"
        print(f"{tag}: {op.name}: {op.detail}", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM: {p}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(tracer, runner, untraced, traced)
    else:
        metrics = {
            "setup_s": metric(statistics.median(probes), "s"),
            "produce_s": metric(phase_seconds(untraced, "produce"), "s"),
            "check_s": metric(phase_seconds(untraced, "check"), "s"),
            "peak_rss_mib": metric(peak_rss_mib, "MiB"),
        }
    write_results(args, metrics, untraced, traced, tracer)
    passes = len(untraced) + len(traced)
    summary = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in metrics.items() if "." not in k)
    print(f"{args.workload} seed {args.seed}: {passes} passes, {len(ops)} ops, "
          f"{len(failed)} failed; {summary}", file=sys.stderr)
    result = {
        "correct": not unexpected and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
