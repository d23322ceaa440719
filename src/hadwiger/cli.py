"""Command-line front end.

Subcommands: construct, verify, eta, bounds, export.  Exit codes are part of
the contract: 0 ok, 1 verification failure, 2 usage, parameter or input error
(an output file that cannot be written included), 3 catalog gap, 4 oracle
budget exceeded.  All outputs are deterministic; JSON artifacts are
key-sorted and byte-identical across runs.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import sys

from . import bounds, constructions, minors, serialize
from .errors import BudgetExceeded, GenusOutOfCatalog, HadwigerError, NotInCatalog

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CATALOG = 3
EXIT_BUDGET = 4


class Unwritable(Exception):
    """An output file that could not be written (exit 2)."""


def _write(path: str | None, text: str):
    if path:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as exc:
            raise Unwritable(f"unwritable output: {exc}") from exc
    else:
        sys.stdout.write(text)


class Unreadable(Exception):
    """An input file that could not be read or decoded (exit 2)."""


@contextlib.contextmanager
def _decoding(what: str):
    """Every failure to read or decode an input inside the block, over-deep
    nesting included, raises `Unreadable`."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, RecursionError, HadwigerError) as exc:
        raise Unreadable(f"unreadable {what}: {exc}") from exc


def _load(path: str, decode, what: str):
    """`decode` of the JSON in the file at `path`."""
    with _decoding(what), open(path) as f:
        return decode(json.load(f))


def cmd_construct(args) -> int:
    cert = constructions.with_apex(args.g, args.p, args.k, args.a)
    rep = constructions.verify_certificate(cert)
    _write(args.out, serialize.dumps(serialize.certificate_to_json(cert)))
    if not rep.ok:
        print(rep, file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    cert = _load(args.certificate, serialize.certificate_from_json, "certificate")
    rep = constructions.verify_certificate(cert)
    rep.extend(bounds.sandwich_check(cert), prefix="sandwich-")
    print(serialize.dumps({"ok": rep.ok, "checks": rep.to_json()}), end="")
    return EXIT_OK if rep.ok else EXIT_VERIFY


def cmd_eta(args) -> int:
    def graph(obj):
        # the declared n meets the cap before n vertices are allocated; the
        # refusal passes `_decoding`, so it exits 4, not 2
        n = serialize.check_shape("graph", obj)["n"]
        minors.check_budget(n, args.cap)
        if n == 0:
            raise ValueError("graph has no vertex")
        return serialize.graph_from_json(obj)

    eta, model = minors.hadwiger_model(_load(args.graph, graph, "graph"), cap=args.cap)
    # written first, so that a failed write prints no eta
    if args.witness:
        _write(args.witness, serialize.dumps(serialize.model_to_json(model)))
    print(eta)
    return EXIT_OK


def cmd_bounds(args) -> int:
    rows = [
        ("surface_bound", bounds.surface_bound(args.g)),
        ("lemma21_bound", bounds.lemma21_bound(args.k, args.tw)),
        ("main_upper", bounds.main_upper(args.g, args.p, args.k)),
        ("full_upper", bounds.full_upper(args.g, args.p, args.k, args.a)),
        ("main_tool_bound", bounds.main_tool_bound(args.k, args.p, args.g)),
        ("lower_guarantee", bounds.lower_guarantee(args.g, args.p, args.k, args.a)),
    ]
    for name, value in rows:
        print(f"{name:16} {value if isinstance(value, int) else value.display()}")
    return EXIT_OK


def cmd_export(args) -> int:
    cert = _load(args.certificate, serialize.certificate_from_json, "certificate")
    host = cert.structure.host
    if args.format == "dot":
        _write(args.out, serialize.graph_to_dot(host))
    else:
        _write(args.out, serialize.dumps(serialize.graph_to_json(host)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hadwiger",
        description="Construct, verify and bound complete-minor certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a certificate for (g,p,k,a)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--out", help="certificate output path (default stdout)")

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate")

    p = sub.add_parser("eta", help="exact Hadwiger number of a graph file")
    p.add_argument("graph")
    p.add_argument("--cap", type=int, default=minors.ORACLE_CAP, help="oracle vertex cap")
    p.add_argument("--witness", help="write the witness model here")

    p = sub.add_parser("bounds", help="print all bound values for (g,p,k,a)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--tw", type=int, default=0, help="treewidth for the degree bound")

    p = sub.add_parser("export", help="export a certificate's flattened graph")
    p.add_argument("certificate")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    # the pipeline builds no reference cycles, so the cyclic collector would
    # only re-walk the growing certificate heap: it is paused per command
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, not bound into the cached parser, so that a
        # wrapper later put on a cmd_* function (a tracer's, say) is the one run
        command = globals()[f"cmd_{args.command}"]
        return command(args)
    except (Unreadable, Unwritable) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (GenusOutOfCatalog, NotInCatalog) as exc:
        print(f"catalog: {exc}", file=sys.stderr)
        return EXIT_CATALOG
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
