"""Command-line front end: build families, compute spectra, counts and
invariants, run verification campaigns, emit reports.

Exit codes: 0 success, 1 verification failure found, 2 usage error.

verify and search run through verify's one run driver (verify.verify_steps,
verify.search_counterexamples), which checks the order options and imports
sweeps only for a sweep step and quotients only for a family grid or
checker. spectral is imported inside the subcommands that read it, so a
sampled search or a family verify starts without loading sweeps or
spectral; csv is imported only for `verify --output csv`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from . import exact, jacobi, verify
from .graph6 import graph6_decode, graph6_encode
from .graphs import FAMILIES, Graph, GraphError, k_copies, make_family
from .invariants import invariant_bundle


def _parse_family_string(text: str) -> tuple[str, dict[str, int]]:
    """Compact family syntax: kind,key=value,... e.g. 'gndt,n=9,d=3,t=2'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise GraphError(f"empty family spec {text!r}")
    if parts[0] == "kcopies":
        raise GraphError("kcopies is built only by `qdist family --kind kcopies --of KIND`")
    params: dict[str, int] = {}
    for p in parts[1:]:
        key, eq, val = (x.strip() for x in p.partition("="))
        if not eq:
            raise GraphError(f"family parameter {p!r} is not key=value")
        if key in params:
            raise GraphError(f"family parameter {key!r} is given twice in {text!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise GraphError(f"family parameter {p!r} is not key=integer") from None
    return parts[0], params


def _input_graphs(args: argparse.Namespace) -> list[Graph]:
    if args.graph6 is not None:
        return [graph6_decode(args.graph6)]
    if args.family is not None:
        return [make_family(*_parse_family_string(args.family))]
    if args.file is not None:
        try:
            with open(args.file) as fh:
                lines, source = fh.readlines(), f"--file {args.file}"
        except OSError as err:
            raise GraphError(f"cannot read --file: {err}") from err
    elif not sys.stdin.isatty():
        lines, source = sys.stdin.readlines(), "stdin"
    else:
        raise GraphError("no graph input: use --graph6, --file, --family, or pipe graph6 lines")
    graphs = [graph6_decode(line) for line in lines if line.strip()]
    if not graphs:  # an empty producer upstream must not read as a clean run
        raise GraphError(f"no graph6 line in {source}")
    return graphs


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    """At most one of the three inputs; stdin when none is given."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--graph6", help="graph6 string")
    group.add_argument("--file", help="file with one graph6 string per line")
    group.add_argument("--family", help="family spec, e.g. 'gndt,n=9,d=3,t=2'")


def _each_graph(args: argparse.Namespace, compute) -> list[tuple[str, object]]:
    """(graph6, compute(g)) for every input graph g, all computed before the
    caller prints its first line; an input error on one graph names it."""
    out = []
    for g in _input_graphs(args):
        try:
            out.append((graph6_encode(g), compute(g)))
        except ValueError as err:
            raise GraphError(f"graph {graph6_encode(g)}: {err}") from None
    return out


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for k, v in obj.items():
            print(f"{k}: {v}")


def cmd_family(args: argparse.Namespace) -> int:
    params = {name: getattr(args, name) for name in ("n", "d", "t", "r", "a", "k") if getattr(args, name) is not None}
    kind, copies = args.kind, None
    if kind == "kcopies":
        if args.of is None:
            raise GraphError("kcopies needs --of INNER_KIND")
        if args.k is None:
            raise GraphError("kcopies needs --k")
        kind, copies = args.of, params.pop("k")
    elif args.of is not None:
        raise GraphError(f"--of is for --kind kcopies only, not {kind}")
    g = make_family(kind, params)
    label = f"{kind}({','.join(f'{p}={v}' for p, v in sorted(params.items()))})"
    if copies is not None:
        g, label = k_copies(g, copies), f"kcopies(k={copies};of={label})"
    if args.format == "json":
        _emit({"family": label, "n": g.n, "graph6": graph6_encode(g), "edges": g.edges()}, "json")
    else:
        print(graph6_encode(g))
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    from . import spectral

    thresholds = [spectral.parse_rational(t) for t in args.threshold or []]
    for _, rep in _each_graph(args, lambda g: spectral.spectrum_report(g, args.matrix, thresholds)):
        if args.format == "json":
            print(json.dumps(rep, sort_keys=True))
        else:
            vals = " ".join(f"{v:.10g}" for v in rep["eigenvalues"])
            print(f"{rep['graph']} {args.matrix}: {vals}")
            for t, c in rep["exact_counts"].items():
                print(f"  count below {t}: {c}")
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    from . import spectral

    interval = spectral.parse_interval(args.interval)

    def count(g: Graph) -> tuple[str, int]:
        return str(interval.resolve(g.n)), spectral.m_count(g, interval, matrix=args.matrix)

    for g6, (iv, c) in _each_graph(args, count):
        if args.format == "json":
            _emit({"graph6": g6, "interval": iv, "count": c, "matrix": args.matrix}, "json")
        else:
            print(c)
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    for g6, inv in _each_graph(args, invariant_bundle):
        if args.format == "json":
            print(json.dumps({"graph6": g6, **inv}, sort_keys=True))
        else:
            print(f"{g6}: {json.dumps(inv)}")
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    blocks = []
    for block in args.blocks.split(";"):
        try:
            blocks.append(sorted(int(v) for v in block.split(",") if v != ""))
        except ValueError:
            raise GraphError(f"partition block {block!r} is not a list of integers") from None

    def quotient(g: Graph) -> dict:
        rows, equitable = exact.quotient(g, blocks)
        return {"blocks": blocks, "matrix": [[str(x) for x in row] for row in rows], "equitable": equitable}

    for g6, obj in _each_graph(args, quotient):
        _emit({"graph6": g6, **obj}, args.format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    steps = verify.verify_steps(args.theorem, args.exhaustive, args.family_max)
    print(f"# qdist verify --theorem {args.theorem} --exhaustive {args.exhaustive} "
          f"--family-max {args.family_max}", file=sys.stderr)
    done = list(steps)
    failures = [rep for _, _, bad in done for rep in bad]
    if args.output == "csv":
        import csv

        out = csv.writer(sys.stdout, lineterminator="\n")  # family instances hold commas
        out.writerow(["theorem", "instance", "passed"])
        out.writerows([rep.theorem_id, rep.instance, rep.passed] for rep in failures)
    elif args.output == "jsonl":
        for rep in failures:
            print(rep.to_json_line())
    else:
        for _, line, _ in done:
            print(line)
        for rep in failures:
            print("FAIL " + rep.to_json_line())
    return 1 if failures else 0


def cmd_search(args: argparse.Namespace) -> int:
    print(f"# qdist search --theorem {args.theorem} --n-min {args.n_min} --n-max {args.n_max} "
          f"--budget {args.budget} --seed {args.seed}", file=sys.stderr)
    failures = verify.search_counterexamples(
        args.theorem, (args.n_min, args.n_max), budget=args.budget, seed=args.seed
    )
    for rep in failures:
        print(rep.to_json_line())
    print(f"# {len(failures)} failures", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qdist", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("family", help="construct a named family member, print graph6")
    p.add_argument("--kind", required=True, choices=[*FAMILIES, "kcopies"])
    for name in ("n", "d", "t", "r", "a", "k"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--of", choices=list(FAMILIES), help="inner kind for kcopies")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("spectrum", help="eigenvalues and exact counts")
    _add_graph_input(p)
    p.add_argument("--matrix", choices=["Q", "L"], default="Q")
    p.add_argument("--threshold", action="append", help="exact count below this rational, repeatable")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("count", help="exact eigenvalue count in an interval")
    _add_graph_input(p)
    p.add_argument("--interval", required=True, help="e.g. \"[0,1)\" or \"[0,n-3)\" or \"(2,2n-2]\"")
    p.add_argument("--matrix", choices=["Q", "L"], default="Q")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("invariants", help="matching, independence, domination, diameter, longest path")
    _add_graph_input(p)
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("quotient", help="partition quotient matrix of the signless Laplacian")
    _add_graph_input(p)
    p.add_argument("--blocks", required=True, help="semicolon-separated blocks, e.g. '0;1,2;3'")
    p.add_argument("--format", choices=["text", "json"], default="json")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("verify", help="run theorem checkers exhaustively")
    p.add_argument("--theorem", required=True, help="theorem id or 'all'")
    p.add_argument("--exhaustive", type=int, default=6, help="max n for exhaustive sweeps")
    p.add_argument("--family-max", type=int, default=12, help="max n for family grids")
    p.add_argument("--jobs", type=int, help="ignored: every check runs in this process")
    p.add_argument("--output", choices=["text", "jsonl", "csv"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="counterexample search over exhaustive and sampled streams")
    p.add_argument("--theorem", required=True)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--budget", type=int, default=2000, help="samples per order for n >= 8")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_search)

    return ap


def exit_code(command: Callable[..., int], *args) -> int:
    """command(*args), or 2 when it raises an input error, with `error:
    <message>` on stderr. Every qdist input error is a ValueError; str() of
    a KeyError quotes its message, so its argument is printed instead."""
    try:
        return command(*args)
    except (jacobi.ConvergenceError, KeyError, ValueError) as err:
        print(f"error: {err.args[0] if isinstance(err, KeyError) and err.args else err}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
