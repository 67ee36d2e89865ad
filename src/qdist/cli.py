"""Command-line front end: build families, compute spectra, counts and
invariants, run verification campaigns, emit reports.

Exit codes: 0 success, 1 verification failure found, 2 usage error.

sweeps and spectral are imported inside the subcommands that run them, so a
sampled search or a family verify starts without loading either (verify
loads quotients only for a family grid or checker); csv is imported only
for `verify --output csv`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from . import exact, jacobi, verify
from .graph6 import graph6_decode, graph6_encode
from .graphs import FamilyKind, FamilySpec, Graph, GraphError, make_family
from .invariants import invariant_bundle


def _family_spec_from_args(args: argparse.Namespace) -> FamilySpec:
    kind = FamilyKind(args.kind)
    params = {}
    for name in ("n", "d", "t", "r", "a", "k"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    inner = None
    if kind is FamilyKind.K_COPIES:
        if args.of is None:
            raise GraphError("kcopies needs --of INNER_KIND")
        inner_params = {k: v for k, v in params.items() if k != "k"}
        inner = FamilySpec(FamilyKind(args.of), inner_params)
        params = {"k": params["k"]}
    return FamilySpec(kind, params, inner)


def _parse_family_string(text: str) -> FamilySpec:
    """Compact family syntax: kind,key=value,... e.g. 'gndt,n=9,d=3,t=2'."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise GraphError(f"empty family spec {text!r}")
    kind = FamilyKind(parts[0])
    params = {}
    for p in parts[1:]:
        if "=" not in p:
            raise GraphError(f"family parameter {p!r} is not key=value")
        key, val = p.split("=", 1)
        params[key.strip()] = int(val)
    return FamilySpec(kind, params)


def _input_graphs(args: argparse.Namespace) -> list[Graph]:
    if getattr(args, "graph6", None) is not None:
        return [graph6_decode(args.graph6)]
    if getattr(args, "file", None) is not None:
        try:
            fh = open(args.file)
        except OSError as err:
            raise GraphError(f"cannot read --file: {err}") from err
        with fh:
            return [graph6_decode(line) for line in fh if line.strip()]
    if getattr(args, "family", None) is not None:
        return [make_family(_parse_family_string(args.family))]
    if not sys.stdin.isatty():
        return [graph6_decode(line) for line in sys.stdin if line.strip()]
    raise GraphError("no graph input: use --graph6, --file, --family, or pipe graph6 lines")


def _add_graph_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph6", help="graph6 string")
    p.add_argument("--file", help="file with one graph6 string per line")
    p.add_argument("--family", help="family spec, e.g. 'gndt,n=9,d=3,t=2'")


def _each_graph(args: argparse.Namespace, compute) -> list[tuple[Graph, object]]:
    """(g, compute(g)) for every input graph, all computed before the caller
    prints its first line; an error on one graph names it."""
    out = []
    for g in _input_graphs(args):
        try:
            out.append((g, compute(g)))
        except GraphError as err:
            raise GraphError(f"graph {graph6_encode(g)}: {err}") from None
    return out


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        if isinstance(obj, dict):
            for k, v in obj.items():
                print(f"{k}: {v}")
        else:
            print(obj)


def cmd_family(args: argparse.Namespace) -> int:
    spec = _family_spec_from_args(args)
    g = make_family(spec)
    if args.format == "json":
        _emit({"family": spec.describe(), "n": g.n, "graph6": graph6_encode(g), "edges": g.edges()}, "json")
    else:
        print(graph6_encode(g))
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    from . import spectral

    thresholds = [spectral.parse_rational(t) for t in args.threshold or []]
    for g in _input_graphs(args):
        rep = spectral.spectrum_report(g, args.matrix, thresholds)
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

    sym = spectral.parse_interval(args.interval)
    graphs = _input_graphs(args)
    intervals = []
    for g in graphs:  # every interval is resolved before the first line is printed
        try:
            intervals.append(sym.resolve(g.n))
        except spectral.IntervalError as err:
            raise spectral.IntervalError(f"{sym} at n = {g.n} (graph {graph6_encode(g)}): {err}") from None
    for g, iv in zip(graphs, intervals):
        c = spectral.m_count(g, iv, matrix=args.matrix)
        if args.format == "json":
            _emit({"graph6": graph6_encode(g), "interval": str(iv), "count": c, "matrix": args.matrix}, "json")
        else:
            print(c)
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    for g, bundle in _each_graph(args, invariant_bundle):
        if args.format == "json":
            print(json.dumps({"graph6": graph6_encode(g), **json.loads(bundle.to_json())}, sort_keys=True))
        else:
            print(f"{graph6_encode(g)}: {bundle.to_json()}")
    return 0


def cmd_quotient(args: argparse.Namespace) -> int:
    blocks = [[int(v) for v in block.split(",") if v != ""] for block in args.blocks.split(";")]
    partition = exact.Partition.of(blocks)

    def quotient(g: Graph) -> dict:
        return {
            "graph6": graph6_encode(g),
            "blocks": [list(b) for b in partition.blocks],
            "matrix": [[str(x) for x in row] for row in exact.quotient_matrix(g, partition).rows],
            "equitable": exact.is_equitable(g, partition),
        }

    for _, obj in _each_graph(args, quotient):
        _emit(obj, args.format)
    return 0


def _theorem_list(name: str) -> list[str]:
    if name == "all":
        return list(verify.ALL_THEOREM_IDS)
    return [verify.canonical_theorem_id(name)]


def verify_steps(
    theorem: str, exhaustive: int, family_max: int
) -> Iterator[tuple[str, str, list[verify.TheoremReport]]]:
    """The steps of a verify run, each computed when it is asked for: every
    exhaustive sweep for n = 1..exhaustive and every family grid, as its
    theorem id, its summary line and its failures. The arguments are checked
    before any step runs, and a run that would check nothing is refused."""
    if not 0 <= exhaustive <= verify.EXHAUSTIVE_LIMIT:
        raise ValueError(f"--exhaustive must lie in 0..{verify.EXHAUSTIVE_LIMIT}, got {exhaustive}")
    if family_max > verify.FAMILY_LIMIT:
        raise ValueError(f"--family-max must be at most {verify.FAMILY_LIMIT}, got {family_max}")
    theorem_ids = _theorem_list(theorem)
    grids = [tid for tid in theorem_ids if tid in verify.FAMILY_THEOREM_IDS]
    if grids and family_max < verify.FAMILY_MIN:
        raise ValueError(f"--family-max must be at least {verify.FAMILY_MIN} for a family grid, got {family_max}")
    if not grids and exhaustive == 0:
        raise ValueError(f"--exhaustive 0 selects no instance of {theorem}")

    def steps():
        for tid in theorem_ids:
            if tid in verify.GRAPH_THEOREMS:
                from . import sweeps

                for n in range(1, exhaustive + 1):
                    result = sweeps.exhaustive_failures(tid, n)
                    yield tid, result.summary(), result.failures
            else:
                instances, bad = 0, []
                for rep in verify.iter_family_reports(tid, verify.FAMILY_MIN, family_max):
                    instances += 1
                    if rep.applicable and not rep.passed:
                        bad.append(rep)
                yield tid, f"{tid} grid n<={family_max}: {instances} instances, {len(bad)} failures", bad

    return steps()


def cmd_verify(args: argparse.Namespace) -> int:
    steps = verify_steps(args.theorem, args.exhaustive, args.family_max)
    print(f"# qdist verify --theorem {args.theorem} --exhaustive {args.exhaustive} "
          f"--family-max {args.family_max}", file=sys.stderr)
    failures: list[verify.TheoremReport] = []
    lines: list[str] = []
    for _, line, bad in steps:
        lines.append(line)
        failures.extend(bad)
    if args.output == "csv":
        import csv

        out = csv.writer(sys.stdout, lineterminator="\n")  # family instances hold commas
        out.writerow(["theorem", "instance", "passed"])
        out.writerows([rep.theorem_id, rep.instance, rep.passed] for rep in failures)
    elif args.output == "jsonl":
        for rep in failures:
            print(rep.to_json_line())
    else:
        for line in lines:
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
    p.add_argument("--kind", required=True, choices=[k.value for k in FamilyKind])
    for name in ("n", "d", "t", "r", "a", "k"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--of", choices=[k.value for k in FamilyKind], help="inner kind for kcopies")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (jacobi.ConvergenceError, KeyError, ValueError) as err:  # every qdist input error is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
