"""One round of a workload in this process, through ``qdist.cli.main`` with
jobs=1, so that every call happens here and can be traced.

    python3 perfbench/inprocess.py --workload NAME --seed S --trace 0|1 --out FILE

With --trace 0 it only times the round; run.py subtracts that wall time
from the traced one to get the tracing overhead. With --trace 1 it wraps
qdist's layers (see layers.py), keeps the spans in memory, writes them to
FILE's .spans.json sibling when the round ends, derives the per-layer
metrics and cross-checks what the wrappers saw (see crosscheck.py).
FILE receives one JSON object: wall, attempted, failed, errors, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

from run import SRC
from workloads import WORKLOADS, Outcome


def run_operations(cli, operations: list[list[str]]) -> tuple[list[Outcome], float]:
    """Call qdist's command line once per operation; return outcomes and wall time."""
    outcomes = []
    t0 = time.perf_counter()
    for argv in operations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a fault in qdist fails this operation, not the round
                traceback.print_exc()
                code = 1
        outcomes.append(Outcome(argv, code, out.getvalue(), err.getvalue()))
    return outcomes, time.perf_counter() - t0


def traced_round(qdist, workload, operations: list[list[str]], seed: int, spans_path: Path) -> tuple[list[Outcome], float, dict, list[str]]:
    import crosscheck
    import layers
    from tracer import Tracer

    tracer = Tracer()
    records = layers.instrument(tracer, qdist)
    try:
        outcomes, wall = run_operations(qdist.cli, operations)
    finally:
        tracer.restore()
    tracer.dump(spans_path)
    metrics = layers.derive(tracer, records, wall, qdist.sweeps)
    errors = [f"could not wrap {name}" for name in records.missing]
    seen = {
        "sweep_results": len(records.sweep_results),
        "count_tables": sum(len(d.counts) for d in records.tables.values()),
        "graph_reports": len(records.graph_reports),
        "family_reports": len(records.family_reports),
    }
    errors += workload.traced_errors(seen)
    errors += crosscheck.check_sweep_tables(records.tables, seed)
    errors += crosscheck.check_graph_reports(records.graph_reports, seed)
    errors += crosscheck.check_family_reports(records.family_reports, seed)
    return outcomes, wall, metrics, errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import qdist.cli
    import qdist.exact
    import qdist.sweeps
    import qdist.verify

    workload = WORKLOADS[args.workload]
    operations = workload.operations(args.seed, jobs=1)
    metrics: dict = {}
    errors: list[str] = []
    if args.trace:
        spans_path = args.out.with_suffix(".spans.json")
        outcomes, wall, metrics, errors = traced_round(qdist, workload, operations, args.seed, spans_path)
    else:
        outcomes, wall = run_operations(qdist.cli, operations)
    check = workload.check(outcomes)
    result = {
        "wall": wall,
        "attempted": check.attempted,
        "failed": check.failed,
        "errors": check.errors + errors,
        "metrics": metrics,
        "failed_output": [o.stderr[-2000:] for o in outcomes if o.returncode != 0],
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
