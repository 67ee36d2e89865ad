#!/usr/bin/env python3
"""Full verification campaign: the steps of ``qdist verify --theorem all``
(every per-graph sweep for n <= LIMIT, then every family grid), each timed,
with JSONL and CSV reports.

Usage:
    python scripts/run_verification.py [--exhaustive 7] [--family-max 12] [--out report]

Writes <out>.jsonl (one report line per failure; empty file means clean) and
<out>.csv (per step: theorem, the summary line qdist verify prints, failure
count, seconds, and peak_rss_mb: the process's peak resident set size in MiB
once the step is done, so the step that sets the peak is the first row with
the final value). Exit code 1 if any failure was found.
"""

from __future__ import annotations

import argparse
import csv
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qdist import cli  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--exhaustive", type=int, default=7)
    ap.add_argument("--family-max", type=int, default=12)
    ap.add_argument("--out", default="verification_report")
    args = ap.parse_args()
    steps = cli.verify_steps("all", args.exhaustive, args.family_max)
    print(f"# run_verification --exhaustive {args.exhaustive} --family-max {args.family_max}")

    rows = []
    failures = []
    t0 = time.perf_counter()
    for tid, line, bad in steps:
        dt = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        rows.append(dict(theorem=tid, summary=line, failures=len(bad), seconds=round(dt, 2),
                         peak_rss_mb=round(rss_mb, 1)))
        failures.extend(bad)
        print(f"  {line} ({dt:.1f}s)")
        t0 = time.perf_counter()

    with open(f"{args.out}.jsonl", "w") as fh:
        for rep in failures:
            fh.write(rep.to_json_line() + "\n")
    with open(f"{args.out}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["theorem", "summary", "failures", "seconds", "peak_rss_mb"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"# total failures: {len(failures)}; reports in {args.out}.jsonl / {args.out}.csv")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
