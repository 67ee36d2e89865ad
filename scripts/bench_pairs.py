#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, written as one BENCH_*.json.

Usage:
    python scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_label.json

Each DIR is a git checkout of the repository: the parent commit and the
change, each with its own perfbench/ and src/. For every workload of the
change's BENCHMARK.json, the script runs `perfbench/run.py --seed SEED
--trace 0` for the benchmark's run_seconds in both checkouts, PAIRS times,
alternating which side runs first. For every end-to-end metric it records each side's
median and quartiles over its runs and how many pairs the change won (ties
count for neither side). It then times `qdist verify --theorem all
--exhaustive 7 --family-max 12` (wall, CPU and peak RSS of the process) in
PAIRS interleaved pairs as well, one traced run (`--trace 1`) of every
workload on each side for its per-layer counters, and one run of the
tier-1 test suite on each side (`python -m pytest -q
--continue-on-collection-errors`, with src on PYTHONPATH). The record also
names the machine and the two commits, and counts each side's source lines
as `wc -l` counts them: the program (src/qdist/*.py plus scripts/*.py) and
the tests (tests/*.py).

Every child runs in a process group of its own. Stopped with SIGTERM or
SIGINT, the script kills the group of the child it is waiting for, reaps
that child and exits with 128 plus the signal number, writing no record.
perfbench/run.py starts each of its own qdist children in a further
process group, so a qdist run that is already going is not in the killed
group: it finishes its one command by itself.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10  # the fewest interleaved pairs that can support a claimed gain
SEED = 1
VERIFY = ["verify", "--theorem", "all", "--exhaustive", "7", "--family-max", "12"]
SIDES = ("parent", "change")
RUNNING: list[subprocess.Popen] = []  # the child being waited for


def stop(signum: int, frame) -> None:
    """Kill the process group of the running child, reap it, and exit 128 + signum."""
    for proc in RUNNING:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # already reaped
            pass
        proc.wait()
    sys.exit(128 + signum)


def spawn(cmd: list[str], cwd: Path) -> dict:
    """Run cmd in cwd with cwd/src on PYTHONPATH; exit code, wall, CPU, peak RSS and stdout."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                            process_group=0)
    RUNNING.append(proc)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        RUNNING.remove(proc)
    proc.stdout.close()
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
        "stdout": out,
    }


def source_lines(root: Path) -> dict[str, int]:
    globs = {"program": ("src/qdist/*.py", "scripts/*.py"), "tests": ("tests/*.py",)}
    return {k: sum(p.read_bytes().count(b"\n") for glob in gs for p in root.glob(glob)) for k, gs in globs.items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def pairs_of(count: int, run_one) -> dict[str, list]:
    """count interleaved pairs of run_one(side), the first side alternating."""
    got: dict[str, list] = {side: [] for side in SIDES}
    for i in range(count):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            got[side].append(run_one(side))
    return got


def compare(got: dict[str, list[dict]], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m.get("better", "lower") == "lower"
        runs = {side: [r[name] for r in got[side]] for side in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
        out[name] = {"unit": m["unit"], "better": m.get("better", "lower"), "change_wins": wins,
                     **{side: summary(runs[side]) for side in SIDES}}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    commits = {side: subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=dirs[side], check=True,
                                    capture_output=True, text=True).stdout.strip() for side in SIDES}
    record: dict = {
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {importlib.metadata.version('numpy')}",
        "commits": commits, "source_lines": {side: source_lines(dirs[side]) for side in SIDES},
        "pairs": PAIRS, "seed": SEED, "run_seconds": bench["run_seconds"], "workloads": {},
    }

    def perfbench(side: str, name: str, trace: int) -> dict:
        cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        res = json.loads(spawn(cmd, dirs[side])["stdout"].strip().splitlines()[-1])
        print(f"{name} trace {trace} {side}: {json.dumps(res)}", file=sys.stderr, flush=True)
        return res

    for w in bench["workloads"]:
        def one(side: str, name=w["name"]) -> dict:
            res = perfbench(side, name, 0)
            return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                    **{k: v["value"] for k, v in res["metrics"].items()}}

        got = pairs_of(PAIRS, one)
        record["workloads"][w["name"]] = {
            "metrics": compare(got, bench["end_to_end"]),
            **{f"{side}_correct": all(r["correct"] for r in got[side]) for side in SIDES},
            **{f"{side}_failed": sum(r["failed"] for r in got[side]) for side in SIDES},
            **{f"{side}_attempted": sum(r["attempted"] for r in got[side]) for side in SIDES},
        }

    def verify(side: str) -> dict:
        res = spawn([sys.executable, "-m", "qdist.cli", *VERIFY], dirs[side])
        print(f"verify {side}: exit {res['returncode']}, {res['wall_s']:.2f} s", file=sys.stderr, flush=True)
        return res

    got = pairs_of(PAIRS, verify)
    record["verify_n7"] = {
        "command": "qdist " + " ".join(VERIFY),
        "exit": {side: [r["returncode"] for r in got[side]] for side in SIDES},
        "same_stdout": len({r["stdout"] for side in SIDES for r in got[side]}) == 1,
        "metrics": compare(got, [{"name": k, "unit": u} for k, u in
                                 (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))]),
    }

    record["traced"] = {}
    for w in bench["workloads"]:
        record["traced"][w["name"]] = {}
        for side in SIDES:
            res = perfbench(side, w["name"], 1)
            record["traced"][w["name"]][side] = {"correct": res["correct"], "failed": res["failed"],
                                                 **{k: v["value"] for k, v in res["metrics"].items()}}

    record["tier1"] = {}
    for side in SIDES:
        # the tier-1 gate of ROADMAP.md
        res = spawn([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"], dirs[side])
        record["tier1"][side] = {"exit": res["returncode"], "result": res["stdout"].strip().splitlines()[-1],
                                 **{k: res[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
