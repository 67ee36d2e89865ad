"""qdist benchmark: runs one workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the repository root; qdist is imported from ./src, nothing needs
installing. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

--trace 0 (end to end): each round runs the workload's qdist invocations as
separate processes, as a user would, and records their wall time, CPU time
(with pool workers) and peak resident set. wall_s and cpu_s sum, over the
invocations of a round, each one's median over rounds; peak_rss_mb is the
largest such median. Before its invocations each
round times SETUP_PER_ROUND fresh interpreters importing qdist.cli, and
setup_s is the median of all of those. --trace 1 (per layer): each round
runs the workload twice in child processes with jobs=1, untraced and then
traced (see inprocess.py), and reports per-layer metrics. Rounds repeat
while the next one still fits in --seconds; per-layer metrics are medians
over rounds. Raw records and spans go to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_PER_ROUND = 3
TIMEOUT_S = 150  # per child process; a run must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str]) -> dict:
    """Run cmd to completion from the repository root. Returns its exit code,
    wall time, CPU time and peak RSS (both including the descendants it
    waited for), stdout and stderr."""
    with tempfile.TemporaryFile(dir=RUNS) as out, tempfile.TemporaryFile(dir=RUNS) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err, process_group=0)
        timer = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {
            "returncode": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,  # KiB on Linux
            "stdout": out.read().decode(),
            "stderr": err.read().decode(),
        }


def qdist_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "qdist.cli", *argv]


def time_import() -> float:
    """Wall time of a fresh interpreter that imports qdist.cli and exits."""
    res = spawn([sys.executable, "-c", "import qdist.cli"])
    if res["returncode"] != 0:
        raise RuntimeError(f"importing qdist.cli failed:\n{res['stderr']}")
    return res["wall"]


def repeat_rounds(seconds: float, one_round) -> list[dict]:
    """Whole rounds, at least one, while the next is expected to end in time."""
    start = time.perf_counter()
    rounds: list[dict] = []
    while True:
        rounds.append(one_round(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def untraced_round(workload, seed: int) -> dict:
    setup = [time_import() for _ in range(SETUP_PER_ROUND)]
    outcomes, usage = [], []
    for argv in workload.operations(seed):
        res = spawn(qdist_command(argv))
        outcomes.append(Outcome(argv, res["returncode"], res["stdout"], res["stderr"]))
        usage.append({k: res[k] for k in ("wall", "cpu", "rss_mb")})
    check = workload.check(outcomes)
    return {
        "setup": setup,
        "usage": usage,  # per invocation, in operation order
        "attempted": check.attempted,
        "failed": check.failed,
        "errors": check.errors,
        "failed_output": [o.stderr[-2000:] for o in outcomes if o.returncode != 0],
    }


def inprocess_round(workload, seed: int, index: int, trace: int) -> dict:
    out = RUNS / f"{workload.name}-seed{seed}-round{index}-trace{trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "inprocess.py"), "--workload", workload.name, "--seed", str(seed),
           "--trace", str(trace), "--out", str(out)]
    res = spawn(cmd)
    if res["returncode"] != 0 or not out.exists():
        raise RuntimeError(f"{' '.join(cmd)} exited {res['returncode']}:\n{res['stderr'][-4000:]}")
    return json.loads(out.read_text())


def traced_pair(workload, seed: int, index: int) -> dict:
    plain = inprocess_round(workload, seed, index, 0)
    traced = inprocess_round(workload, seed, index, 1)
    traced["metrics"]["trace.overhead_s"] = traced["wall"] - plain["wall"]
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["errors"] += plain["errors"]
    return traced


def median_of(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def end_to_end(workload, seed: int, seconds: float) -> tuple[list[dict], dict]:
    time_import()  # compiles the bytecode, untimed
    rounds = repeat_rounds(seconds, lambda i: untraced_round(workload, seed))
    # A typical round: each invocation's median over rounds, summed (or the
    # largest, for memory), so that a stall in one invocation of one round
    # does not move the figure.
    per_op = [[r["usage"][i] for r in rounds] for i in range(len(rounds[0]["usage"]))]
    wall = sum(statistics.median(u["wall"] for u in op) for op in per_op)
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (sum(statistics.median(u["cpu"] for u in op) for op in per_op), "s"),
        "peak_rss_mb": (max(statistics.median(u["rss_mb"] for u in op) for op in per_op), "MB"),
        "setup_s": (statistics.median(t for r in rounds for t in r["setup"]), "s"),
        "checks_per_s": (workload.decided_checks() / wall, "1/s"),
    }
    return rounds, metrics


def per_layer(workload, seed: int, seconds: float) -> tuple[list[dict], dict]:
    import layers

    rounds = repeat_rounds(seconds, lambda i: traced_pair(workload, seed, i))
    metrics = {
        name: (median_of(rounds, lambda r: r["metrics"][name]), unit) for name, unit, _ in layers.PER_LAYER
    }
    return rounds, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qdist" / "cli.py").is_file():
        print(f"error: no qdist sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    rounds, metrics = measure(workload, args.seed, args.seconds)
    errors = [e for r in rounds for e in r["errors"]]
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "result": result, "rounds": rounds}, indent=1))
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
