"""The three workloads: the qdist invocations of one round, what a round is
expected to print, and the checks of that output against counts worked out
apart from the program.

An operation is one qdist invocation or one sweep or grid line it prints.
Every round of a workload attempts the same operations, so the share of
failed operations does not depend on the seed or on the run length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

import oracles

GRAPH_STATEMENTS = (
    "edge-interlacing",
    "vertex-deletion",
    "matching-upper",
    "delta2",
    "domination-bound",
    "m02-bound",
    "alpha-sandwich",
    "longest-path",
    "diameter-main",
    "diameter-3",
    "tail-eigenvalue-bound",
)
FAMILY_STATEMENTS = (
    "cycle-matching",
    "family-counts",
    "family-gndra-q5",
    "diameter-3-equality",
    "gndt-laplacian-count",
)
# `qdist verify` runs every family grid from this order up to --family-max.
FAMILY_MIN_ORDER = 7

SWEEP_LINE = re.compile(
    r"^(?P<tid>[a-z0-9-]+) n=(?P<n>\d+): (?P<applicable>\d+)/(?P<total>\d+) applicable, "
    r"(?P<escalated>\d+) escalated, (?P<failures>\d+) failures$"
)
GRID_LINE = re.compile(
    r"^(?P<tid>[a-z0-9-]+) grid n<=(?P<max>\d+): (?P<instances>\d+) instances, (?P<failures>\d+) failures$"
)


@dataclass
class Outcome:
    """One finished qdist invocation."""

    argv: list[str]
    returncode: int
    stdout: str
    stderr: str


@dataclass
class RoundCheck:
    """Operations attempted and failed in a round, and every output that
    disagrees with the benchmark's own counts."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, other: "RoundCheck") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)


# -- expected counts ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _enumerated_counts(n: int) -> dict[str, int]:
    """Hypothesis counts for which the benchmark has no closed formula, by
    walking every labeled graph on n vertices."""
    delta2 = tail = diam3 = 0
    for mask in range(oracles.labeled_graphs(n)):
        adj = oracles.adjacency_from_mask(n, mask)
        degs = oracles.degrees(n, adj)
        delta = min(degs)
        conn = oracles.is_connected(n, adj)
        if delta >= 2 and not oracles.every_component_c5(n, adj):
            delta2 += 1
        if conn and delta + 2 <= n - 1:
            tail += 1
        if n >= 7 and conn and oracles.diameter(n, adj) == 3:
            diam3 += 1
    return {"delta2": delta2, "tail-eigenvalue-bound": tail, "diameter-3": diam3}


def expected_applicable(theorem_id: str, n: int) -> int:
    """Labeled n-vertex graphs that meet the statement's hypothesis."""
    total = oracles.labeled_graphs(n)
    if theorem_id == "edge-interlacing":  # every graph with an edge
        return total - 1
    if theorem_id == "vertex-deletion":  # G - v needs n >= 2
        return total if n >= 2 else 0
    if theorem_id == "alpha-sandwich":
        return total
    if theorem_id in ("matching-upper", "domination-bound", "m02-bound"):
        return oracles.without_isolated(n)
    if theorem_id in ("longest-path", "diameter-main"):
        return oracles.connected(n)
    return _enumerated_counts(n)[theorem_id]


def expected_grid_instances(theorem_id: str, family_max: int) -> int:
    return sum(oracles.family_instances(theorem_id, n) for n in range(FAMILY_MIN_ORDER, family_max + 1))


# -- output checks -----------------------------------------------------------------


def check_invocation(out: Outcome) -> RoundCheck:
    """An invocation fails when it exits with another status than 0."""
    return RoundCheck(attempted=1, failed=int(out.returncode != 0))


def check_verify_lines(
    text: str, sweeps: dict[tuple[str, int], int], grids: dict[str, tuple[int, int]]
) -> RoundCheck:
    """Check `qdist verify` text output line by line.

    sweeps maps (statement, n) to the expected applicable count; grids maps a
    family statement to (--family-max, expected instances). A line that
    reports failures, or an expected line that is missing, is a failed
    operation. A total, applicable or instance count that differs from the
    expected one, an unexpected line, or FAIL lines that do not add up to the
    reported failures, is an error.
    """
    check = RoundCheck(attempted=len(sweeps) + len(grids))
    seen_sweeps: set[tuple[str, int]] = set()
    seen_grids: set[str] = set()
    reported_failures = 0
    fail_lines = 0
    for line in text.splitlines():
        if line.startswith("FAIL "):
            fail_lines += 1
            continue
        m = SWEEP_LINE.match(line)
        if m:
            key = (m["tid"], int(m["n"]))
            if key not in sweeps or key in seen_sweeps:
                check.errors.append(f"unexpected sweep line: {line}")
                continue
            seen_sweeps.add(key)
            n = key[1]
            if int(m["total"]) != oracles.labeled_graphs(n):
                check.errors.append(f"{line}: total should be {oracles.labeled_graphs(n)}")
            if int(m["applicable"]) != sweeps[key]:
                check.errors.append(f"{line}: applicable should be {sweeps[key]}")
            failures = int(m["failures"])
        else:
            m = GRID_LINE.match(line)
            if not m or m["tid"] not in grids or m["tid"] in seen_grids:
                check.errors.append(f"unexpected line: {line}")
                continue
            seen_grids.add(m["tid"])
            family_max, instances = grids[m["tid"]]
            if int(m["max"]) != family_max or int(m["instances"]) != instances:
                check.errors.append(f"{line}: expected n<={family_max} with {instances} instances")
            failures = int(m["failures"])
        reported_failures += failures
        check.failed += failures > 0
    check.failed += len(sweeps) - len(seen_sweeps) + len(grids) - len(seen_grids)
    if fail_lines != reported_failures:
        check.errors.append(f"{fail_lines} FAIL lines for {reported_failures} reported failures")
    return check


def coverage_errors(seen: dict[str, int], expected: dict[str, int]) -> list[str]:
    """A traced run must record as many results of each kind as the workload
    fixes; otherwise a wrapper missed its target and the cross-checks saw
    nothing."""
    return [f"traced run recorded {seen[k]} {k}, expected {v}" for k, v in expected.items() if seen[k] != v]


def check_search_output(out: Outcome) -> RoundCheck:
    """`qdist search` prints one JSON line per counterexample and '# k failures'
    last on stderr; a clean search prints nothing on stdout."""
    check = check_invocation(out)
    lines = [ln for ln in out.stdout.splitlines() if ln.strip()]
    last = (out.stderr.strip().splitlines() or [""])[-1]
    if out.returncode == 0 and (lines or last != "# 0 failures"):
        check.errors.append(f"{' '.join(out.argv)}: exit 0 but reports {last!r} and {len(lines)} lines")
    return check


# -- workloads ------------------------------------------------------------------------


class Exhaustive:
    """Every per-graph statement on every labeled graph with n <= n_max, plus
    all family grids up to family_max, in one `qdist verify` invocation."""

    name = "exhaustive-n6"
    JOBS = 2  # one pool worker per core of the reference machine

    def __init__(self, n_max: int = 6, family_max: int = 12):
        self.n_max = n_max
        self.family_max = family_max

    def operations(self, seed: int, jobs: int | None = None) -> list[list[str]]:
        return [[
            "verify", "--theorem", "all", "--exhaustive", str(self.n_max),
            "--family-max", str(self.family_max), "--jobs", str(jobs or self.JOBS),
        ]]

    def expected_sweeps(self) -> dict[tuple[str, int], int]:
        return {
            (tid, n): expected_applicable(tid, n)
            for tid in GRAPH_STATEMENTS
            for n in range(1, self.n_max + 1)
        }

    def expected_grids(self) -> dict[str, tuple[int, int]]:
        return {tid: (self.family_max, expected_grid_instances(tid, self.family_max)) for tid in FAMILY_STATEMENTS}

    def decided_checks(self) -> int:
        """(graph, statement) pairs one round decides."""
        graphs = sum(oracles.labeled_graphs(n) for n in range(1, self.n_max + 1))
        return len(GRAPH_STATEMENTS) * graphs + sum(i for _, i in self.expected_grids().values())

    def check(self, outcomes: list[Outcome]) -> RoundCheck:
        (out,) = outcomes
        check = check_invocation(out)
        check.add(check_verify_lines(out.stdout, self.expected_sweeps(), self.expected_grids()))
        return check

    def traced_errors(self, seen: dict[str, int]) -> list[str]:
        grid_instances = sum(i for _, i in self.expected_grids().values())
        errors = coverage_errors(seen, {"sweep_results": len(self.expected_sweeps()), "family_reports": grid_instances})
        return errors + ([] if seen["count_tables"] else ["traced run recorded no count_tables"])


class Sampled:
    """One `qdist search` per per-graph statement on random G(n, 1/2) graphs,
    `budget` of them per order, all drawn from the run's seed, so that every
    round of a run checks the same graphs."""

    name = "sampled"

    def __init__(self, n_min: int = 8, n_max: int = 10, budget: int = 6):
        self.n_min = n_min
        self.n_max = n_max
        self.budget = budget

    def operations(self, seed: int, jobs: int | None = None) -> list[list[str]]:
        return [
            ["search", "--theorem", tid, "--n-min", str(self.n_min), "--n-max", str(self.n_max),
             "--budget", str(self.budget), "--seed", str(seed)]
            for tid in GRAPH_STATEMENTS
        ]

    def decided_checks(self) -> int:
        return len(GRAPH_STATEMENTS) * (self.n_max - self.n_min + 1) * self.budget

    def check(self, outcomes: list[Outcome]) -> RoundCheck:
        check = RoundCheck()
        for out in outcomes:
            check.add(check_search_output(out))
        return check

    def traced_errors(self, seen: dict[str, int]) -> list[str]:
        return coverage_errors(seen, {"graph_reports": self.decided_checks()})


class Families:
    """One `qdist verify --family-max N` per family statement: exact counts
    of a few large matrices, no floats."""

    name = "families"

    def __init__(self, family_max: int = 22):
        self.family_max = family_max

    def operations(self, seed: int, jobs: int | None = None) -> list[list[str]]:
        return [["verify", "--theorem", tid, "--family-max", str(self.family_max)] for tid in FAMILY_STATEMENTS]

    def decided_checks(self) -> int:
        return sum(expected_grid_instances(tid, self.family_max) for tid in FAMILY_STATEMENTS)

    def check(self, outcomes: list[Outcome]) -> RoundCheck:
        check = RoundCheck()
        for tid, out in zip(FAMILY_STATEMENTS, outcomes):
            check.add(check_invocation(out))
            grid = {tid: (self.family_max, expected_grid_instances(tid, self.family_max))}
            check.add(check_verify_lines(out.stdout, {}, grid))
        return check

    def traced_errors(self, seen: dict[str, int]) -> list[str]:
        return coverage_errors(seen, {"family_reports": self.decided_checks()})


WORKLOADS = {w.name: w for w in (Exhaustive(), Sampled(), Families())}
