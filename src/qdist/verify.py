"""The theorem catalog: every per-graph statement written once, as a
predicate over a table of graphs; the point checkers, the family checkers,
seeded sampling (labeled edge masks decoded by jacobi.mask_adjacency), and
the one run driver of qdist verify, qdist search and the campaign script
(_steps). The nine count statements are data, COUNT_STATEMENTS:
tuples of Clauses read by one evaluator (CountStatement.__call__), whose
Verdict.slack is the integer margin of a count clause.

Both graph tables share one shell, AdjacencyTable: a bool adjacency
stack, its degrees, its G-e and G-v edits and its certified floating
spectra (jacobi.matrix_stack into jacobi_batch, ROWS graphs per solve). A
point checker is GRAPH_THEOREMS[tid].check: its statement's predicate on
the one-row GraphTable of one graph's stack, whose other columns come
from the per-graph kernels over Graphs that jacobi.graphs_of builds back
from the stack. The exhaustive sweeps evaluate the same predicates on the
sweeps.SweepTable of the class representatives (stacked kernels) and hand
every labeled member of a class that does not pass to the point checkers,
so a reported failure always rests on the per-graph kernels. Interval
counts are exact or certified, never rounded floats: integer
characteristic polynomials in the sweeps; in GraphTable, the point
checkers' table, the certified spectra wherever every eigenvalue clears
the threshold by its certified bound, with congruence inertia for every
other row that is needed; and in the family grids, exact twin eigenvalues
plus the certified spectra of the equitable quotient, with inertia of its
integer form where they do not clear. The two interlacing chains also
compare floating eigenvalues, with jacobi.INEQ_SLACK (1e-8), their float
tolerance and nothing else's.
Hypothesis failures report "not applicable" rather than "pass" so pass
counts measure real coverage.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import ceil, inf
from typing import Callable, Iterator

import numpy as np

from . import exact
from .graph6 import graph6_encode
from .graphs import FAMILIES, Graph, GraphError, bfs_distances, is_connected
# unused here, but kept bound: the benchmark's tracer (perfbench/layers.py) wraps verify.gndt, gndra and cycle_graph
from .graphs import cycle_graph, gndra, gndt  # noqa: F401
from .invariants import (
    diameter,
    domination_number,
    independence_number,
    longest_path_length,
    matching_number,
)
from .jacobi import INEQ_SLACK, adjacency, certified_below, edge_pairs, graphs_of, jacobi_batch, mask_adjacency, matrix_stack
# unused here, but kept bound: the benchmark's tracer (perfbench/layers.py) wraps verify.eigenvalues_sym
from .jacobi import eigenvalues_sym  # noqa: F401


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one checker on one instance.

    A failed report carries a witness complete enough to recheck by hand.
    """

    theorem_id: str
    instance: str
    passed: bool
    applicable: bool = True
    witness: dict = field(default_factory=dict)

    failed = property(lambda self: self.applicable and not self.passed)  # applies and does not hold

    def to_json_line(self) -> str:
        obj = {
            "theorem": self.theorem_id,
            "instance": self.instance,
            "passed": self.passed,
            "applicable": self.applicable,
            "witness": self.witness,
        }
        return json.dumps(obj, sort_keys=True)


# -- sampling --------------------------------------------------------------------


EXHAUSTIVE_LIMIT = 7
SAMPLE_LIMIT = 16
FAMILY_LIMIT = 32  # largest order of a family grid
ROWS = 256  # graphs per float solve of a table (one chunk's Q(G) or L(G) stack at a time) and per mask decode


def sample_graphs(n: int, count: int, seed: int) -> Iterator[Graph]:
    """Uniform edge-probability 1/2 samples, deterministic under the seed:
    one labeled edge mask per draw, decoded ROWS draws at a time."""
    if not EXHAUSTIVE_LIMIT < n <= SAMPLE_LIMIT:
        raise GraphError(f"sampling is for {EXHAUSTIVE_LIMIT + 1} <= n <= {SAMPLE_LIMIT}, got {n}")
    rng = random.Random(seed)
    nbits = n * (n - 1) // 2
    for lo in range(0, count, ROWS):
        yield from graphs_of(mask_adjacency(n, [rng.getrandbits(nbits) for _ in range(min(ROWS, count - lo))]))


def is_k_c5(g: Graph) -> bool:
    """True iff every component is a 5-cycle: all degrees 2 (so every
    component is a cycle), and every vertex reaches exactly four others."""
    if g.n == 0 or g.n % 5 or any(row.bit_count() != 2 for row in g.adj):
        return False
    return all(bfs_distances(g, v).count(inf) == g.n - 5 for v in range(g.n))


# -- statements as predicates over a graph table ----------------------------------
#
# Each per-graph statement is written once, as a predicate over a table of
# graphs of one order n on the AdjacencyTable shell below: GraphTable (the
# per-graph kernels; a point checker is the predicate on a one-row table) or
# sweeps.SweepTable (stacked kernels, the sweeps' table), each with
# G-e and G-v tables of its own kind. A table has n, count, adj and
#   mindeg, maxdeg, conn (False at n = 0), diam and ell (diameter and longest
#   path, where conn), nu, alpha, gamma, kc5: (count,) columns;
#   vals: (count, n) spectra, nonincreasing rows, with bound: (count,);
#   lt(t, where), le(t, where): exact counts below / at most the integer
#   threshold t, a scalar or a (count,) column; rows outside where are not
#   needed and their values are unspecified;
#   without_edges(): (rows, edges, table), where the table holds every
#   graph minus each of its edges, one row per (row, edge present) pair,
#   ordered by row and then by edge bit k of jacobi.edge_pairs(n), and rows and
#   edges hold that row and k; without_vertices(): the table of order n-1
#   whose row i*n + v is graph i minus vertex v.
# A count statement's Verdict.slack is the integer margin of a count clause
# (bound - count or count - bound), least over the clauses that apply, and
# passed = ~applicable | (slack >= 0); jacobi.INEQ_SLACK is the float
# tolerance of the two interlacing chains, whose Verdicts have no slack.


@dataclass
class Verdict:
    """A predicate's result over the rows of a table. Rows where the
    statement does not apply count as passed, with the note as witness."""

    applicable: np.ndarray  # (count,) bool
    passed: np.ndarray  # (count,) bool
    note: str | Callable[[int], str]  # why row i does not apply
    witness: Callable[[int], dict]  # witness of an applicable row i
    slack: np.ndarray | None = None  # (count,) int64 of a count statement, defined where applicable

    @classmethod
    def columns(cls, applicable, holds, note, **cols) -> "Verdict":
        """The witness of row i holds every column (or scalar) of cols at row i."""

        def witness(i: int) -> dict:
            return {k: c[i] if isinstance(c, np.ndarray) else c for k, c in cols.items()}

        return cls(applicable, ~applicable | holds, note, witness)

    @classmethod
    def first_failures(cls, applicable, rows, fail, note, witness, passing) -> "Verdict":
        """fail is a (len(rows), m) bool array: line j holds the checks, in
        checking order, of a sub-row of table row rows[j], and the sub-rows of
        a row are consecutive, in checking order. A row fails where one of its
        sub-rows does; its witness is witness(j, position) at the first
        failing check of its first failing sub-row j. passing(i) is the
        witness of a passing row i."""
        bad = np.flatnonzero(fail.any(axis=1))
        _, first = np.unique(rows[bad], return_index=True)
        found = {int(rows[j]): witness(int(j), int(fail[j].argmax())) for j in bad[first]}
        passed = np.ones(applicable.shape, dtype=bool)
        passed[rows[bad]] = False
        return cls(applicable, passed, note, lambda i: found.get(i) or passing(i))


def edge_interlacing(tab) -> Verdict:
    """Eigenvalues of G and G-e interlace: q_i(G) >= q_i(G-e) >= q_{i+1}(G),
    for every edge e.

    Checks the floating chain with 1e-8 slack and, exactly, that the count
    below every integer threshold moves by at most one when the edge goes.
    """
    n = tab.n
    rows, edges, sub = tab.without_edges()
    checked = np.bincount(rows, minlength=tab.count)
    if not rows.size:
        return Verdict.columns(checked > 0, True, "no edges")
    # Q and L are positive semidefinite, so nothing lies below 0 and the
    # thresholds start at 1
    thresholds = range(1, 2 * n - 1)
    A, B = tab.vals[rows], sub.vals
    cg = {t: tab.lt(t)[rows] for t in thresholds}
    ch = {t: sub.lt(t) for t in thresholds}
    # failures in checking order: the chain at i = 1..n (the upper link
    # before the lower), then the counts at every threshold
    fail = np.empty((rows.size, 4 * n - 3), dtype=bool)
    fail[:, 0 : 2 * n : 2] = ~(A >= B - INEQ_SLACK)
    fail[:, 1 : 2 * n - 1 : 2] = ~(B[:, : n - 1] >= A[:, 1:] - INEQ_SLACK)
    for t in thresholds:
        fail[:, 2 * n - 2 + t] = np.abs(ch[t] - cg[t]) > 1
    u, v = edge_pairs(n)

    def witness(j: int, pos: int) -> dict:
        edge, (i, lower) = [int(u[edges[j]]), int(v[edges[j]])], divmod(pos, 2)
        if pos >= 2 * n - 1:
            t = pos - (2 * n - 2)
            return {"edge": edge, "threshold": t, "count_G": cg[t][j], "count_Ge": ch[t][j]}
        if not lower:
            return {"edge": edge, "i": i + 1, "qi_G": A[j, i], "qi_Ge": B[j, i]}
        return {"edge": edge, "i": i + 1, "qi_Ge": B[j, i], "qnext_G": A[j, i + 1]}

    return Verdict.first_failures(checked > 0, rows, fail, "no edges", witness, lambda i: {"edges_checked": checked[i]})


def vertex_deletion(tab) -> Verdict:
    """q_{i+1}(G) <= q_i(G-v) + 1 for i = 1..n-1 and every vertex v,
    floating with 1e-8 slack."""
    n = tab.n
    if n < 2:
        return Verdict.columns(np.zeros(tab.count, dtype=bool), True, "n < 2")
    rows = np.repeat(np.arange(tab.count), n)
    A, B = tab.vals[rows], tab.without_vertices().vals
    fail = ~(A[:, 1:] <= B[:, : n - 1] + 1 + INEQ_SLACK)

    def witness(j: int, pos: int) -> dict:
        return {"vertex": j % n, "i": pos + 1, "q_next_G": A[j, pos + 1], "q_i_Gv": B[j, pos]}

    return Verdict.first_failures(np.ones(tab.count, dtype=bool), rows, fail, "n < 2", witness, lambda i: {})


def _delta2_hypothesis(tab) -> np.ndarray:
    """Minimum degree at least two and not every component a 5-cycle."""
    return (tab.mindeg >= 2) & ~tab.kc5


@dataclass(frozen=True)
class Clause:
    """Where hypothesis holds, the number of eigenvalues below (kind "lt"), at
    most ("le"), at least ("ge", n - lt) or above ("gt", n - le) the
    threshold is at most (side "<=") or at least (">=") the bound. Each is an
    int, a table column's name or tab -> column. Witness keys: name (the
    count), then "required" (the bound), "equality" (margin 0) or a column
    (WITNESS_COLUMNS, else by name). A guarded clause is read only where the
    earlier clauses hold."""

    hypothesis: str | Callable[[object], np.ndarray]
    kind: str
    threshold: int | str | Callable
    side: str
    bound: int | str | Callable
    name: str
    witness: tuple[str, ...] = ()
    guarded: bool = False


WITNESS_COLUMNS = {"d": "diam", "delta": "mindeg", "strengthened": _delta2_hypothesis}


@dataclass(frozen=True)
class CountStatement:
    """Clauses, and why a row does not apply (a string, or note(tab, i)).
    Called on a table, it is the statement's predicate: each count is read
    only where its clause applies; slack is the least margin over those."""

    description: str
    note: str | Callable[[object, int], str]
    clauses: tuple[Clause, ...]

    def __call__(self, tab) -> Verdict:
        value = lambda x: getattr(tab, x) if isinstance(x, str) else x(tab) if callable(x) else x  # noqa: E731
        applicable, held = np.zeros(tab.count, dtype=bool), np.ones(tab.count, dtype=bool)
        slack, parts = np.full(tab.count, np.iinfo(np.int64).max), []  # no clause applies: no margin
        for c in self.clauses:
            where = value(c.hypothesis) & held if c.guarded else value(c.hypothesis)
            count = (tab.lt if c.kind in ("lt", "ge") else tab.le)(value(c.threshold), where)
            count, bound = (tab.n - count if c.kind in ("ge", "gt") else count), value(c.bound)
            margin = np.asarray(bound - count if c.side == "<=" else count - bound, dtype=np.int64)
            slack = np.where(where, np.minimum(slack, margin), slack)
            applicable, held = applicable | where, held & (~where | (margin >= 0))
            named = {c.name: count, "required": bound, "equality": margin == 0}
            cols = {k: named[k] if k in named else value(WITNESS_COLUMNS.get(k, k)) for k in (c.name, *c.witness)}
            parts.append((where, cols))

        def witness(i: int) -> dict:
            return {k: v[i] if isinstance(v, np.ndarray) else v for on, cols in parts if on[i] for k, v in cols.items()}

        note = self.note if isinstance(self.note, str) else partial(self.note, tab)
        return Verdict(applicable, ~applicable | (slack >= 0), note, witness, slack)


COUNT_STATEMENTS: dict[str, CountStatement] = {  # the paper's nine, in catalog order
    "matching-upper": CountStatement("count below 1 bounded by matching number", "isolated vertex", (
        Clause(lambda tab: tab.mindeg >= 1, "lt", 1, "<=", lambda tab: tab.nu - _delta2_hypothesis(tab), "m01",
               ("nu", "strengthened")),)),
    "delta2": CountStatement("min degree 2, no 5-cycle components: count below 1 <= nu-1", "hypothesis fails", (
        Clause(_delta2_hypothesis, "lt", 1, "<=", lambda tab: tab.nu - 1, "m01", ("nu",)),)),
    "domination-bound": CountStatement("count below 1 bounded by domination number", "isolated vertex", (
        Clause(lambda tab: tab.mindeg >= 1, "lt", 1, "<=", "gamma", "m01", ("gamma",)),)),
    "m02-bound": CountStatement("count below 2 bounded by n - nu", "isolated vertex", (
        Clause(lambda tab: tab.mindeg >= 1, "lt", 2, "<=", lambda tab: tab.n - tab.nu, "m02", ("nu", "n")),)),
    "alpha-sandwich": CountStatement("independence number under both interval counts", "empty", (
        Clause(lambda tab: np.full(tab.count, tab.n >= 1), "ge", "mindeg", ">=", "alpha", "m_delta_up", ("alpha",)),
        Clause(lambda tab: np.full(tab.count, tab.n >= 1), "le", "maxdeg", ">=", "alpha", "m_0_Delta", ("alpha",)))),
    "longest-path": CountStatement("count above 2 at least half the longest path", "disconnected", (
        Clause("conn", "gt", 2, ">=", lambda tab: tab.ell // 2, "m_2_up", ("ell",)),)),
    "diameter-main": CountStatement("diameter lower-bounds interval counts", "disconnected", (
        Clause("conn", "lt", lambda tab: tab.n - 2, ">=", lambda tab: tab.diam - 1, "m_below_n-2", ("d",)),
        Clause(lambda tab: tab.conn & (tab.diam >= 3) & (tab.diam <= tab.n - 3), "lt", lambda tab: tab.n - tab.diam + 1,
               ">=", lambda tab: np.where(tab.diam <= tab.n - 5, tab.diam, tab.diam - 1), "m_below_n-d+1",
               ("required",), guarded=True))),
    "diameter-3": CountStatement("diameter 3: at least 2 eigenvalues below n-3", "hypothesis fails", (
        Clause(lambda tab: tab.conn & (tab.n >= 7) & (tab.diam == 3), "lt", lambda tab: tab.n - 3, ">=", 2,
               "m_below_n-3", ("equality",)),)),
    "tail-eigenvalue-bound": CountStatement(
        "q_i <= n-3 for i >= delta+2", lambda tab, i: "index range empty" if tab.conn[i] else "disconnected", (
            Clause(lambda tab: tab.conn & (tab.mindeg + 2 <= tab.n - 1), "gt", lambda tab: tab.n - 3, "<=",
                   lambda tab: tab.mindeg + 1, "count_above_n-3", ("delta",)),)),
}


class AdjacencyTable:
    """The shell of both graph tables: graphs of order n as a (count, n, n)
    bool stack adj, its degrees, and the certified spectra of Q(G) (or L(G),
    as matrix says), solved over every ROWS graphs in turn, so no table
    holds a whole float stack. The G-e and G-v stacks of the contract become
    tables of the subclass's own kind through its _sub(n, adj)."""

    def __init__(self, n: int, adj: np.ndarray, matrix: str = "Q"):
        self.n, self.adj, self.count, self.matrix = n, adj, len(adj), matrix

    degs = cached_property(lambda self: self.adj.sum(axis=2, dtype=np.min_scalar_type(self.n)))
    mindeg = cached_property(lambda self: self.degs.min(axis=1, initial=self.n).astype(np.int16))
    maxdeg = cached_property(lambda self: self.degs.max(axis=1, initial=0).astype(np.int16))
    spectra = cached_property(lambda self: self._spectra(jacobi_batch))
    vals = property(lambda self: self.spectra[0])  # (count, n) float64, nonincreasing rows
    bound = property(lambda self: self.spectra[1])  # (count,) float64, certified bound on every error of the row

    def _spectra(self, solve: Callable) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(np.concatenate, zip(*self._per_chunk(solve))))

    def _per_chunk(self, kernel: Callable) -> list:
        """kernel of the float stack of every ROWS graphs, in order (one
        empty chunk for an empty table); each stack is dropped after its call."""
        return [kernel(matrix_stack(self.adj[lo : lo + ROWS], self.matrix)) for lo in range(0, max(self.count, 1), ROWS)]

    def without_edges(self) -> tuple[np.ndarray, np.ndarray, "AdjacencyTable"]:
        u, v = edge_pairs(self.n)
        rows, edges = np.nonzero(self.adj[:, u, v])
        sub, j = self.adj[rows], np.arange(rows.size)
        sub[j, u[edges], v[edges]] = sub[j, v[edges], u[edges]] = False
        return rows, edges, self._sub(self.n, sub)

    def without_vertices(self) -> "AdjacencyTable":
        n = self.n
        rest = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)  # row v: every vertex but v
        sub = self.adj[:, rest[:, :, None], rest[:, None, :]]
        return self._sub(n - 1, sub.reshape(self.count * n, n - 1, n - 1))


class GraphTable(AdjacencyTable):
    """The statements' table of the point checkers, over an adjacency stack
    of any order. A count comes from the certified
    spectra of Q(G) (or of L(G) with matrix "L") wherever every eigenvalue
    of a row clears the threshold (jacobi.certified_below); exact
    congruence inertia of the same matrix counts the rows of where that do
    not clear. Inertia and the columns other than the degrees (per-graph
    kernels of the invariants module, looked up here at call time) read
    the column graphs, which jacobi.graphs_of builds from adj on first use."""

    graphs = cached_property(lambda self: graphs_of(self.adj))

    def _column(self, f: Callable[[Graph], int], where: np.ndarray | None = None) -> np.ndarray:
        on = [True] * self.count if where is None else where.tolist()
        return np.array([f(g) if w else 0 for g, w in zip(self.graphs, on)], dtype=np.int64)

    conn = cached_property(lambda self: self._column(lambda g: g.n > 0 and is_connected(g)).astype(bool))
    diam = cached_property(lambda self: self._column(diameter, self.conn))
    ell = cached_property(lambda self: self._column(longest_path_length, self.conn))
    nu = cached_property(lambda self: self._column(matching_number))
    alpha = cached_property(lambda self: self._column(independence_number))
    gamma = cached_property(lambda self: self._column(domination_number))
    kc5 = cached_property(lambda self: self._column(is_k_c5).astype(bool))

    def _count(self, kernel: Callable, t, where: np.ndarray | None) -> np.ndarray:
        below, clear = certified_below(*self.spectra, t)
        todo = np.flatnonzero(~clear if where is None else where & ~clear)
        if todo.size:
            ts = np.broadcast_to(t, (self.count,)).tolist()
            for i in todo.tolist():
                below[i] = kernel(self.graphs[i], ts[i], self.matrix)
        return below

    def lt(self, t, where: np.ndarray | None = None) -> np.ndarray:
        return self._count(exact.graph_count_lt, t, where)

    def le(self, t, where: np.ndarray | None = None) -> np.ndarray:
        return self._count(exact.graph_count_le, t, where)

    def _sub(self, n: int, adj: np.ndarray) -> "GraphTable":
        return GraphTable(n, adj, self.matrix)


def evaluate(theorem_id: str, predicate: Callable[[object], Verdict], g: Graph) -> TheoremReport:
    """The predicate on the one-row table of g, as a report."""
    verdict = predicate(GraphTable(g.n, adjacency(g.n, [g])))
    applicable = bool(verdict.applicable[0])
    if applicable:
        witness = {k: v.item() if isinstance(v, np.generic) else v for k, v in verdict.witness(0).items()}
    else:
        witness = {"note": verdict.note if isinstance(verdict.note, str) else verdict.note(0)}
    return TheoremReport(theorem_id, graph6_encode(g), bool(verdict.passed[0]), applicable, witness)


# -- family checkers ---------------------------------------------------------------
#
# A family statement has one instance per parameter tuple, and one checker
# that takes the tuple as its positional arguments; its FAMILY_STATEMENTS
# row maps a tuple to its member (also the report's instance), threshold
# and matrices. iter_family_reports counts every tuple of one order at a
# time with quotients.family_counts (exact twin eigenvalues plus the
# certified equitable quotient; no member graph is built) and hands each
# checker call its own counts; a checker called without them counts only
# its own instance. quotients is imported only here, so a run without a
# family grid never loads it.


FAMILY_MIN = 7  # smallest order of a verify family grid


@dataclass(frozen=True)
class FamilyStatement:
    """The checker's name; grid(n), the checker tuples of order n in grid
    order; of a tuple p, member(*p) as (kind, graphs.FAMILIES parameters)
    and threshold(*p); the matrices counted; whether the diameter is read."""

    checker: str
    grid: Callable[[int], list[tuple[int, ...]]]
    member: Callable[..., tuple[str, tuple[int, ...]]]
    threshold: Callable[..., int]
    matrices: tuple[str, ...] = ("Q",)
    diameter: bool = False


FAMILY_STATEMENTS: dict[str, FamilyStatement] = {  # the paper's five, in catalog order
    "cycle-matching": FamilyStatement(
        "check_cycle_matching", lambda n: [(n,)] if n >= 3 else [], lambda n: ("cycle", (n,)), lambda n: 1),
    "family-counts": FamilyStatement(
        "check_family_counts",
        lambda n: [(n, d, t) for d in range(2, n - 2) for t in range(2, d + 1)]
        + [(n, d, t, a) for d in range(3, n - 2) for t in range(2, d) for a in range(1, n - d - 1)],
        lambda n, d, t, *a: ("gndra" if a else "gndt", (n, d, t, *a)), lambda n, d, *_: n - d + 1),
    "family-gndra-q5": FamilyStatement(
        "check_gndra_q5", lambda n: [(n, t) for t in range(2, n - 3)], lambda n, t: ("gndra", (n, n - 3, t, 1)),
        lambda n, t: 4),
    "diameter-3-equality": FamilyStatement(
        "check_diameter3_equality", lambda n: [(n,)] + [(n, a) for a in range(1, n - 4)] if n >= 7 else [],
        lambda n, *a: ("gndra" if a else "gndt", (n, 3, 2, *a)), lambda n, *_: n - 3, diameter=True),
    "gndt-laplacian-count": FamilyStatement(
        "check_gndt_laplacian_count", lambda n: [(n, d, t) for d in range(4, n - 4) for t in range(3, d)],
        lambda n, d, t: ("gndt", (n, d, t)), lambda n, d, t: n - d + 1, ("L", "Q")),
}
FAMILY_CHECKERS = {tid: s.checker for tid, s in FAMILY_STATEMENTS.items()}
FAMILY_THEOREM_IDS = tuple(FAMILY_STATEMENTS)


def family_parameters(theorem_id: str, n: int) -> list[tuple[int, ...]]:
    """The checker arguments of every instance of the family statement at order n, in grid order."""
    if theorem_id not in FAMILY_STATEMENTS:
        raise KeyError(f"{theorem_id!r} is not a family theorem")
    return FAMILY_STATEMENTS[theorem_id].grid(n)


def _family_counts(theorem_id: str, params: list[tuple[int, ...]]) -> list[tuple]:
    """The counts of the checker tuples params, as a checker reads them:
    (below, at most) the threshold per matrix, then the diameter if read."""
    from . import quotients

    statement = FAMILY_STATEMENTS[theorem_id]
    members = [statement.member(*p) for p in params]
    counts = quotients.family_counts(members, [statement.threshold(*p) for p in params], statement.matrices)
    return [(*c, d) for c, d in zip(counts, quotients.family_diameters(members))] if statement.diameter else counts


def _family_row(theorem_id: str, *key: int) -> tuple:
    """The counts of the one instance whose checker arguments are key (n
    first). Raises GraphError, before any count, when key is not a tuple
    of family_parameters."""
    if key not in family_parameters(theorem_id, key[0]):
        raise GraphError(f"{theorem_id} has no instance with arguments {key}")
    return _family_counts(theorem_id, [key])[0]


def _family_report(theorem_id: str, key: tuple[int, ...], ok: bool, witness: dict) -> TheoremReport:
    """The report on checker arguments key, whose instance is the member as
    kind(k=v,...), its parameters in graphs.FAMILIES order."""
    kind, params = FAMILY_STATEMENTS[theorem_id].member(*key)
    return TheoremReport(theorem_id, f"{kind}({','.join(f'{k}={v}' for k, v in zip(FAMILIES[kind][1], params))})", ok,
                         witness=witness)


def check_cycle_matching(n: int, *, counts: tuple | None = None) -> TheoremReport:
    """Cycle count below 1 matches the ceil(n/3) residue formula and, off the
    5-cycle, stays at most the matching number minus one (n >= 3)."""
    ((m, _),) = counts or _family_row("cycle-matching", n)
    expected = ceil(n / 3) if n % 3 == 2 else ceil(n / 3) - 1
    nu = n // 2
    ok = m == expected and (n == 5 or m <= nu - 1)
    return _family_report("cycle-matching", (n,), ok, {"m01": m, "formula": expected, "nu": nu})


def check_family_counts(n: int, d: int, t: int, a: int | None = None, *, counts: tuple | None = None) -> TheoremReport:
    """Interval-count bounds for the path-plus-clique families.

    Three-parameter family (a is None, 2 <= t <= d <= n-3): at least d
    eigenvalues below n-d+1. Four-parameter family (2 <= t <= d-1 <= n-4,
    1 <= a <= n-d-2): the same bound; when d = n-3 additionally q_5 < 4.
    """
    key = (n, d, t) if a is None else (n, d, t, a)
    ((below, _),) = counts or _family_row("family-counts", *key)
    witness: dict = {"m_below_n-d+1": below, "required": d}
    ok = below >= d
    if a is not None and d == n - 3:  # then n - d + 1 = 4: below is the count below 4
        witness["count_below_4"] = below
        witness["q5_below_4"] = below >= n - 4
        ok = ok and below >= n - 4
    return _family_report("family-counts", key, ok, witness)


def check_gndra_q5(n: int, t: int, *, counts: tuple | None = None) -> TheoremReport:
    """q_5 < 4 for the four-parameter family at d = n-3, a = 1 (2 <= t <= n-4)."""
    ((below4, _),) = counts or _family_row("family-gndra-q5", n, t)
    return _family_report("family-gndra-q5", (n, t), below4 >= n - 4, {"count_below_4": below4, "required": n - 4})


def check_diameter3_equality(n: int, a: int | None = None, *, counts: tuple | None = None) -> TheoremReport:
    """Equality witnesses for the diameter-3 bound (n >= 7, 1 <= a <= n-5):
    the path-plus-clique families have exactly two eigenvalues below n-3,
    exactly n-4 equal to n-3, and the rest above."""
    key = (n,) if a is None else (n, a)
    (lt, le), diam = counts or _family_row("diameter-3-equality", *key)
    witness = {"m_below_n-3": lt, "mult_at_n-3": le - lt}
    ok = lt == 2 and le - lt == n - 4 and diam == 3
    return _family_report("diameter-3-equality", key, ok, witness)


def check_gndt_laplacian_count(n: int, d: int, t: int, *, counts: tuple | None = None) -> TheoremReport:
    """The three-parameter family has exactly d-1 Laplacian eigenvalues in
    [0, n-d+1) when d <= n-5 and 3 <= t <= d-1, against at least d signless ones."""
    (lap, _), (signless, _) = counts or _family_row("gndt-laplacian-count", n, d, t)
    witness = {"laplacian_below": lap, "signless_below": signless, "d": d}
    return _family_report("gndt-laplacian-count", (n, d, t), lap == d - 1 and signless >= d, witness)


# -- catalog and search -------------------------------------------------------------


@dataclass(frozen=True)
class GraphTheorem:
    """A per-graph statement: its predicate over a graph table, and the
    point checker that evaluates it on one graph."""

    theorem_id: str
    check: Callable[[Graph], TheoremReport]
    description: str
    predicate: Callable[[object], Verdict]


GRAPH_THEOREMS: dict[str, GraphTheorem] = {
    tid: GraphTheorem(tid, partial(evaluate, tid, predicate), description, predicate)
    for tid, predicate, description in [
        ("edge-interlacing", edge_interlacing, "edge deletion interlaces eigenvalues"),
        ("vertex-deletion", vertex_deletion, "vertex deletion shifts eigenvalues by at most 1"),
        *((tid, statement, statement.description) for tid, statement in COUNT_STATEMENTS.items()),
    ]
}

ALL_THEOREM_IDS = tuple(GRAPH_THEOREMS) + FAMILY_THEOREM_IDS


def canonical_theorem_id(theorem_id: str) -> str:
    tid = theorem_id.strip().lower().replace("_", "-")
    if tid not in GRAPH_THEOREMS and tid not in FAMILY_THEOREM_IDS:
        raise KeyError(f"unknown theorem id {theorem_id!r}; known: {', '.join(ALL_THEOREM_IDS)}")
    return tid


def iter_family_reports(theorem_id: str, n_lo: int, n_hi: int) -> Iterator[TheoremReport]:
    """Run a family checker over every instance of the grid n_lo..n_hi, one
    report at a time. The counts of one order are computed together, before
    its first report, and handed to each call; no more than one order's
    counts are held. The checker is looked up on this module at each call."""
    tid = canonical_theorem_id(theorem_id)
    if tid not in FAMILY_THEOREM_IDS:
        raise KeyError(f"{theorem_id!r} is not a family theorem")
    name = FAMILY_CHECKERS[tid]

    def reports() -> Iterator[TheoremReport]:
        for n in range(n_lo, n_hi + 1):
            params = family_parameters(tid, n)
            for p, counts in zip(params, _family_counts(tid, params)):
                yield globals()[name](*p, counts=counts)

    return reports()


def family_grid_reports(theorem_id: str, n_lo: int, n_hi: int) -> list[TheoremReport]:
    """Every report of iter_family_reports, as a list."""
    return list(iter_family_reports(theorem_id, n_lo, n_hi))


# -- the run driver --------------------------------------------------------------------


def _steps(
    theorem_ids: list[str], orders: range, grid: tuple[int, int], budget: int, seed: int
) -> Iterator[tuple[str, str, list[TheoremReport]]]:
    """(theorem id, summary line, failures) of each step, computed when it is
    asked for. The one place that decides which stream covers which order: a
    per-graph statement has a step per order, its sweep up to EXHAUSTIVE_LIMIT
    and budget samples seeded by seed + n above; a family statement one step,
    its grid over the orders grid[0]..grid[1]. sweeps is imported only by a
    sweep step, so a sampled search or a family verify never loads it."""
    for tid in theorem_ids:
        if tid in FAMILY_THEOREM_IDS:
            instances, bad = 0, []
            for rep in iter_family_reports(tid, *grid):
                instances += 1
                if rep.failed:
                    bad.append(rep)
            yield tid, f"{tid} grid n<={grid[1]}: {instances} instances, {len(bad)} failures", bad
            continue
        for n in orders:
            if n <= EXHAUSTIVE_LIMIT:
                from . import sweeps

                result = sweeps.exhaustive_failures(tid, n)
                yield tid, result.summary(), result.failures
            else:
                checker = GRAPH_THEOREMS[tid].check
                bad = [rep for rep in map(checker, sample_graphs(n, budget, seed + n)) if rep.failed]
                yield tid, f"{tid} n={n}: {budget} samples, {len(bad)} failures", bad


def verify_steps(theorem: str, exhaustive: int, family_max: int) -> Iterator[tuple[str, str, list[TheoremReport]]]:
    """The steps of qdist verify over theorem (an id or "all"): sweeps for
    n = 1..exhaustive, grids FAMILY_MIN..family_max. The arguments are
    checked before any step runs; a run that would check nothing is refused."""
    if not 0 <= exhaustive <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"--exhaustive must lie in 0..{EXHAUSTIVE_LIMIT}, got {exhaustive}")
    if family_max > FAMILY_LIMIT:
        raise ValueError(f"--family-max must be at most {FAMILY_LIMIT}, got {family_max}")
    theorem_ids = list(ALL_THEOREM_IDS) if theorem == "all" else [canonical_theorem_id(theorem)]
    grids = [tid for tid in theorem_ids if tid in FAMILY_THEOREM_IDS]
    if grids and family_max < FAMILY_MIN:
        raise ValueError(f"--family-max must be at least {FAMILY_MIN} for a family grid, got {family_max}")
    if not grids and exhaustive == 0:
        raise ValueError(f"--exhaustive 0 selects no instance of {theorem}")
    return _steps(theorem_ids, range(1, exhaustive + 1), (FAMILY_MIN, family_max), budget=0, seed=0)


def search_counterexamples(
    theorem_id: str, n_range: tuple[int, int], budget: int = 2000, seed: int = 0
) -> list[TheoremReport]:
    """The failures of the named statement over the orders of n_range (its
    sweeps and seeded samples, or its grid), after the ranges are checked."""
    tid = canonical_theorem_id(theorem_id)
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise GraphError(f"empty vertex range {n_range}")
    if n_lo < 1:
        raise GraphError(f"--n-min must be at least 1, got {n_lo}")
    if budget < 1:
        raise GraphError(f"budget must be at least 1, got {budget}")
    if tid in FAMILY_THEOREM_IDS and not FAMILY_MIN <= n_hi <= FAMILY_LIMIT:
        raise GraphError(f"family grids are for {FAMILY_MIN} <= n_max <= {FAMILY_LIMIT}, got {n_hi}")
    if tid in GRAPH_THEOREMS and n_hi > SAMPLE_LIMIT:
        raise GraphError(f"sampling is for {EXHAUSTIVE_LIMIT + 1} <= n <= {SAMPLE_LIMIT}, got {n_hi}")
    return [rep for _, _, bad in _steps([tid], range(n_lo, n_hi + 1), n_range, budget, seed) for rep in bad]
