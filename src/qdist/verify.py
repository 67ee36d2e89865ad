"""The theorem catalog: every per-graph statement written once, as a
predicate over a table of graphs; the point checkers, the family checkers,
exhaustive small-graph enumeration, seeded sampling, and counterexample
search.

A point checker is its statement's predicate on the one-row GraphTable of
one graph, whose columns come from the per-graph kernels. The exhaustive
sweeps evaluate the same predicates on sweeps.SweepTable and hand the rows
that do not pass to the point checkers, so a reported failure always rests
on the per-graph kernels. Interval counts are exact or certified, never
rounded floats: integer characteristic polynomials in the sweeps, and in
the point checkers and the family tables the certified floating spectrum
of one stack (spectral.graph_stack into jacobi_batch) wherever every
eigenvalue clears the threshold by its certified bound, with congruence
inertia for every other row that is needed. The interlacing-chain
statements also compare floating eigenvalues directly, with a fixed 1e-8
slack. Hypothesis failures report "not applicable" rather than "pass" so
pass counts measure real coverage.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import ceil
from typing import Callable, Iterator, Sequence

import numpy as np

from . import exact
from .graph6 import graph6_encode
from .graphs import (
    Graph,
    GraphError,
    _bits,
    cycle_graph,
    degrees,
    delete_vertex,
    gndra,
    gndt,
    is_connected,
    remove_edge,
)
from .invariants import (
    diameter,
    domination_number,
    independence_number,
    longest_path_length,
    matching_number,
)
from .jacobi import INEQ_SLACK, certified_below, jacobi_batch
# unused here, but kept bound: the benchmark's tracer (perfbench/layers.py) wraps verify.eigenvalues_sym
from .jacobi import eigenvalues_sym  # noqa: F401
from .spectral import graph_stack


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

    def to_json_line(self) -> str:
        obj = {
            "theorem": self.theorem_id,
            "instance": self.instance,
            "passed": self.passed,
            "applicable": self.applicable,
            "witness": self.witness,
        }
        return json.dumps(obj, sort_keys=True)


# -- enumeration and sampling ---------------------------------------------------


EXHAUSTIVE_LIMIT = 7
SAMPLE_LIMIT = 16
FAMILY_LIMIT = 32  # largest order of a family grid


def mask_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in the fixed enumeration order: (0,1),(0,2),...,(n-2,n-1)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n: int, mask: int, pairs: Sequence[tuple[int, int]] | None = None) -> Graph:
    pairs = pairs if pairs is not None else mask_pairs(n)
    rows = [0] * n
    for k, (u, v) in enumerate(pairs):
        if mask >> k & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def graph_to_mask(g: Graph) -> int:
    mask = 0
    for k, (u, v) in enumerate(mask_pairs(g.n)):
        if g.has_edge(u, v):
            mask |= 1 << k
    return mask


@dataclass(frozen=True)
class EnumerationFilter:
    """Which graphs an exhaustive or sampled stream should yield."""

    n: int
    connected_only: bool = False
    min_degree_at_least: int | None = None
    diameter_equals: int | None = None
    exclude: Callable[[Graph], bool] | None = None

    def admits(self, g: Graph) -> bool:
        if self.min_degree_at_least is not None:
            if g.n == 0 or min(degrees(g)) < self.min_degree_at_least:
                return False
        if self.connected_only and not is_connected(g):
            return False
        if self.diameter_equals is not None:
            if not is_connected(g) or diameter(g) != self.diameter_equals:
                return False
        if self.exclude is not None and self.exclude(g):
            return False
        return True


def enumerate_graphs(filt: EnumerationFilter) -> Iterator[Graph]:
    """All labeled graphs on filt.n vertices, in ascending bitmask order."""
    if filt.n > EXHAUSTIVE_LIMIT:
        raise GraphError(
            f"exhaustive enumeration limited to n <= {EXHAUSTIVE_LIMIT}, got {filt.n}; use sample_graphs"
        )
    pairs = mask_pairs(filt.n)
    for mask in range(1 << len(pairs)):
        g = graph_from_mask(filt.n, mask, pairs)
        if filt.admits(g):
            yield g


def sample_graphs(n: int, count: int, seed: int, filt: EnumerationFilter | None = None) -> Iterator[Graph]:
    """Uniform edge-probability 1/2 samples, deterministic under the seed."""
    if not EXHAUSTIVE_LIMIT < n <= SAMPLE_LIMIT:
        raise GraphError(f"sampling is for {EXHAUSTIVE_LIMIT + 1} <= n <= {SAMPLE_LIMIT}, got {n}")
    rng = random.Random(seed)
    pairs = mask_pairs(n)
    nbits = len(pairs)
    for _ in range(count):
        g = graph_from_mask(n, rng.getrandbits(nbits), pairs)
        if filt is None or filt.admits(g):
            yield g


def is_k_c5(g: Graph) -> bool:
    """True iff every component is a 5-cycle (all degrees 2, components of size 5)."""
    if g.n == 0 or g.n % 5:
        return False
    if any(row.bit_count() != 2 for row in g.adj):
        return False
    seen = 0
    full = (1 << g.n) - 1
    while seen != full:
        start = (full ^ seen) & -(full ^ seen)
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= nxt
        if comp.bit_count() != 5:
            return False
        seen |= comp
    return True


# -- statements as predicates over a graph table ----------------------------------
#
# Each per-graph statement is written once, as a predicate over a table whose
# rows are graphs of one order n: GraphTable below (Graph objects and the
# per-graph kernels; a point checker is the predicate on a one-row table) or
# sweeps.SweepTable (the exhaustive sweep tables). A table has n, count and
#   mindeg, maxdeg, conn (False at n = 0), diam and ell (diameter and longest
#   path, or an upper bound on it, where conn), nu, alpha, gamma, kc5:
#   (count,) columns;
#   vals: (count, n) spectra, nonincreasing rows;
#   lt(t, where), le(t, where): exact counts below / at most the integer
#   threshold t, a scalar or a (count,) column; rows outside where are not
#   needed and their values are unspecified;
#   without_edge(k): the rows holding edge bit k of mask_pairs(n), and the
#   table of those graphs minus that edge; without_vertex(v): the table of
#   the graphs minus vertex v.


@dataclass
class Verdict:
    """A predicate's result over the rows of a table. Rows where the
    statement does not apply count as passed, with the note as witness."""

    applicable: np.ndarray  # (count,) bool
    passed: np.ndarray  # (count,) bool
    note: str | Callable[[int], str]  # why row i does not apply
    witness: Callable[[int], dict]  # witness of an applicable row i

    @classmethod
    def columns(cls, applicable, holds, note, **cols) -> "Verdict":
        """The witness of row i holds every column (or scalar) of cols at row i."""

        def witness(i: int) -> dict:
            return {k: c[i] if isinstance(c, np.ndarray) else c for k, c in cols.items()}

        return cls(applicable, ~applicable | holds, note, witness)

    @classmethod
    def first_failures(cls, applicable, found: dict[int, dict], note, passing: Callable[[int], dict]) -> "Verdict":
        """found holds the witness of every failing row; passing(i) is that of a passing row."""
        passed = np.ones(applicable.shape, dtype=bool)
        passed[list(found)] = False
        return cls(applicable, passed, note, lambda i: found.get(i) or passing(i))


def _record_first(found: dict[int, dict], rows: np.ndarray, fail: np.ndarray, witness: Callable) -> None:
    """For each row of fail (a (len(rows), m) bool array) with a failure and
    no witness yet, store witness(j, position of its first failure)."""
    for j in np.flatnonzero(fail.any(axis=1)):
        if int(rows[j]) not in found:
            found[int(rows[j])] = witness(j, int(fail[j].argmax()))


def edge_interlacing(tab) -> Verdict:
    """Eigenvalues of G and G-e interlace: q_i(G) >= q_i(G-e) >= q_{i+1}(G),
    for every edge e.

    Checks the floating chain with 1e-8 slack and, exactly, that the count
    below every integer threshold moves by at most one when the edge goes.
    """
    n = tab.n
    thresholds = range(0, 2 * n - 1)
    checked = np.zeros(tab.count, dtype=np.int64)
    found: dict[int, dict] = {}
    lt_g = None
    for k in range(n * (n - 1) // 2):
        rows, sub = tab.without_edge(k)
        if not rows.size:
            continue
        lt_g = lt_g or [tab.lt(t) for t in thresholds]
        checked[rows] += 1
        A, B = tab.vals[rows], sub.vals
        cg = [lt[rows] for lt in lt_g]
        ch = [sub.lt(t) for t in thresholds]
        # failures in checking order: the chain at i = 1..n (the upper link
        # before the lower), then the counts at every threshold
        fail = np.empty((rows.size, 4 * n - 2), dtype=bool)
        fail[:, 0 : 2 * n : 2] = ~(A >= B - INEQ_SLACK)
        fail[:, 1 : 2 * n - 1 : 2] = ~(B[:, : n - 1] >= A[:, 1:] - INEQ_SLACK)
        for t in thresholds:
            fail[:, 2 * n - 1 + t] = np.abs(ch[t] - cg[t]) > 1

        def witness(j: int, pos: int) -> dict:
            edge, (i, lower) = list(mask_pairs(n)[k]), divmod(pos, 2)
            if pos >= 2 * n - 1:
                t = pos - (2 * n - 1)
                return {"edge": edge, "threshold": t, "count_G": cg[t][j], "count_Ge": ch[t][j]}
            if not lower:
                return {"edge": edge, "i": i + 1, "qi_G": A[j, i], "qi_Ge": B[j, i]}
            return {"edge": edge, "i": i + 1, "qi_Ge": B[j, i], "qnext_G": A[j, i + 1]}

        _record_first(found, rows, fail, witness)
    return Verdict.first_failures(checked > 0, found, "no edges", lambda i: {"edges_checked": checked[i]})


def vertex_deletion(tab) -> Verdict:
    """q_{i+1}(G) <= q_i(G-v) + 1 for i = 1..n-1 and every vertex v,
    floating with 1e-8 slack."""
    n = tab.n
    found: dict[int, dict] = {}
    if n >= 2:
        vals = tab.vals
        for w in range(n):
            B = tab.without_vertex(w).vals
            fail = ~(vals[:, 1:] <= B[:, : n - 1] + 1 + INEQ_SLACK)

            def witness(j: int, pos: int) -> dict:
                return {"vertex": w, "i": pos + 1, "q_next_G": vals[j, pos + 1], "q_i_Gv": B[j, pos]}

            _record_first(found, np.arange(tab.count), fail, witness)
    return Verdict.first_failures(np.full(tab.count, n >= 2), found, "n < 2", lambda i: {})


def _delta2_hypothesis(tab) -> np.ndarray:
    """Minimum degree at least two and not every component a 5-cycle."""
    return (tab.mindeg >= 2) & ~tab.kc5


def matching_upper(tab) -> Verdict:
    """Count below 1 is at most the matching number; with minimum degree two
    and no component a 5-cycle, at most the matching number minus one."""
    applicable = tab.mindeg >= 1
    strengthened = _delta2_hypothesis(tab)
    m01 = tab.lt(1, applicable)
    holds = m01 <= tab.nu - strengthened
    return Verdict.columns(applicable, holds, "isolated vertex", m01=m01, nu=tab.nu, strengthened=strengthened)


def delta2(tab) -> Verdict:
    """The strengthened bound alone: delta >= 2 and not kC5 imply count below 1 <= nu - 1."""
    applicable = _delta2_hypothesis(tab)
    m01 = tab.lt(1, applicable)
    return Verdict.columns(applicable, m01 <= tab.nu - 1, "hypothesis fails", m01=m01, nu=tab.nu)


def domination_bound(tab) -> Verdict:
    """Count below 1 is at most the domination number (no isolated vertices)."""
    applicable = tab.mindeg >= 1
    m01 = tab.lt(1, applicable)
    return Verdict.columns(applicable, m01 <= tab.gamma, "isolated vertex", m01=m01, gamma=tab.gamma)


def m02_bound(tab) -> Verdict:
    """Count below 2 is at most n minus the matching number (no isolated vertices)."""
    applicable = tab.mindeg >= 1
    m02 = tab.lt(2, applicable)
    return Verdict.columns(applicable, m02 <= tab.n - tab.nu, "isolated vertex", m02=m02, nu=tab.nu, n=tab.n)


def alpha_sandwich(tab) -> Verdict:
    """Independence number at most both closed-interval counts
    [delta, 2n-2] and [0, Delta]."""
    applicable = np.full(tab.count, tab.n >= 1)
    high = tab.n - tab.lt(tab.mindeg, applicable)  # eigenvalues >= delta
    low = tab.le(tab.maxdeg, applicable)  # eigenvalues <= Delta
    holds = (tab.alpha <= high) & (tab.alpha <= low)
    return Verdict.columns(applicable, holds, "empty", alpha=tab.alpha, m_delta_up=high, m_0_Delta=low)


def longest_path(tab) -> Verdict:
    """Count above 2 is at least floor(longest path length / 2) for connected graphs."""
    applicable = tab.conn
    above2 = tab.n - tab.le(2, applicable)
    return Verdict.columns(applicable, above2 >= tab.ell // 2, "disconnected", ell=tab.ell, m_2_up=above2)


def diameter_main(tab) -> Verdict:
    """Diameter forces counts: below n-2 at least d-1; for 3 <= d <= n-3,
    below n-d+1 at least d (d <= n-5) or d-1 (d in {n-4, n-3})."""
    n = tab.n
    applicable = tab.conn
    d = tab.diam
    below = tab.lt(n - 2, applicable)
    holds = below >= d - 1
    second = applicable & holds & (d >= 3) & (d <= n - 3)
    required = np.where(d <= n - 5, d, d - 1)
    below2 = tab.lt(n - d + 1, second)
    holds &= ~second | (below2 >= required)

    def witness(i: int) -> dict:
        w = {"d": d[i], "m_below_n-2": below[i]}
        if second[i]:
            w.update({"m_below_n-d+1": below2[i], "required": required[i]})
        return w

    return Verdict(applicable, ~applicable | holds, "disconnected", witness)


def diameter3(tab) -> Verdict:
    """Connected diameter-3 graphs on n >= 7 vertices have at least two
    eigenvalues below n-3."""
    applicable = tab.conn & (tab.n >= 7) & (tab.diam == 3)
    below = tab.lt(tab.n - 3, applicable)
    witness = {"m_below_n-3": below, "equality": below == 2}
    return Verdict.columns(applicable, below >= 2, "hypothesis fails", **witness)


def tail_eigenvalue_bound(tab) -> Verdict:
    """q_i <= n-3 for all delta+2 <= i <= n-1 on connected graphs.

    The q_i are nonincreasing, so this says exactly that at most delta+1
    eigenvalues exceed n-3, which the exact count at n-3 decides.
    """
    n = tab.n
    conn, delta = tab.conn, tab.mindeg
    applicable = conn & (delta + 2 <= n - 1)
    above = n - tab.le(n - 3, applicable)
    note = lambda i: "index range empty" if conn[i] else "disconnected"  # noqa: E731
    return Verdict.columns(applicable, above <= delta + 1, note, **{"delta": delta, "count_above_n-3": above})


class GraphTable:
    """The statements' table over Graph objects of one order. The spectra
    come from one stacked certified eigh (jacobi_batch) over graph_stack,
    and a count from them wherever every eigenvalue of a row clears the
    threshold (jacobi.certified_below); exact congruence inertia counts the
    rows of where that do not clear. The other columns come on first use
    from the invariants module, looked up here at call time. The G-e tables
    of every edge, and the G-v tables of every vertex, take their spectra
    from one stacked call each."""

    def __init__(self, n: int, graphs: Sequence[Graph], spectra: tuple[np.ndarray, np.ndarray] | None = None):
        self.n, self.graphs, self.count = n, list(graphs), len(graphs)
        if spectra is not None:
            self.spectra = spectra

    def _column(self, f: Callable[[Graph], int], where: np.ndarray | None = None) -> np.ndarray:
        on = [True] * self.count if where is None else where.tolist()
        return np.array([f(g) if w else 0 for g, w in zip(self.graphs, on)], dtype=np.int64)

    mindeg = cached_property(lambda self: self._column(lambda g: min(degrees(g), default=0)))
    maxdeg = cached_property(lambda self: self._column(lambda g: max(degrees(g), default=0)))
    conn = cached_property(lambda self: self._column(lambda g: g.n > 0 and is_connected(g)).astype(bool))
    diam = cached_property(lambda self: self._column(diameter, self.conn))
    ell = cached_property(lambda self: self._column(longest_path_length, self.conn))
    nu = cached_property(lambda self: self._column(matching_number))
    alpha = cached_property(lambda self: self._column(independence_number))
    gamma = cached_property(lambda self: self._column(domination_number))
    kc5 = cached_property(lambda self: self._column(is_k_c5).astype(bool))

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """(vals, bounds) of jacobi_batch: nonincreasing rows and their certified error bounds."""
        return _stacked_spectra(self.n, self.graphs)

    @property
    def vals(self) -> np.ndarray:
        return self.spectra[0]

    def _count(self, kernel: Callable, t, where: np.ndarray | None) -> np.ndarray:
        below, clear = certified_below(*self.spectra, t)
        todo = np.flatnonzero(~clear if where is None else where & ~clear)
        if todo.size:
            ts = np.broadcast_to(t, (self.count,)).tolist()
            for i in todo.tolist():
                below[i] = kernel(self.graphs[i], ts[i])
        return below

    def lt(self, t, where: np.ndarray | None = None) -> np.ndarray:
        return self._count(exact.graph_count_lt, t, where)

    def le(self, t, where: np.ndarray | None = None) -> np.ndarray:
        return self._count(exact.graph_count_le, t, where)

    @cached_property
    def _without_edges(self) -> list[tuple[np.ndarray, "GraphTable"]]:
        groups = []
        for u, v in mask_pairs(self.n):
            rows = np.array([i for i, g in enumerate(self.graphs) if g.has_edge(u, v)], dtype=np.intp)
            groups.append((rows, [remove_edge(self.graphs[i], u, v) for i in rows]))
        tables = _stacked_tables(self.n, [graphs for _, graphs in groups])
        return [(rows, tab) for (rows, _), tab in zip(groups, tables)]

    def without_edge(self, k: int) -> tuple[np.ndarray, "GraphTable"]:
        return self._without_edges[k]

    @cached_property
    def _without_vertices(self) -> list["GraphTable"]:
        return _stacked_tables(self.n - 1, [[delete_vertex(g, v) for g in self.graphs] for v in range(self.n)])

    def without_vertex(self, v: int) -> "GraphTable":
        return self._without_vertices[v]


def _stacked_spectra(n: int, graphs: Sequence[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """jacobi_batch of the Q(G) stack of graphs of order n (empty arrays for no graphs)."""
    if not graphs:
        return np.zeros((0, n)), np.zeros(0)
    return jacobi_batch(graph_stack(n, graphs))


def _stacked_tables(n: int, groups: list[list[Graph]]) -> list[GraphTable]:
    """One GraphTable per group of graphs of order n, the spectra of all of
    them from one stacked call."""
    vals, bounds = _stacked_spectra(n, [g for group in groups for g in group])
    cuts = np.cumsum([len(group) for group in groups])[:-1]
    return [GraphTable(n, group, s) for group, s in zip(groups, zip(np.split(vals, cuts), np.split(bounds, cuts)))]


def evaluate(theorem_id: str, predicate: Callable[[object], Verdict], g: Graph) -> TheoremReport:
    """The predicate on the one-row table of g, as a report."""
    verdict = predicate(GraphTable(g.n, [g]))
    applicable = bool(verdict.applicable[0])
    if applicable:
        witness = {k: v.item() if isinstance(v, np.generic) else v for k, v in verdict.witness(0).items()}
    else:
        witness = {"note": verdict.note if isinstance(verdict.note, str) else verdict.note(0)}
    return TheoremReport(theorem_id, graph6_encode(g), bool(verdict.passed[0]), applicable, witness)


def _checker(theorem_id: str, predicate: Callable[[object], Verdict]) -> Callable[[Graph], TheoremReport]:
    def check(g: Graph) -> TheoremReport:
        return evaluate(theorem_id, predicate, g)

    check.__doc__ = predicate.__doc__
    return check


check_edge_interlacing = _checker("edge-interlacing", edge_interlacing)
check_vertex_deletion = _checker("vertex-deletion", vertex_deletion)
check_matching_upper = _checker("matching-upper", matching_upper)
check_delta2 = _checker("delta2", delta2)
check_domination_bound = _checker("domination-bound", domination_bound)
check_m02_bound = _checker("m02-bound", m02_bound)
check_alpha_sandwich = _checker("alpha-sandwich", alpha_sandwich)
check_longest_path = _checker("longest-path", longest_path)
check_diameter_main = _checker("diameter-main", diameter_main)
check_diameter3 = _checker("diameter-3", diameter3)
check_tail_eigenvalue_bound = _checker("tail-eigenvalue-bound", tail_eigenvalue_bound)


# -- family checkers ---------------------------------------------------------------
#
# A family statement has one instance per parameter tuple, and one checker
# that takes the tuple as its positional arguments. family_parameters lists
# the tuples of one order; it feeds both the grid (iter_family_reports) and
# the counts the checkers read (family_table).


FAMILY_MIN = 7  # smallest order of a verify family grid
FAMILY_STACK = 32  # matrices per jacobi_batch call: the certificate's temporaries grow with the stack

# the (matrix, count at most t too) pairs whose counts a family checker reads
_FAMILY_COUNTS = {
    "cycle-matching": (("Q", False),),
    "family-counts": (("Q", False),),
    "family-gndra-q5": (("Q", False),),
    "diameter-3-equality": (("Q", True),),
    "gndt-laplacian-count": (("L", False), ("Q", False)),
}


def family_parameters(theorem_id: str, n: int) -> Iterator[tuple[int, ...]]:
    """The checker arguments of every instance of the family statement at order n, in grid order."""
    if theorem_id == "cycle-matching":
        if n >= 3:
            yield (n,)
    elif theorem_id == "family-counts":
        for d in range(2, n - 2):
            for t in range(2, d + 1):
                yield (n, d, t)
        for d in range(3, n - 2):
            for t in range(2, d):
                for a in range(1, n - d - 1):
                    yield (n, d, t, a)
    elif theorem_id == "family-gndra-q5":
        for t in range(2, n - 3):
            yield (n, t)
    elif theorem_id == "diameter-3-equality":
        if n >= 7:
            yield (n,)
            for a in range(1, n - 4):
                yield (n, a)
    elif theorem_id == "gndt-laplacian-count":
        for d in range(4, n - 4):
            for t in range(3, d):
                yield (n, d, t)
    else:
        raise KeyError(f"{theorem_id!r} is not a family theorem")


def _family_member(theorem_id: str, n: int, *rest: int) -> tuple[Graph, int]:
    """The graph of one family instance and the threshold of its counts."""
    if theorem_id == "cycle-matching":
        return cycle_graph(n), 1
    if theorem_id == "family-counts":
        d, t, *a = rest
        return (gndra(n, d, t, *a) if a else gndt(n, d, t)), n - d + 1
    if theorem_id == "family-gndra-q5":
        return gndra(n, n - 3, rest[0], 1), 4
    if theorem_id == "diameter-3-equality":
        return (gndra(n, 3, 2, *rest) if rest else gndt(n, 3, 2)), n - 3
    d, t = rest  # gndt-laplacian-count
    return gndt(n, d, t), n - d + 1


@dataclass(frozen=True)
class FamilyTable:
    """Counts of every instance of one family statement at one order.

    rows maps the checker's arguments to, for each (matrix, with_le) of the
    statement, the count below the instance's threshold (and the count at
    most it), then for diameter-3-equality the member's diameter.
    exact_members counts the instances with a count from Bareiss.
    """

    rows: dict[tuple[int, ...], tuple[int, ...]]
    exact_members: int


@lru_cache(maxsize=None)
def family_table(theorem_id: str, n: int, chunk: int | None = None) -> FamilyTable:
    """The counts of the instances at order n: of every one, or with chunk
    = s only of the FAMILY_STACK instances from position s * FAMILY_STACK
    of family_parameters, which is all that _family_row builds. Each chunk
    is one stack (graph_stack) into certified eigh (jacobi_batch); a member
    whose eigenvalues all clear its threshold by their certified bound
    (jacobi.certified_below) takes its counts from the floats, and every
    other member from exact congruence inertia. A failed certificate raises
    ConvergenceError and caches nothing."""
    params = list(_family_grid(theorem_id, n))
    if chunk is None:
        parts = [family_table(theorem_id, n, s) for s in range(ceil(len(params) / FAMILY_STACK))]
        rows = {key: row for part in parts for key, row in part.rows.items()}
        return FamilyTable(rows, sum(part.exact_members for part in parts))
    keys = params[chunk * FAMILY_STACK : (chunk + 1) * FAMILY_STACK]
    members = [_family_member(theorem_id, *p) for p in keys]
    graphs = [g for g, _ in members]
    thresholds = [t for _, t in members]
    counts = [()] * len(keys)
    bareiss = np.zeros(len(keys), dtype=bool)
    for matrix, with_le in _FAMILY_COUNTS[theorem_id]:
        below, clear = certified_below(*jacobi_batch(graph_stack(n, graphs, matrix)), thresholds)
        for i, ((g, t), b, c) in enumerate(zip(members, below.tolist(), clear.tolist())):
            if c:
                counts[i] += (b, b) if with_le else (b,)
            else:
                lt = exact.graph_count_lt(g, t, matrix=matrix)
                counts[i] += (lt, exact.graph_count_le(g, t, matrix=matrix)) if with_le else (lt,)
        bareiss |= ~clear
    if theorem_id == "diameter-3-equality":
        counts = [c + (diameter(g),) for c, g in zip(counts, graphs)]
    return FamilyTable(dict(zip(keys, counts)), int(bareiss.sum()))


@lru_cache(maxsize=None)
def _family_grid(theorem_id: str, n: int) -> dict[tuple[int, ...], int]:
    """The position of every tuple of family_parameters(theorem_id, n)."""
    return {p: i for i, p in enumerate(family_parameters(theorem_id, n))}


def _family_row(theorem_id: str, *key: int) -> tuple[int, ...]:
    """The table row of the instance whose checker arguments are key (n
    first), from the table of the one chunk that holds it. Raises
    GraphError, before any table is built, when key is not a tuple of
    family_parameters."""
    position = _family_grid(theorem_id, key[0]).get(key)
    if position is None:
        raise GraphError(f"{theorem_id} has no instance with arguments {key}")
    return family_table(theorem_id, key[0], position // FAMILY_STACK).rows[key]


def check_cycle_matching(n: int) -> TheoremReport:
    """Cycle count below 1 matches the ceil(n/3) residue formula and, off the
    5-cycle, stays at most the matching number minus one (n >= 3)."""
    (m,) = _family_row("cycle-matching", n)
    expected = ceil(n / 3) if n % 3 == 2 else ceil(n / 3) - 1
    nu = n // 2
    ok = m == expected and (n == 5 or m <= nu - 1)
    return TheoremReport("cycle-matching", f"cycle(n={n})", ok, witness={"m01": m, "formula": expected, "nu": nu})


def check_family_counts(n: int, d: int, t: int, a: int | None = None) -> TheoremReport:
    """Interval-count bounds for the path-plus-clique families.

    Three-parameter family (a is None, 2 <= t <= d <= n-3): at least d
    eigenvalues below n-d+1. Four-parameter family (2 <= t <= d-1 <= n-4,
    1 <= a <= n-d-2): the same bound; when d = n-3 additionally q_5 < 4.
    """
    if a is None:
        (below,) = _family_row("family-counts", n, d, t)
        instance = f"gndt(n={n},d={d},t={t})"
    else:
        (below,) = _family_row("family-counts", n, d, t, a)
        instance = f"gndra(n={n},d={d},r={t},a={a})"
    witness: dict = {"m_below_n-d+1": below, "required": d}
    ok = below >= d
    if a is not None and d == n - 3:  # then n - d + 1 = 4: below is the count below 4
        witness["count_below_4"] = below
        witness["q5_below_4"] = below >= n - 4
        ok = ok and below >= n - 4
    return TheoremReport("family-counts", instance, ok, witness=witness)


def check_gndra_q5(n: int, t: int) -> TheoremReport:
    """q_5 < 4 for the four-parameter family at d = n-3, a = 1 (2 <= t <= n-4)."""
    (below4,) = _family_row("family-gndra-q5", n, t)
    return TheoremReport(
        "family-gndra-q5",
        f"gndra(n={n},d={n - 3},r={t},a=1)",
        below4 >= n - 4,
        witness={"count_below_4": below4, "required": n - 4},
    )


def check_diameter3_equality(n: int, a: int | None = None) -> TheoremReport:
    """Equality witnesses for the diameter-3 bound (n >= 7, 1 <= a <= n-5):
    the path-plus-clique families have exactly two eigenvalues below n-3,
    exactly n-4 equal to n-3, and the rest above."""
    if a is None:
        lt, le, diam = _family_row("diameter-3-equality", n)
        instance = f"gndt(n={n},d=3,t=2)"
    else:
        lt, le, diam = _family_row("diameter-3-equality", n, a)
        instance = f"gndra(n={n},d=3,r=2,a={a})"
    witness = {"m_below_n-3": lt, "mult_at_n-3": le - lt}
    ok = lt == 2 and le - lt == n - 4 and diam == 3
    return TheoremReport("diameter-3-equality", instance, ok, witness=witness)


def check_gndt_laplacian_count(n: int, d: int, t: int) -> TheoremReport:
    """The three-parameter family has exactly d-1 Laplacian eigenvalues in
    [0, n-d+1) when d <= n-5 and 3 <= t <= d-1, against at least d signless ones."""
    lap, signless = _family_row("gndt-laplacian-count", n, d, t)
    ok = lap == d - 1 and signless >= d
    return TheoremReport(
        "gndt-laplacian-count",
        f"gndt(n={n},d={d},t={t})",
        ok,
        witness={"laplacian_below": lap, "signless_below": signless, "d": d},
    )


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
    t.theorem_id: t
    for t in [
        GraphTheorem("edge-interlacing", check_edge_interlacing, "edge deletion interlaces eigenvalues", edge_interlacing),
        GraphTheorem("vertex-deletion", check_vertex_deletion, "vertex deletion shifts eigenvalues by at most 1", vertex_deletion),
        GraphTheorem("matching-upper", check_matching_upper, "count below 1 bounded by matching number", matching_upper),
        GraphTheorem("delta2", check_delta2, "min degree 2, no 5-cycle components: count below 1 <= nu-1", delta2),
        GraphTheorem("domination-bound", check_domination_bound, "count below 1 bounded by domination number", domination_bound),
        GraphTheorem("m02-bound", check_m02_bound, "count below 2 bounded by n - nu", m02_bound),
        GraphTheorem("alpha-sandwich", check_alpha_sandwich, "independence number under both interval counts", alpha_sandwich),
        GraphTheorem("longest-path", check_longest_path, "count above 2 at least half the longest path", longest_path),
        GraphTheorem("diameter-main", check_diameter_main, "diameter lower-bounds interval counts", diameter_main),
        GraphTheorem("diameter-3", check_diameter3, "diameter 3: at least 2 eigenvalues below n-3", diameter3),
        GraphTheorem("tail-eigenvalue-bound", check_tail_eigenvalue_bound, "q_i <= n-3 for i >= delta+2", tail_eigenvalue_bound),
    ]
}

FAMILY_CHECKERS = {
    "cycle-matching": "check_cycle_matching",
    "family-counts": "check_family_counts",
    "family-gndra-q5": "check_gndra_q5",
    "diameter-3-equality": "check_diameter3_equality",
    "gndt-laplacian-count": "check_gndt_laplacian_count",
}
FAMILY_THEOREM_IDS = tuple(FAMILY_CHECKERS)

ALL_THEOREM_IDS = tuple(GRAPH_THEOREMS) + FAMILY_THEOREM_IDS


def canonical_theorem_id(theorem_id: str) -> str:
    tid = theorem_id.strip().lower().replace("_", "-")
    if tid not in GRAPH_THEOREMS and tid not in FAMILY_THEOREM_IDS:
        raise KeyError(f"unknown theorem id {theorem_id!r}; known: {', '.join(ALL_THEOREM_IDS)}")
    return tid


def iter_family_reports(theorem_id: str, n_lo: int, n_hi: int) -> Iterator[TheoremReport]:
    """Run a family checker over every instance of the grid n_lo..n_hi, one
    report at a time. The checker is looked up on this module at each call."""
    tid = canonical_theorem_id(theorem_id)
    if tid not in FAMILY_THEOREM_IDS:
        raise KeyError(f"{theorem_id!r} is not a family theorem")
    name = FAMILY_CHECKERS[tid]
    return (globals()[name](*p) for n in range(n_lo, n_hi + 1) for p in family_parameters(tid, n))


def family_grid_reports(theorem_id: str, n_lo: int, n_hi: int) -> list[TheoremReport]:
    """Every report of iter_family_reports, as a list."""
    return list(iter_family_reports(theorem_id, n_lo, n_hi))


def search_counterexamples(
    theorem_id: str,
    n_range: tuple[int, int],
    budget: int = 2000,
    seed: int = 0,
) -> list[TheoremReport]:
    """Run the named checker exhaustively (n <= 7) and on seeded samples
    (n >= 8); return only genuine failures, deterministically."""
    tid = canonical_theorem_id(theorem_id)
    n_lo, n_hi = n_range
    if n_lo > n_hi:
        raise GraphError(f"empty vertex range {n_range}")
    if budget < 1:
        raise GraphError(f"budget must be at least 1, got {budget}")
    if tid in FAMILY_THEOREM_IDS:
        if not FAMILY_MIN <= n_hi <= FAMILY_LIMIT:
            raise GraphError(f"family grids are for {FAMILY_MIN} <= n_max <= {FAMILY_LIMIT}, got {n_hi}")
        return [r for r in iter_family_reports(tid, n_lo, n_hi) if r.applicable and not r.passed]
    if n_hi > SAMPLE_LIMIT:
        raise GraphError(f"sampling is for {EXHAUSTIVE_LIMIT + 1} <= n <= {SAMPLE_LIMIT}, got {n_hi}")

    from . import sweeps

    failures: list[TheoremReport] = []
    for n in range(n_lo, n_hi + 1):
        if n <= EXHAUSTIVE_LIMIT:
            failures.extend(sweeps.exhaustive_failures(tid, n).failures)
        else:
            checker = GRAPH_THEOREMS[tid].check
            for g in sample_graphs(n, budget, seed + n):
                rep = checker(g)
                if rep.applicable and not rep.passed:
                    failures.append(rep)
    return failures
