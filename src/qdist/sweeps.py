"""Exhaustive sweeps at desk scale (n <= 7), one isomorphism class at a time.

Every statement the sweeps check is invariant under relabeling, so a sweep
evaluates it once per isomorphism class. The class map (``class_map``)
assigns every labeled edge mask on n vertices (edge bits in the order of
``jacobi.edge_pairs``) the id of its class by orbit enumeration: the least
mask with no class yet is the next representative, and its images under
all n! vertex permutations are its orbit. SweepData carries the map
(``class_of``), the representatives, the orbit sizes and the SweepTable of
the representatives. Masks become graphs only through
``jacobi.mask_adjacency``. The map has three jobs only: orbit sizes
(labeled totals), expanding a class that does not pass into its labeled
members for the point checker, in the same process and at most
``verify.ROWS`` masks per decode, and the labeled count cache of
``counts_pair`` (int8, one byte per labeled mask and threshold).

A SweepTable holds graphs of one order n <= 9 in the adjacency-stack shell
of the point checkers' table (``verify.AdjacencyTable``), which gives it
the degrees, the G-e and G-v edits and the certified spectra (stacked
LAPACK ``eigh``, ``jacobi.jacobi_batch``, on the Q(G) stack of every
``verify.ROWS`` graphs in turn). Its other columns come from stacked
kernels: connectivity and diameter from Boolean powers of A | I; the
matching, independence and domination numbers from one scan of the 2^n
vertex subsets (``_subset_scan``); the longest path from the point
checkers' kernel (``invariants.longest_path_lengths``); and, per chunk,
the integer coefficients of det(xI - Q) (batched Faddeev-LeVerrier in
float64, exact under asserted bounds). Q(G) is symmetric, so that
polynomial has only real roots and Descartes' rule of signs is exact for
it: the number of eigenvalues below a rational threshold t is the number
of sign variations of the shifted polynomial, and the multiplicity of t is
the order of its zero there. Every eigenvalue count in the sweeps comes
from this one exact kernel; the spectra feed the interlacing chains, which
compare eigenvalues. The G-e and G-v tables are SweepTables over edited
adjacency stacks, so no table reads the class map. The agreement gate
checks the representatives' counts against their certified spectra and
against exact congruence inertia.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import comb

import numpy as np

from . import exact, verify
from .invariants import longest_path_lengths
from .jacobi import GUARD_BAND, certified_below, edge_pairs, graphs_of, jacobi_batch, mask_adjacency
from .verify import Clause, CountStatement, TheoremReport

CHUNK = 1 << 12  # masks per step of class_map's scan for the next representative


# -- per-order class maps --------------------------------------------------------------


@dataclass
class SweepData:
    """The isomorphism classes of graphs on n vertices (C of them): the map from
    every labeled edge mask to its class, and the representatives' SweepTable."""

    n: int
    class_of: np.ndarray  # (2^C(n,2),) int32, the class id of every labeled mask
    reps: np.ndarray  # (C,) int64, the least mask of each class, ascending
    orbit: np.ndarray  # (C,) int64, labeled graphs in each class
    # threshold -> (count below, count at most), (2^C(n,2),) int8 each, per labeled mask
    counts: dict[Fraction, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def count(self) -> int:
        """Labeled graphs on n vertices, 2^C(n,2)."""
        return self.class_of.size

    @cached_property
    def table(self) -> "SweepTable":
        """The representatives' graphs, in class order. Its counts are its own
        (int16); reading a threshold also fills the labeled cache of counts_pair."""
        return SweepTable(self.n, mask_adjacency(self.n, self.reps), self._rep_counts)

    def _rep_counts(self, t) -> tuple[np.ndarray, np.ndarray]:
        counts_pair(self, t)
        return self.table.counts(t)


_DATA: dict[int, SweepData] = {}


def class_map(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(class_of, reps, orbit) of the labeled graphs on n vertices.

    image[p, k] is the edge bit that vertex permutation p sends edge bit k
    to, gathered from the (n, n) table of edge bits, so the images of a mask
    are one OR per edge over a column of image. The least mask without a
    class is the least of its orbit, so it is the next representative; its
    orbit is the set of its n! images, and every mask in the orbit gets its
    class id.
    """
    u, v = edge_pairs(n)
    bit = np.zeros((n, n), dtype=np.int64)
    bit[u, v] = bit[v, u] = 1 << np.arange(u.size)
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    image = bit[perms[:, u], perms[:, v]]
    class_of = np.full(1 << u.size, -1, dtype=np.int32)
    reps: list[int] = []
    orbit: list[int] = []
    lo = 0
    while lo < class_of.size:
        free = np.flatnonzero(class_of[lo : lo + CHUNK] < 0)
        if not free.size:
            lo += CHUNK
            continue
        rep = lo + int(free[0])
        bits = [k for k in range(u.size) if rep >> k & 1]
        images = _distinct(np.bitwise_or.reduce(image[:, bits], axis=1))
        class_of[images] = len(reps)
        reps.append(rep)
        orbit.append(images.size)
        lo = rep + 1
    return class_of, np.array(reps, dtype=np.int64), np.array(orbit, dtype=np.int64)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, ascending, by np.unique's sort path: its hash
    path, taken when no index, inverse or count is asked for, imports
    numpy.ma on first use."""
    return np.unique(a, return_counts=True)[0]


def _closure_and_diameter(closed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From Boolean powers of the closed adjacency pattern (C, n, n): power k
    holds the pairs at distance at most k, and the diameter is the last power
    that reaches a new pair (the largest eccentricity within a component).
    The graph of order 0 is not connected."""
    n = closed.shape[1]
    reach = np.broadcast_to(np.eye(n, dtype=bool), closed.shape)
    diam = np.zeros((closed.shape[0],), dtype=np.int16)
    for k in range(1, n):
        nxt = reach @ closed
        diam[(nxt != reach).any(axis=(1, 2))] = k
        reach = nxt
    return reach.all(axis=(1, 2)) & (n > 0), diam


def _subset_scan(closed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact matching, independence and domination numbers (int16) from the
    closed adjacency pattern (C, n, n), in one pass over the vertex subsets S
    in ascending order, so every proper subset of S comes before S. With
    v = min S, nu(S) = max(nu(S - v), 1 + nu(S - v - u)) over the neighbours
    u of v in S, held in a 2^n x C table; nu(S - v - u) <= nu(S - v), so
    adding the edge bit (0 or 1) in place of 1 takes the same maximum. S is
    independent iff its rows meet S only on the diagonal, and dominates iff
    the union of its rows covers every vertex."""
    C, n, _ = closed.shape
    nu = np.zeros((1 << n, C), dtype=np.int16)
    alpha = np.zeros((C,), dtype=np.int16)
    gamma = np.full((C,), n, dtype=np.int16)
    for s in range(1, 1 << n):
        members = [v for v in range(n) if s >> v & 1]
        v, rest, size = members[0], s & (s - 1), np.int16(len(members))
        for u in members[1:]:
            np.maximum(nu[s], nu[rest ^ 1 << u] + closed[:, v, u], out=nu[s])
        np.maximum(nu[s], nu[rest], out=nu[s])
        rows = closed[:, members, :]
        np.maximum(alpha, (rows[:, :, members].sum(axis=(1, 2)) == size) * size, out=alpha)
        gamma[rows.any(axis=1).all(axis=1) & (gamma > size)] = size
    return nu[-1].copy(), alpha, gamma


def sweep_data(n: int) -> SweepData:
    """Cached class map of the graphs on n vertices."""
    if n not in _DATA:
        if not 1 <= n <= verify.EXHAUSTIVE_LIMIT:
            raise ValueError(f"sweep tables support 1 <= n <= {verify.EXHAUSTIVE_LIMIT}, got {n}")
        _DATA[n] = SweepData(n, *class_map(n))
    return _DATA[n]


# -- exact count tables --------------------------------------------------------------
#
# Both kernels below do integer arithmetic in float64, which is exact only
# while every value formed, partial sums included, stays below 2^53 in
# magnitude. Each asserts a bound on that before it starts and raises
# ArithmeticError, never truncates, when a bound or a run-time check fails.

_FLOAT_EXACT = 2**53


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ArithmeticError(message)


def char_poly_batch(A: np.ndarray) -> np.ndarray:
    """Coefficients c_0..c_n (ascending, c_n = 1) of det(xI - A) for a stack
    of integer matrices of shape (B, n, n); returns (B, n+1) int32.

    Faddeev-LeVerrier: M_1 = I, c_{n-k} = -tr(A M_k)/k, M_{k+1} = A M_k +
    c_{n-k} I. With r >= 1 bounding every absolute row sum of A, every
    eigenvalue has modulus at most r, so |c_{n-i}| <= C(n,i) r^i, entries of
    M_k are at most 2^n r^(k-1), and every partial sum of A M_k and of its
    trace is at most n 2^n r^n. For Q(G), r <= 2n - 2, which keeps that
    below 2^53 for n <= 9. Every trace must divide exactly by k and every
    coefficient must fit int32.
    """
    B, n, _ = A.shape
    coeffs = np.zeros((B, n + 1), dtype=np.float64)
    coeffs[:, n] = 1.0
    if B and n:
        r = max(1.0, float(np.abs(A).sum(axis=2).max()))
        _require(n * 2.0**n * r**n < _FLOAT_EXACT, f"order {n} with row sums up to {r:g} exceeds 2^53")
        diag = np.arange(n)
        M = np.broadcast_to(np.eye(n), A.shape)
        for k in range(1, n + 1):
            if k < n:
                AM = A @ M
                trace = np.einsum("bii->b", AM)
            else:
                trace = np.einsum("bij,bji->b", A, M)
            _require(not np.fmod(trace, k).any(), f"a trace of A M_{k} is not divisible by {k}")
            c = -trace / k
            coeffs[:, n - k] = c
            if k < n:
                AM[:, diag, diag] += c[:, None]
                M = AM
        _require(float(np.abs(coeffs).max()) < 2**31, "a coefficient does not fit int32")
    return coeffs.astype(np.int32)


def _taylor_shift(n: int, t: Fraction) -> list[list[int]]:
    """T with (p @ T)_j = (-1)^j s_j, where s(y) = b^n p((y + a)/b) and t = a/b."""
    a, b = t.numerator, t.denominator
    return [
        [(-1) ** j * comb(k, j) * a ** (k - j) * b ** (n - k) if j <= k else 0 for j in range(n + 1)]
        for k in range(n + 1)
    ]


def descartes_counts(poly: np.ndarray, threshold) -> tuple[np.ndarray, np.ndarray]:
    """(count below, count at most) threshold t of the roots of each row of
    poly, an (N, n+1) array of nonzero integer polynomials (ascending) whose
    roots are all real; returns two (N,) int16 arrays.

    s(y) = b^n p((y + a)/b), t = a/b, has a root y < 0 exactly where p has a
    root below t. Descartes' rule is exact for real-rooted polynomials, so
    the count below t is the number of sign variations in the coefficients
    of s(-y), zeros skipped, and the multiplicity of t is the number of
    zero coefficients before the first nonzero one. Every partial sum of the
    shift is bounded by sum_k max|p_k| |T_kj| before it runs.
    """
    t = Fraction(threshold)
    N, m = poly.shape
    T = _taylor_shift(m - 1, t)
    _require(max(abs(x) for row in T for x in row) < _FLOAT_EXACT, f"Taylor shift to {t} exceeds 2^53")
    part = poly.astype(np.float64)
    pmax = [int(v) for v in np.abs(part).max(axis=0, initial=0)]
    bound = max(sum(pmax[k] * abs(T[k][j]) for k in range(m)) for j in range(m))
    _require(bound < _FLOAT_EXACT, f"Taylor shift to {t} exceeds 2^53")
    signs = np.sign(part @ np.array(T, dtype=np.float64))
    nonzero = signs != 0
    lt = np.zeros((N,), dtype=np.int16)
    last = signs[:, 0]
    for j in range(1, m):
        lt += last * signs[:, j] < 0
        last = np.where(nonzero[:, j], signs[:, j], last)
    return lt, lt + nonzero.argmax(axis=1).astype(np.int16)


def counts_pair(data: SweepData, threshold) -> tuple[np.ndarray, np.ndarray]:
    """(count-below, count-at-most) for every labeled mask at the threshold; exact.

    Both come from the representatives' table by Descartes' rule
    (``SweepTable.counts``), with no floating comparison, and are gathered
    to the labeled masks through the class map. Cached in data.counts as
    int8 arrays: a count lies in 0..n.
    """
    t = Fraction(threshold)
    if t not in data.counts:
        _require(data.n <= np.iinfo(np.int8).max, f"counts of order {data.n} do not fit int8")
        data.counts[t] = tuple(c.astype(np.int8)[data.class_of] for c in data.table.counts(t))
    return data.counts[t]


def inband_flags(data: SweepData, threshold) -> np.ndarray:
    """Per labeled mask: whether an eigenvalue of its class lies within
    GUARD_BAND of the threshold."""
    tf = float(Fraction(threshold))
    vals = data.table.vals
    near = ((vals > tf - GUARD_BAND) & (vals < tf + GUARD_BAND)).any(axis=1)
    return near[data.class_of]


# -- the statements' table over a stack of graphs --------------------------------------


class SweepTable(verify.AdjacencyTable):
    """The statements' table (the contract is in verify) over graphs of order
    n <= 9. Each column the shell does not hold comes on first use from one
    stacked kernel over the whole stack; the char polys are solved per chunk.
    Counts come from Descartes' rule on the table's own char polys, cached
    per threshold (``counts``), int16; count_source(t) -> (lt, le) may take
    their place (the representatives' table also fills counts_pair's
    labeled cache)."""

    def __init__(self, n: int, adj: np.ndarray, count_source=None):
        if n > 9:
            raise ValueError(f"sweep tables hold graphs of order n <= 9, got {n}")
        super().__init__(n, adj)
        self._counts: dict[Fraction, tuple[np.ndarray, np.ndarray]] = {}
        self._source = count_source  # a bound self.counts here would keep the table in a reference cycle

    _closed = cached_property(lambda self: self.adj | np.eye(self.n, dtype=bool))
    # for n <= 9 every component is a 5-cycle only in the connected 2-regular graphs on 5 vertices
    kc5 = cached_property(lambda self: (self.n == 5) & (self.degs == 2).all(axis=1) & self.conn)
    _reach = cached_property(lambda self: _closure_and_diameter(self._closed))
    conn = cached_property(lambda self: self._reach[0])
    diam = cached_property(lambda self: self._reach[1])
    _subsets = cached_property(lambda self: _subset_scan(self._closed))
    nu = cached_property(lambda self: self._subsets[0])
    alpha = cached_property(lambda self: self._subsets[1])
    gamma = cached_property(lambda self: self._subsets[2])
    ell = cached_property(lambda self: longest_path_lengths(self.adj @ (1 << np.arange(self.n, dtype=np.int64))))
    # through this module's jacobi_batch, the name the benchmark's tracer wraps
    spectra = cached_property(lambda self: self._spectra(jacobi_batch))
    # (count, n+1) int32, det(xI - Q) ascending
    poly = cached_property(lambda self: np.concatenate(self._per_chunk(char_poly_batch)))

    def counts(self, threshold) -> tuple[np.ndarray, np.ndarray]:
        """(count below, count at most) the threshold of every row, (count,) int16 each; exact."""
        t = Fraction(threshold)
        if t not in self._counts:
            self._counts[t] = descartes_counts(self.poly, t)
        return self._counts[t]

    def _count(self, which: int, t, where: np.ndarray | None) -> np.ndarray:
        on = np.ones((self.count,), dtype=bool) if where is None else where
        if not on.any():
            return np.zeros((self.count,), dtype=np.int16)
        source = self._source or self.counts
        if np.ndim(t) == 0:
            return source(t)[which]
        out = np.zeros((self.count,), dtype=np.int16)
        for tv in _distinct(t[on]):
            sel = on & (t == tv)
            out[sel] = source(int(tv))[which][sel]
        return out

    def lt(self, t, where: np.ndarray | None = None) -> np.ndarray:
        return self._count(0, t, where)

    def le(self, t, where: np.ndarray | None = None) -> np.ndarray:
        return self._count(1, t, where)

    def _sub(self, n: int, adj: np.ndarray) -> "SweepTable":
        return SweepTable(n, adj)


@dataclass
class SweepResult:
    theorem_id: str
    n: int
    total: int
    applicable: int
    escalated: int
    failures: list[TheoremReport] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"{self.theorem_id} n={self.n}: {self.applicable}/{self.total} applicable, "
            f"{self.escalated} escalated, {len(self.failures)} failures"
        )


def exhaustive_failures(theorem_id: str, n: int, jobs: int | None = None) -> SweepResult:
    """Evaluate the statement's predicate once per isomorphism class of
    n-vertex graphs, on the representatives. The statement is invariant
    under relabeling, so a class's verdict is that of each of its labeled
    members: applicable counts the labeled members of the applicable
    classes, and every labeled member of a class that does not pass goes to
    the point checker, whose failures alone are reported. jobs is ignored:
    the point checks run in this process."""
    tid = verify.canonical_theorem_id(theorem_id)
    if tid not in verify.GRAPH_THEOREMS:
        raise KeyError(f"{theorem_id!r} is not a per-graph theorem")
    data = sweep_data(n)
    theorem = verify.GRAPH_THEOREMS[tid]
    verdict = theorem.predicate(data.table)
    escalate = np.flatnonzero((verdict.applicable & ~verdict.passed)[data.class_of])
    failures: list[TheoremReport] = []
    for lo in range(0, escalate.size, verify.ROWS):
        for g in graphs_of(mask_adjacency(n, escalate[lo : lo + verify.ROWS])):
            rep = theorem.check(g)
            if rep.applicable and not rep.passed:
                failures.append(rep)
    applicable = int(data.orbit[verdict.applicable].sum())
    return SweepResult(tid, n, data.count, applicable, int(escalate.size), failures)


# -- float-vs-exact agreement (solver oracle) ----------------------------------------


@dataclass
class AgreementResult:
    n: int
    thresholds: list
    checked: int  # labeled (graph, threshold) pairs covered: every labeled graph at every threshold
    inband_pairs: int  # (class, threshold) pairs with an eigenvalue within its certified bound of t
    rechecked: int  # (class, threshold) pairs recounted by exact inertia: all of them
    # (representative mask, threshold, route, (lt, le) by that route, (lt, le) of the count table)
    mismatches: list[tuple[int, str, str, tuple[int, int], tuple[int, int]]]


def eig_inertia_agreement(n: int) -> AgreementResult:
    """Check the exact count tables of every isomorphism class of n-vertex
    graphs against two independent routes, at every integer threshold
    0..2n-2. Where every eigenvalue of a
    representative clears t by its own certified bound (and by the rounding
    of the comparison), its float counts must equal the table's. Exact
    congruence inertia (Bareiss) must equal them at every (class,
    threshold) pair. Any disagreement is a mismatch. The class tables cover
    every labeled graph, so checked counts labeled pairs."""
    data = sweep_data(n)
    tab = data.table
    ths = [Fraction(t) for t in range(2 * n - 1)]
    graphs = graphs_of(tab.adj)
    mismatches = []
    inband_total = 0
    for t in ths:
        lt, le = tab.lt(t), tab.le(t)
        below, clear = certified_below(tab.vals, tab.bound, float(t))
        inband_total += int((~clear).sum())
        for i in np.flatnonzero(clear & ((below != lt) | (below != le))):
            mismatches.append(
                (int(data.reps[i]), str(t), "float", (int(below[i]), int(below[i])), (int(lt[i]), int(le[i])))
            )
        for i, g in enumerate(graphs):
            neg, zero, _ = exact._inertia_int(exact.graph_shift_rows(g, "Q", t.numerator, t.denominator))
            if (neg, neg + zero) != (lt[i], le[i]):
                mismatches.append((int(data.reps[i]), str(t), "inertia", (neg, neg + zero), (int(lt[i]), int(le[i]))))
    return AgreementResult(
        n, [str(t) for t in ths], data.count * len(ths), inband_total, data.reps.size * len(ths), mismatches
    )


# -- auxiliary exhaustive properties ---------------------------------------------------


# the opening bounds: at most one eigenvalue above n-2; off K_n, at least two at or above the minimum degree
INTRO_BOUNDS = {
    "q2<=n-2": CountStatement("q_2 <= n-2", "", (
        Clause(lambda tab: np.ones(tab.count, dtype=bool), "gt", lambda tab: tab.n - 2, "<=", 1, "above_n-2"),)),
    "q2>=delta": CountStatement("q_2 >= delta off K_n", "complete", (
        Clause(lambda tab: tab.mindeg < tab.n - 1, "ge", "mindeg", ">=", 2, "from_delta"),)),
}


def intro_bound_failures(n: int) -> list[tuple[int, str]]:
    """(mask, label) of every labeled graph on n vertices that fails an
    opening bound, those of q2<=n-2 first. Evaluated once per class."""
    if n < 2:
        return []
    data = sweep_data(n)
    return [(int(mask), label) for label, statement in INTRO_BOUNDS.items()
            for mask in np.flatnonzero(~statement(data.table).passed[data.class_of])]
