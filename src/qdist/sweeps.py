"""Exhaustive sweeps at desk scale (n <= 7), one isomorphism class at a time.

Every statement the sweeps check is invariant under relabeling, so the
tables hold one row per isomorphism class, not per labeled graph. The class
map (``class_map``) assigns every labeled edge mask on n vertices the id of
its class by orbit enumeration: the least mask with no class yet is the
next representative, and its images under all n! vertex permutations are
its orbit. SweepData carries the map (``class_of``), the representatives
and the orbit sizes, and computes every column for the representatives
only. One stack of Q(G) matrices (``q_batch``; sweep_data decodes edge
masks only there and in the class map) gives every column: the degrees
are its diagonal; connectivity and diameter come from Boolean powers of
the closed adjacency pattern (Q != 0) | I, the matching, independence
and domination numbers from one scan of the 2^n vertex subsets over its
rows (``_subset_scan``), and the longest path from the point checkers'
kernel (``invariants.longest_path_lengths``) on its rows. The same stack
gives the floating spectra (stacked LAPACK ``eigh`` calls,
``jacobi.jacobi_batch``, each with a certified eigenvalue error bound)
and the integer coefficients of the characteristic polynomial det(xI - Q)
(batched Faddeev-LeVerrier in float64, exact under asserted bounds). Q(G) is symmetric, so that
polynomial has only real roots and Descartes' rule of signs is exact for
it: the number of eigenvalues below a rational threshold t is the number of
sign variations in the coefficients of the shifted polynomial, and the
multiplicity of t is the order of its zero there. Every eigenvalue count in
the sweeps comes from this one exact kernel. The spectra feed the
interlacing-chain statements, which compare eigenvalues and not counts.

SweepTable presents these tables to the statement predicates of verify,
the same predicates the point checkers evaluate on one graph. Its rows are
labeled masks, read through the class map, so an edited mask (G-e, G-v)
is looked up like any other. exhaustive_failures evaluates a predicate once
per class and hands every labeled member of a class that does not pass to
the point checker, in the same process, so a reported failure never rests
on the vectorized route alone, and totals and failures stay per labeled
graph.

Count tables are cached per (order, threshold) as labeled arrays and shared
across theorems and with the agreement gate, which compares each class's
counts with its float spectrum wherever every eigenvalue clears the
threshold by its certified bound, and with exact congruence inertia at
every (class, threshold) pair.
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
from .jacobi import GUARD_BAND, certified_below, jacobi_batch
from .verify import TheoremReport, graph_from_mask, mask_pairs

CHUNK = 1 << 12  # masks per step of class_map's scan for the next representative


# -- per-order class tables -------------------------------------------------------


@dataclass
class SweepData:
    """Columns over the isomorphism classes of graphs on n vertices (C of
    them), and the map from every labeled edge mask to its class."""

    n: int
    class_of: np.ndarray  # (2^C(n,2),) int32, the class id of every labeled mask
    reps: np.ndarray  # (C,) int64, the least mask of each class, ascending
    orbit: np.ndarray  # (C,) int64, labeled graphs in each class
    vals: np.ndarray  # (C, n) float64, nonincreasing rows
    bound: np.ndarray  # (C,) float64, certified bound on every error of the row of vals
    poly: np.ndarray  # (C, n+1) int32, coefficients c_0..c_n of det(xI - Q), ascending
    degs: np.ndarray  # (C, n) uint8
    conn: np.ndarray  # (C,) bool
    diam: np.ndarray  # (C,) int16; only meaningful where conn
    nu: np.ndarray  # (C,) int16, exact matching number
    alpha: np.ndarray  # (C,) int16, exact independence number
    gamma: np.ndarray  # (C,) int16, exact domination number
    ell: np.ndarray  # (C,) int16, exact longest path length
    # threshold -> (count below, count at most), (2^C(n,2),) int16 each, per labeled mask
    counts: dict[Fraction, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def count(self) -> int:
        """Labeled graphs on n vertices, 2^C(n,2)."""
        return self.class_of.size


_DATA: dict[int, SweepData] = {}


def class_map(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(class_of, reps, orbit) of the labeled graphs on n vertices.

    image[p, k] is the edge bit that vertex permutation p sends edge bit k
    to, so the images of a mask are one OR per edge over a column of image.
    The least mask without a class is the least of its orbit, so it is the
    next representative; its orbit is the set of its n! images, and every
    mask in the orbit gets its class id.
    """
    pairs = mask_pairs(n)
    index = {pq: k for k, pq in enumerate(pairs)}
    image = np.array(
        [[1 << index[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in pairs] for p in permutations(range(n))],
        dtype=np.int64,
    )
    class_of = np.full(1 << len(pairs), -1, dtype=np.int32)
    reps: list[int] = []
    orbit: list[int] = []
    lo = 0
    while lo < class_of.size:
        free = np.flatnonzero(class_of[lo : lo + CHUNK] < 0)
        if not free.size:
            lo += CHUNK
            continue
        rep = lo + int(free[0])
        bits = [k for k in range(len(pairs)) if rep >> k & 1]
        images = np.unique(np.bitwise_or.reduce(image[:, bits], axis=1))
        class_of[images] = len(reps)
        reps.append(rep)
        orbit.append(images.size)
        lo = rep + 1
    return class_of, np.array(reps, dtype=np.int64), np.array(orbit, dtype=np.int64)


def q_batch(n: int, masks: np.ndarray) -> np.ndarray:
    """Q(G) = D + A of the graph of every mask, as a (len(masks), n, n) float64 stack."""
    Q = np.zeros((masks.size, n, n), dtype=np.float64)
    for k, (u, v) in enumerate(mask_pairs(n)):
        bit = ((masks >> k) & 1).astype(np.float64)
        Q[:, u, v] = bit
        Q[:, v, u] = bit
    idx = np.arange(n)
    Q[:, idx, idx] = Q.sum(axis=2)
    return Q


def _closure_and_diameter(closed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From Boolean powers of the closed adjacency pattern (C, n, n): power k
    holds the pairs at distance at most k, and the diameter is the last power
    that reaches a new pair (the largest eccentricity within a component)."""
    n = closed.shape[1]
    reach = np.broadcast_to(np.eye(n, dtype=bool), closed.shape)
    diam = np.zeros((closed.shape[0],), dtype=np.int16)
    for k in range(1, n):
        nxt = reach @ closed
        diam[(nxt != reach).any(axis=(1, 2))] = k
        reach = nxt
    return reach.all(axis=(1, 2)), diam


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
    """Cached class tables of the graphs on n vertices."""
    if n not in _DATA:
        if not 1 <= n <= verify.EXHAUSTIVE_LIMIT:
            raise ValueError(f"sweep tables support 1 <= n <= {verify.EXHAUSTIVE_LIMIT}, got {n}")
        class_of, reps, orbit = class_map(n)
        Q = q_batch(n, reps)
        closed = (Q != 0) | np.eye(n, dtype=bool)  # Q's diagonal is 0 at an isolated vertex
        conn, diam = _closure_and_diameter(closed)
        vals, bound = jacobi_batch(Q)
        _DATA[n] = SweepData(
            n,
            class_of,
            reps,
            orbit,
            vals,
            bound,
            char_poly_batch(Q),
            np.diagonal(Q, axis1=1, axis2=2).astype(np.uint8),
            conn,
            diam,
            *_subset_scan(closed),
            longest_path_lengths((closed & ~np.eye(n, dtype=bool)) @ (1 << np.arange(n, dtype=np.int64))),
        )
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

    Both come from the class polynomials by Descartes' rule
    (``descartes_counts``), with no floating comparison, and are gathered
    to the labeled masks through the class map. Cached in data.counts as
    int16 arrays.
    """
    t = Fraction(threshold)
    if t not in data.counts:
        lt, le = descartes_counts(data.poly, t)
        data.counts[t] = lt[data.class_of], le[data.class_of]
    return data.counts[t]


def inband_flags(data: SweepData, threshold) -> np.ndarray:
    """Per labeled mask: whether an eigenvalue of its class lies within
    GUARD_BAND of the threshold."""
    tf = float(Fraction(threshold))
    near = ((data.vals > tf - GUARD_BAND) & (data.vals < tf + GUARD_BAND)).any(axis=1)
    return near[data.class_of]


# -- the statements' table over the sweep data ---------------------------------------


class SweepTable:
    """The labeled masks of a SweepData as the statement predicates read
    them (the table contract is in verify). Every column is the column of
    the mask's class, read through data.class_of. The row of a labeled
    graph is its edge mask, so the G-e table holds the masks mask ^ (1 << k)
    and the G-v table masks of sweep_data(n-1), each looked up in the class
    map of its order. Counts come from counts_pair."""

    def __init__(self, data: SweepData, masks: np.ndarray):
        self.data, self.masks, self.n, self.count = data, masks, data.n, masks.size

    cls = cached_property(lambda self: self.data.class_of[self.masks])
    mindeg = cached_property(lambda self: self.data.degs[self.cls].min(axis=1).astype(np.int16))
    maxdeg = cached_property(lambda self: self.data.degs[self.cls].max(axis=1).astype(np.int16))
    # for n <= 7 every component is a 5-cycle only in the connected 2-regular graphs on 5 vertices
    kc5 = cached_property(lambda self: (self.n == 5) & (self.data.degs[self.cls] == 2).all(axis=1) & self.conn)
    ell = cached_property(lambda self: self.data.ell[self.cls])
    conn = cached_property(lambda self: self.data.conn[self.cls])
    diam = cached_property(lambda self: self.data.diam[self.cls])
    nu = cached_property(lambda self: self.data.nu[self.cls])
    alpha = cached_property(lambda self: self.data.alpha[self.cls])
    gamma = cached_property(lambda self: self.data.gamma[self.cls])
    vals = cached_property(lambda self: self.data.vals[self.cls])

    def _count(self, which: int, t, where: np.ndarray | None) -> np.ndarray:
        on = np.ones((self.count,), dtype=bool) if where is None else where
        if not on.any():
            return np.zeros((self.count,), dtype=np.int16)
        if np.ndim(t) == 0:
            return counts_pair(self.data, t)[which][self.masks]
        out = np.zeros((self.count,), dtype=np.int16)
        for tv in np.unique(t[on]):
            sel = on & (t == tv)
            out[sel] = counts_pair(self.data, int(tv))[which][self.masks[sel]]
        return out

    def lt(self, t, where: np.ndarray | None = None) -> np.ndarray:
        return self._count(0, t, where)

    def le(self, t, where: np.ndarray | None = None) -> np.ndarray:
        return self._count(1, t, where)

    def without_edges(self) -> tuple[np.ndarray, np.ndarray, "SweepTable"]:
        rows, edges = np.nonzero((self.masks[:, None] >> np.arange(self.n * (self.n - 1) // 2)) & 1)
        return rows, edges, SweepTable(self.data, self.masks[rows] ^ (1 << edges))

    def without_vertices(self) -> "SweepTable":
        n = self.n
        sub_index = {pq: i for i, pq in enumerate(mask_pairs(n - 1))}
        submask = np.zeros((self.count, n), dtype=self.masks.dtype)
        for k, (a, b) in enumerate(mask_pairs(n)):
            bit = (self.masks >> k) & 1
            for v in set(range(n)) - {a, b}:
                submask[:, v] |= bit << sub_index[(a - (a > v), b - (b > v))]
        return SweepTable(sweep_data(n - 1), submask.ravel())


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
    verdict = theorem.predicate(SweepTable(data, data.reps))
    escalate = np.flatnonzero((verdict.applicable & ~verdict.passed)[data.class_of])
    failures: list[TheoremReport] = []
    for mask in escalate:
        rep = theorem.check(graph_from_mask(n, int(mask)))
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
    ths = [Fraction(t) for t in range(2 * n - 1)]
    graphs = [graph_from_mask(n, int(mask)) for mask in data.reps]
    mismatches = []
    inband_total = 0
    for t in ths:
        lt, le = (c[data.reps] for c in counts_pair(data, t))
        below, clear = certified_below(data.vals, data.bound, float(t))
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


def intro_bound_failures(n: int) -> list[tuple[int, str]]:
    """The two opening bounds, per labeled graph: at most one eigenvalue
    above n-2; and for non-complete graphs at least two eigenvalues at or
    above the minimum degree. Evaluated once per class."""
    if n < 2:
        return []
    data = sweep_data(n)
    tab = SweepTable(data, data.reps)
    above = n - tab.le(n - 2) > 1
    noncomplete = tab.masks != (1 << n * (n - 1) // 2) - 1
    below_two = noncomplete & (n - tab.lt(tab.mindeg, noncomplete) < 2)
    return [(int(mask), "q2<=n-2") for mask in np.flatnonzero(above[data.class_of])] + [
        (int(mask), "q2>=delta") for mask in np.flatnonzero(below_two[data.class_of])
    ]
