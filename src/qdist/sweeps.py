"""Exhaustive labeled-graph sweeps at desk scale (n <= 7), vectorized.

One pass over every labeled graph on n vertices, CHUNK matrices at a time,
builds Q(G) once and takes from it two things: the floating spectra
(stacked LAPACK ``eigh`` calls, ``jacobi.jacobi_batch``, each with a
certified eigenvalue error bound) and the integer coefficients of the
characteristic polynomial det(xI - Q) (batched Faddeev-LeVerrier in
float64, exact under asserted bounds). Q(G) is symmetric, so that
polynomial has only real roots and Descartes' rule of signs is exact for
it: the number of eigenvalues below a rational threshold t is the number of
sign variations in the coefficients of the shifted polynomial, and the
multiplicity of t is the order of its zero there. Every eigenvalue count in
the sweeps comes from this one exact kernel. The spectra feed the
interlacing-chain screens, which compare eigenvalues and not counts.
Invariants that admit a subset formulation (matching, independence,
domination) are evaluated exactly for all graphs at once by scanning the
2^n vertex subsets. The point checkers re-verify every graph a screen
rejects, so a reported failure never rests on the vectorized route alone.

Count tables are cached per (order, threshold) and shared across theorems
and with the agreement gate, which compares them against the floats and,
wherever an eigenvalue lies in the 1e-6 guard band (and on a seeded sample
elsewhere), against exact congruence inertia over a process pool.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from multiprocessing import Pool
from typing import Callable, Iterable, Sequence

import numpy as np

from . import exact, verify
from .jacobi import GUARD_BAND, INEQ_SLACK, jacobi_batch
from .verify import TheoremReport, graph_from_mask, mask_pairs

CHUNK = 1 << 12
ESCALATE_CHUNK = 2048


def default_jobs() -> int:
    env = os.environ.get("QDIST_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


# -- per-order sweep tables -------------------------------------------------------


@dataclass
class SweepData:
    n: int
    rows: np.ndarray  # (N, n) uint8 adjacency bitmasks
    vals: np.ndarray  # (N, n) float64, nonincreasing rows
    poly: np.ndarray  # (N, n+1) int32, coefficients c_0..c_n of det(xI - Q), ascending
    degs: np.ndarray  # (N, n) uint8
    conn: np.ndarray  # (N,) bool
    diam: np.ndarray  # (N,) int16; only meaningful where conn
    nu: np.ndarray  # (N,) int16, exact matching number
    alpha: np.ndarray  # (N,) int16, exact independence number
    gamma: np.ndarray  # (N,) int16, exact domination number
    counts: dict[Fraction, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.vals.shape[0]

    @property
    def mindeg(self) -> np.ndarray:
        return self.degs.min(axis=1)

    @property
    def maxdeg(self) -> np.ndarray:
        return self.degs.max(axis=1)


_DATA: dict[int, SweepData] = {}


def _adjacency_rows(n: int, masks: np.ndarray) -> np.ndarray:
    pairs = mask_pairs(n)
    rows = np.zeros((masks.size, n), dtype=np.uint8)
    for k, (u, v) in enumerate(pairs):
        bit = ((masks >> k) & 1).astype(np.uint8)
        rows[:, u] |= bit << v
        rows[:, v] |= bit << u
    return rows


def _spectra_for_masks(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and characteristic-polynomial coefficients of Q(G) for every mask."""
    vals = np.empty((masks.size, n), dtype=np.float64)
    poly = np.empty((masks.size, n + 1), dtype=np.int32)
    pairs = mask_pairs(n)
    for lo in range(0, masks.size, CHUNK):
        hi = min(lo + CHUNK, masks.size)
        sub = masks[lo:hi]
        A = np.zeros((sub.size, n, n), dtype=np.float64)
        for k, (u, v) in enumerate(pairs):
            bit = ((sub >> k) & 1).astype(np.float64)
            A[:, u, v] = bit
            A[:, v, u] = bit
        idx = np.arange(n)
        A[:, idx, idx] = A.sum(axis=2)
        vals[lo:hi], _ = jacobi_batch(A)
        poly[lo:hi] = char_poly_batch(A)
    return vals, poly


def _connectivity_and_diameter(n: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    N = rows.shape[0]
    full = (1 << n) - 1
    ecc = np.zeros((N,), dtype=np.int16)
    reach0 = np.full((N,), 1, dtype=np.uint16)
    for src in range(n):
        reach = np.full((N,), 1 << src, dtype=np.uint16)
        ecc_src = np.zeros((N,), dtype=np.int16)
        for step in range(1, n):
            nxt = reach.copy()
            for u in range(n):
                sel = ((reach >> u) & 1).astype(np.uint16)
                nxt |= rows[:, u].astype(np.uint16) * sel
            changed = nxt != reach
            if not changed.any():
                break
            ecc_src[changed] = step
            reach = nxt
        ecc = np.maximum(ecc, ecc_src)
        if src == 0:
            reach0 = reach
    return reach0 == full, ecc


def _subset_edge_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For every vertex subset: the edge-bit mask of pairs inside it, and its size."""
    pairs = mask_pairs(n)
    sizes = np.zeros(1 << n, dtype=np.uint8)
    inner = np.zeros(1 << n, dtype=np.int64)
    for s in range(1 << n):
        sizes[s] = bin(s).count("1")
        bits = 0
        for k, (u, v) in enumerate(pairs):
            if s >> u & 1 and s >> v & 1:
                bits |= 1 << k
        inner[s] = bits
    return inner, sizes


def _vector_alpha(n: int, masks: np.ndarray) -> np.ndarray:
    """Exact independence numbers: a subset is independent iff the graph has
    no edge bit inside it."""
    inner, sizes = _subset_edge_masks(n)
    alpha = np.zeros((masks.size,), dtype=np.int16)
    for s in range(1, 1 << n):
        ind = (masks & inner[s]) == 0
        np.maximum(alpha, ind * np.int16(sizes[s]), out=alpha)
    return alpha


def _vector_gamma(n: int, rows: np.ndarray) -> np.ndarray:
    """Exact domination numbers: scan subsets by size, union closed neighborhoods."""
    N = rows.shape[0]
    full = np.uint16((1 << n) - 1)
    closed = [rows[:, v].astype(np.uint16) | np.uint16(1 << v) for v in range(n)]
    gamma = np.full((N,), n, dtype=np.int16)
    by_size: dict[int, list[int]] = {}
    for s in range(1, 1 << n):
        by_size.setdefault(bin(s).count("1"), []).append(s)
    undecided = np.ones((N,), dtype=bool)
    for size in range(1, n + 1):
        if not undecided.any():
            break
        for s in by_size.get(size, []):
            cover = np.zeros((N,), dtype=np.uint16)
            for v in range(n):
                if s >> v & 1:
                    cover |= closed[v]
            hit = undecided & (cover == full)
            if hit.any():
                gamma[hit] = size
                undecided &= ~hit
    return gamma


def _all_matchings(n: int) -> list[list[int]]:
    pairs = mask_pairs(n)
    by_size: dict[int, list[int]] = {}

    def rec(start: int, used: int, bits: int, size: int) -> None:
        if size:
            by_size.setdefault(size, []).append(bits)
        for k in range(start, len(pairs)):
            u, v = pairs[k]
            if used >> u & 1 or used >> v & 1:
                continue
            rec(k + 1, used | 1 << u | 1 << v, bits | 1 << k, size + 1)

    rec(0, 0, 0, 0)
    return [by_size.get(s, []) for s in range(1, n // 2 + 1)]


def _vector_nu(n: int, masks: np.ndarray) -> np.ndarray:
    """Exact matching numbers: nu >= k iff some k-matching's edge bits are present."""
    nu = np.zeros((masks.size,), dtype=np.int16)
    for size, group in enumerate(_all_matchings(n), start=1):
        has = np.zeros((masks.size,), dtype=bool)
        for bits in group:
            has |= (masks & bits) == bits
        nu[has] = size
    return nu


def sweep_data(n: int) -> SweepData:
    """Cached tables over all 2^C(n,2) labeled graphs on n vertices."""
    if n not in _DATA:
        if not 1 <= n <= verify.EXHAUSTIVE_LIMIT:
            raise ValueError(f"sweep tables support 1 <= n <= {verify.EXHAUSTIVE_LIMIT}, got {n}")
        nbits = n * (n - 1) // 2
        masks = np.arange(1 << nbits, dtype=np.int64)
        rows = _adjacency_rows(n, masks)
        degs = np.zeros((masks.size, n), dtype=np.uint8)
        for u in range(n):
            r = rows[:, u]
            c = np.zeros_like(r)
            for v in range(n):
                c += (r >> v) & 1
            degs[:, u] = c
        conn, diam = _connectivity_and_diameter(n, rows)
        vals, poly = _spectra_for_masks(n, masks)
        _DATA[n] = SweepData(
            n,
            rows,
            vals,
            poly,
            degs,
            conn,
            diam,
            _vector_nu(n, masks),
            _vector_alpha(n, masks),
            _vector_gamma(n, rows),
        )
    return _DATA[n]


def _masks(data: SweepData) -> np.ndarray:
    return np.arange(data.count, dtype=np.int64)


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
    shift = np.array(T, dtype=np.float64)
    lt = np.empty((N,), dtype=np.int16)
    le = np.empty((N,), dtype=np.int16)
    for lo in range(0, N, CHUNK):
        part = poly[lo : lo + CHUNK].astype(np.float64)
        pmax = [int(v) for v in np.abs(part).max(axis=0)]
        bound = max(sum(pmax[k] * abs(T[k][j]) for k in range(m)) for j in range(m))
        _require(bound < _FLOAT_EXACT, f"Taylor shift to {t} exceeds 2^53")
        signs = np.sign(part @ shift)
        nonzero = signs != 0
        variations = np.zeros((part.shape[0],), dtype=np.int16)
        last = signs[:, 0]
        for j in range(1, m):
            variations += last * signs[:, j] < 0
            last = np.where(nonzero[:, j], signs[:, j], last)
        lt[lo : lo + CHUNK] = variations
        le[lo : lo + CHUNK] = variations + nonzero.argmax(axis=1)
    return lt, le


def counts_pair(data: SweepData, threshold) -> tuple[np.ndarray, np.ndarray]:
    """(count-below, count-at-most) for every mask at the threshold; exact.

    Both come from the characteristic polynomials by Descartes' rule
    (``descartes_counts``), with no floating comparison and no worker
    process. Cached in data.counts as int16 arrays.
    """
    t = Fraction(threshold)
    if t not in data.counts:
        data.counts[t] = descartes_counts(data.poly, t)
    return data.counts[t]


def inband_flags(data: SweepData, threshold) -> np.ndarray:
    tf = float(Fraction(threshold))
    return ((data.vals > tf - GUARD_BAND) & (data.vals < tf + GUARD_BAND)).any(axis=1)


# -- theorem screens -----------------------------------------------------------------
#
# Each screen returns (applicable, verdict) arrays. Verdicts on count-based
# statements are exact (see counts_pair); graphs that fail or that the
# screen cannot certify go to the exact point checkers, whose word is final.


def _screen_matching_upper(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    applicable = data.mindeg >= 1
    lt1, _ = counts_pair(data, 1)
    return applicable, lt1 <= data.nu


def _kc5_flags(data: SweepData) -> np.ndarray:
    flags = np.zeros((data.count,), dtype=bool)
    if data.n == 5:
        flags = (data.degs == 2).all(axis=1) & data.conn
    return flags


def _screen_delta2(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    applicable = (data.mindeg >= 2) & ~_kc5_flags(data)
    lt1, _ = counts_pair(data, 1)
    return applicable, lt1 <= data.nu - 1


def _screen_domination(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    applicable = data.mindeg >= 1
    lt1, _ = counts_pair(data, 1)
    return applicable, lt1 <= data.gamma


def _screen_m02(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    applicable = data.mindeg >= 1
    lt2, _ = counts_pair(data, 2)
    return applicable, lt2 <= data.n - data.nu


def _screen_alpha(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    applicable = np.ones((data.count,), dtype=bool)
    high = np.zeros((data.count,), dtype=np.int16)  # count in [delta, 2n-2]
    low = np.zeros((data.count,), dtype=np.int16)  # count in [0, Delta]
    mindeg = data.mindeg
    maxdeg = data.maxdeg
    for dv in range(0, n):
        sel = mindeg == dv
        if sel.any():
            lt, _ = counts_pair(data, dv)
            high[sel] = n - lt[sel]
        sel = maxdeg == dv
        if sel.any():
            _, le = counts_pair(data, dv)
            low[sel] = le[sel]
    return applicable, (data.alpha <= high) & (data.alpha <= low)


def _screen_longest_path(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    applicable = data.conn.copy()
    _, le2 = counts_pair(data, 2)
    above2 = data.n - le2
    # ell <= n-1 always, so this certifies without computing ell
    return applicable, above2 >= (data.n - 1) // 2


def _screen_diameter_main(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    applicable = data.conn.copy()
    d = data.diam.astype(np.int32)
    lt, _ = counts_pair(data, n - 2)
    ok = lt >= d - 1
    second = applicable & (d >= 3) & (d <= n - 3)
    for dv in range(3, n - 2):
        sel = second & (d == dv)
        if not sel.any():
            continue
        required = dv if dv <= n - 5 else dv - 1
        lt2, _ = counts_pair(data, n - dv + 1)
        sub = ok[sel]
        sub &= lt2[sel] >= required
        ok[sel] = sub
    return applicable, ok


def _screen_diameter3(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    applicable = data.conn & (data.diam == 3) & (np.full(data.count, n >= 7))
    if not applicable.any():
        return applicable, np.ones((data.count,), dtype=bool)
    lt, _ = counts_pair(data, n - 3)
    return applicable, lt >= 2


def _screen_tail_bound(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    applicable = data.conn & (data.mindeg + 2 <= n - 1)
    _, le = counts_pair(data, n - 3)
    above = data.n - le
    return applicable, above <= data.mindeg + 1


def _screen_edge_interlacing(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    masks = _masks(data)
    applicable = masks != 0
    ok = np.ones((data.count,), dtype=bool)
    nbits = n * (n - 1) // 2
    for k in range(nbits):
        gi = np.flatnonzero((masks >> k) & 1)
        hi = gi ^ (1 << k)
        A = data.vals[gi]
        B = data.vals[hi]
        chain = (A + INEQ_SLACK >= B).all(axis=1)
        chain &= (B[:, : n - 1] + INEQ_SLACK >= A[:, 1:]).all(axis=1)
        bad = ~chain
        if bad.any():
            ok[gi[bad]] = False
    for t in range(0, 2 * n - 1):
        lt, _ = counts_pair(data, t)
        for k in range(nbits):
            gi = np.flatnonzero((masks >> k) & 1)
            hi = gi ^ (1 << k)
            diff = lt[hi].astype(np.int32) - lt[gi].astype(np.int32)
            bad = (diff < -1) | (diff > 1)
            if bad.any():
                ok[gi[bad]] = False
    return applicable, ok


def _screen_vertex_deletion(data: SweepData) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    if n < 2:
        return np.zeros((data.count,), dtype=bool), np.ones((data.count,), dtype=bool)
    sub = sweep_data(n - 1)
    masks = _masks(data)
    applicable = np.ones((data.count,), dtype=bool)
    ok = np.ones((data.count,), dtype=bool)
    pairs = mask_pairs(n)
    sub_index = {pq: i for i, pq in enumerate(mask_pairs(n - 1))}
    for v in range(n):
        submask = np.zeros_like(masks)
        for k, (a, b) in enumerate(pairs):
            if v in (a, b):
                continue
            a2 = a - (a > v)
            b2 = b - (b > v)
            submask |= ((masks >> k) & 1) << sub_index[(a2, b2)]
        B = sub.vals[submask]
        ok &= (data.vals[:, 1:] <= B[:, : n - 1] + 1 + INEQ_SLACK).all(axis=1)
    return applicable, ok


_SCREENS: dict[str, Callable[[SweepData], tuple[np.ndarray, np.ndarray]]] = {
    "edge-interlacing": _screen_edge_interlacing,
    "vertex-deletion": _screen_vertex_deletion,
    "matching-upper": _screen_matching_upper,
    "delta2": _screen_delta2,
    "domination-bound": _screen_domination,
    "m02-bound": _screen_m02,
    "alpha-sandwich": _screen_alpha,
    "longest-path": _screen_longest_path,
    "diameter-main": _screen_diameter_main,
    "diameter-3": _screen_diameter3,
    "tail-eigenvalue-bound": _screen_tail_bound,
}


def _pool_map(fn: Callable, tasks: list, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks)


def _chunked(seq, size: int) -> list:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _run_point_checker(args: tuple[str, int, Sequence[int]]) -> list[TheoremReport]:
    tid, n, masks = args
    checker = verify.GRAPH_THEOREMS[tid].check
    out = []
    for mask in masks:
        rep = checker(graph_from_mask(n, int(mask)))
        if rep.applicable and not rep.passed:
            out.append(rep)
    return out


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
    """Screen every labeled n-vertex graph; the point checkers re-verify
    everything the screen cannot certify or marks as failing."""
    tid = verify.canonical_theorem_id(theorem_id)
    if tid not in _SCREENS:
        raise KeyError(f"{theorem_id!r} is not a per-graph theorem")
    jobs = jobs or default_jobs()
    data = sweep_data(n)
    applicable, verdict = _SCREENS[tid](data)
    escalate = np.flatnonzero(applicable & ~verdict)
    tasks = [(tid, n, [int(m) for m in chunk]) for chunk in _chunked(escalate, ESCALATE_CHUNK)]
    failures: list[TheoremReport] = []
    for part in _pool_map(_run_point_checker, tasks, jobs):
        failures.extend(part)
    return SweepResult(tid, n, data.count, int(applicable.sum()), int(escalate.size), failures)


# -- float-vs-exact agreement (solver oracle) ----------------------------------------


AGREEMENT_SAMPLE = 1024  # out-of-band graphs per threshold rechecked by exact inertia


@dataclass
class AgreementResult:
    n: int
    thresholds: list
    checked: int  # (graph, threshold) pairs: every labeled graph at every threshold
    inband_pairs: int
    rechecked: int  # (graph, threshold) pairs recounted by exact inertia
    # (mask, threshold, route, (lt, le) by that route, (lt, le) of the count table)
    mismatches: list[tuple[int, str, str, tuple[int, int], tuple[int, int]]]


def _exact_counts_chunk(args: tuple[int, Sequence[int], int, int]) -> np.ndarray:
    """(lt, le) counts at num/den by exact congruence inertia for each mask;
    returns (len, 2) int16."""
    n, masks, num, den = args
    out = np.zeros((len(masks), 2), dtype=np.int16)
    for i, mask in enumerate(masks):
        neg, zero, _ = exact._inertia_int(exact.q_shift_rows(graph_from_mask(n, int(mask)), num, den))
        out[i] = neg, neg + zero
    return out


def eig_inertia_agreement(n: int, thresholds: Iterable | None = None, jobs: int | None = None) -> AgreementResult:
    """Check the exact count tables of every labeled n-vertex graph against
    two independent routes. The float counts must equal them wherever every
    eigenvalue clears the guard band. Exact congruence inertia (run over the
    process pool) must equal them wherever an eigenvalue lies inside the
    band, and on a seeded sample of AGREEMENT_SAMPLE other graphs per
    threshold. Any disagreement is a mismatch."""
    jobs = jobs or default_jobs()
    data = sweep_data(n)
    if thresholds is None:
        thresholds = sorted({Fraction(0), Fraction(1), Fraction(2), Fraction(n - 3), Fraction(n - 2)})
    ths = [Fraction(t) for t in thresholds]
    rng = np.random.default_rng(n)
    mismatches = []
    inband_total = 0
    tasks, picks = [], []
    for t in ths:
        lt, le = counts_pair(data, t)
        tf = float(t)
        flt = (data.vals < tf - GUARD_BAND).sum(axis=1)
        fle = (data.vals < tf + GUARD_BAND).sum(axis=1)
        inband = inband_flags(data, t)
        inband_total += int(inband.sum())
        for mask in np.flatnonzero(~inband & ((flt != lt) | (fle != le))):
            mismatches.append(
                (int(mask), str(t), "float", (int(flt[mask]), int(fle[mask])), (int(lt[mask]), int(le[mask])))
            )
        sample = rng.permutation(np.flatnonzero(~inband))[:AGREEMENT_SAMPLE]
        for chunk in _chunked(np.concatenate([np.flatnonzero(inband), sample]), CHUNK):
            tasks.append((n, [int(m) for m in chunk], t.numerator, t.denominator))
            picks.append((t, chunk))
    for (t, chunk), got in zip(picks, _pool_map(_exact_counts_chunk, tasks, jobs)):
        lt, le = counts_pair(data, t)
        for i in np.flatnonzero((got[:, 0] != lt[chunk]) | (got[:, 1] != le[chunk])):
            mask = int(chunk[i])
            mismatches.append(
                (mask, str(t), "inertia", (int(got[i, 0]), int(got[i, 1])), (int(lt[mask]), int(le[mask])))
            )
    rechecked = sum(len(chunk) for _, chunk in picks)
    return AgreementResult(n, [str(t) for t in ths], data.count * len(ths), inband_total, rechecked, mismatches)


# -- auxiliary exhaustive properties ---------------------------------------------------


def edge_deletion_count_violations(
    n: int, thresholds: Sequence[int] = (1, 2, 3), jobs: int | None = None
) -> list[tuple[int, int, int]]:
    """Exact check of count(G-e, x) >= count(G, x) - 1 over all graphs and
    edges; returns failing (mask, edge bit, threshold) triples. The counts
    need no worker processes, so jobs is accepted and unused."""
    data = sweep_data(n)
    masks = _masks(data)
    nbits = n * (n - 1) // 2
    bad: list[tuple[int, int, int]] = []
    for t in thresholds:
        lt, _ = counts_pair(data, t)
        for k in range(nbits):
            gi = np.flatnonzero((masks >> k) & 1)
            hi = gi ^ (1 << k)
            viol = lt[hi].astype(np.int32) < lt[gi].astype(np.int32) - 1
            bad.extend((int(m), k, t) for m in gi[viol])
    return bad


def intro_bound_failures(n: int, jobs: int | None = None) -> list[tuple[int, str]]:
    """The two opening bounds: at most one eigenvalue above n-2; and for
    non-complete graphs at least two eigenvalues at or above the minimum
    degree. The counts need no worker processes, so jobs is accepted and unused."""
    data = sweep_data(n)
    failures: list[tuple[int, str]] = []
    if n < 2:
        return failures
    _, le = counts_pair(data, n - 2)
    for mask in np.flatnonzero(data.n - le > 1):
        failures.append((int(mask), "q2<=n-2"))
    full = (1 << n * (n - 1) // 2) - 1
    noncomplete = _masks(data) != full
    at_least = np.ones((data.count,), dtype=bool)
    for dv in range(0, n):
        sel = noncomplete & (data.mindeg == dv)
        if not sel.any():
            continue
        lt, _ = counts_pair(data, dv)
        at_least[sel] = (data.n - lt[sel]) >= 2
    for mask in np.flatnonzero(noncomplete & ~at_least):
        failures.append((int(mask), "q2>=delta"))
    return failures
