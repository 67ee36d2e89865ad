"""Exhaustive labeled-graph sweeps at desk scale (n <= 7), vectorized.

Stacked LAPACK ``eigh`` calls (``jacobi.jacobi_batch``, CHUNK matrices per
call to bound peak memory) compute the floating spectra of every labeled
graph on n vertices, each with a certified eigenvalue error bound of at most
1e-12 * scale. Eigenvalue counts below each needed threshold are then taken
from the floats wherever every eigenvalue clears the 1e-6 guard band (the
certified bound is four decades smaller, so those counts are exact) and
from exact congruence inertia wherever one does not. Invariants that admit
a subset formulation (matching, independence, domination) are evaluated
exactly for all graphs at once by scanning the 2^n vertex subsets. The
resulting verdicts are exact; the point checkers re-verify every reported
failure, so nothing rests on floating comparisons alone.

Count tables are cached per (order, threshold) and shared across theorems
and with the solver-vs-inertia agreement check. Escalation tasks carry only
bitmasks, so worker processes stay cheap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
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
    degs: np.ndarray  # (N, n) uint8
    conn: np.ndarray  # (N,) bool
    diam: np.ndarray  # (N,) int16; only meaningful where conn
    nu: np.ndarray  # (N,) int16, exact matching number
    alpha: np.ndarray  # (N,) int16, exact independence number
    gamma: np.ndarray  # (N,) int16, exact domination number
    counts: dict[Fraction, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    counts_full_exact: set = field(default_factory=set)

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


def _spectra_for_masks(n: int, masks: np.ndarray) -> np.ndarray:
    vals = np.empty((masks.size, n), dtype=np.float64)
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
    return vals


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
        vals = _spectra_for_masks(n, masks)
        _DATA[n] = SweepData(
            n,
            rows,
            vals,
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


def _exact_counts_chunk(args: tuple[int, Sequence[int], Sequence[tuple[int, int]]]) -> np.ndarray:
    """(lt, le) counts for each (mask, threshold); returns (len, k, 2) int16."""
    n, masks, thresholds = args
    out = np.zeros((len(masks), len(thresholds), 2), dtype=np.int16)
    for i, mask in enumerate(masks):
        g = graph_from_mask(n, int(mask))
        for j, (num, den) in enumerate(thresholds):
            neg, zero, _ = exact._inertia_int(exact.q_shift_rows(g, num, den))
            out[i, j, 0] = neg
            out[i, j, 1] = neg + zero
    return out


def _pool_map(fn: Callable, tasks: list, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks)


def _chunked(seq, size: int) -> list:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def _exact_counts_for(n: int, masks: Sequence[int], threshold: Fraction, jobs: int) -> np.ndarray:
    tasks = [
        (n, [int(m) for m in chunk], [(threshold.numerator, threshold.denominator)])
        for chunk in _chunked(masks, 4096)
    ]
    parts = _pool_map(_exact_counts_chunk, tasks, jobs)
    if not parts:
        return np.zeros((0, 1, 2), dtype=np.int16).reshape(0, 2)
    return np.concatenate(parts)[:, 0, :]


def counts_pair(data: SweepData, threshold, jobs: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(count-below, count-at-most) for every mask at the threshold; exact.

    Float counts are used where certified by the guard band; masks with an
    eigenvalue inside the band are resolved by exact inertia. Cached.
    """
    t = Fraction(threshold)
    if t in data.counts:
        return data.counts[t]
    jobs = jobs or default_jobs()
    tf = float(t)
    lt = (data.vals < tf - GUARD_BAND).sum(axis=1).astype(np.int16)
    le = (data.vals < tf + GUARD_BAND).sum(axis=1).astype(np.int16)
    inband = ((data.vals > tf - GUARD_BAND) & (data.vals < tf + GUARD_BAND)).any(axis=1)
    idx = np.flatnonzero(inband)
    if idx.size:
        resolved = _exact_counts_for(data.n, idx, t, jobs)
        lt[idx] = resolved[:, 0]
        le[idx] = resolved[:, 1]
    data.counts[t] = (lt, le)
    return data.counts[t]


def inband_flags(data: SweepData, threshold) -> np.ndarray:
    tf = float(Fraction(threshold))
    return ((data.vals > tf - GUARD_BAND) & (data.vals < tf + GUARD_BAND)).any(axis=1)


# -- theorem screens -----------------------------------------------------------------
#
# Each screen returns (applicable, verdict) arrays. Verdicts on count-based
# statements are exact (see counts_pair); graphs that fail or that the
# screen cannot certify go to the exact point checkers, whose word is final.


def _screen_matching_upper(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    applicable = data.mindeg >= 1
    lt1, _ = counts_pair(data, 1, jobs)
    return applicable, lt1 <= data.nu


def _kc5_flags(data: SweepData) -> np.ndarray:
    flags = np.zeros((data.count,), dtype=bool)
    if data.n == 5:
        flags = (data.degs == 2).all(axis=1) & data.conn
    return flags


def _screen_delta2(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    applicable = (data.mindeg >= 2) & ~_kc5_flags(data)
    lt1, _ = counts_pair(data, 1, jobs)
    return applicable, lt1 <= data.nu - 1


def _screen_domination(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    applicable = data.mindeg >= 1
    lt1, _ = counts_pair(data, 1, jobs)
    return applicable, lt1 <= data.gamma


def _screen_m02(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    applicable = data.mindeg >= 1
    lt2, _ = counts_pair(data, 2, jobs)
    return applicable, lt2 <= data.n - data.nu


def _screen_alpha(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    applicable = np.ones((data.count,), dtype=bool)
    high = np.zeros((data.count,), dtype=np.int16)  # count in [delta, 2n-2]
    low = np.zeros((data.count,), dtype=np.int16)  # count in [0, Delta]
    mindeg = data.mindeg
    maxdeg = data.maxdeg
    for dv in range(0, n):
        sel = mindeg == dv
        if sel.any():
            lt, _ = counts_pair(data, dv, jobs)
            high[sel] = n - lt[sel]
        sel = maxdeg == dv
        if sel.any():
            _, le = counts_pair(data, dv, jobs)
            low[sel] = le[sel]
    return applicable, (data.alpha <= high) & (data.alpha <= low)


def _screen_longest_path(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    applicable = data.conn.copy()
    _, le2 = counts_pair(data, 2, jobs)
    above2 = data.n - le2
    # ell <= n-1 always, so this certifies without computing ell
    return applicable, above2 >= (data.n - 1) // 2


def _screen_diameter_main(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    applicable = data.conn.copy()
    d = data.diam.astype(np.int32)
    lt, _ = counts_pair(data, n - 2, jobs)
    ok = lt >= d - 1
    second = applicable & (d >= 3) & (d <= n - 3)
    for dv in range(3, n - 2):
        sel = second & (d == dv)
        if not sel.any():
            continue
        required = dv if dv <= n - 5 else dv - 1
        lt2, _ = counts_pair(data, n - dv + 1, jobs)
        sub = ok[sel]
        sub &= lt2[sel] >= required
        ok[sel] = sub
    return applicable, ok


def _screen_diameter3(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    applicable = data.conn & (data.diam == 3) & (np.full(data.count, n >= 7))
    if not applicable.any():
        return applicable, np.ones((data.count,), dtype=bool)
    lt, _ = counts_pair(data, n - 3, jobs)
    return applicable, lt >= 2


def _screen_tail_bound(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
    n = data.n
    applicable = data.conn & (data.mindeg + 2 <= n - 1)
    _, le = counts_pair(data, n - 3, jobs)
    above = data.n - le
    return applicable, above <= data.mindeg + 1


def _screen_edge_interlacing(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
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
        lt, _ = counts_pair(data, t, jobs)
        for k in range(nbits):
            gi = np.flatnonzero((masks >> k) & 1)
            hi = gi ^ (1 << k)
            diff = lt[hi].astype(np.int32) - lt[gi].astype(np.int32)
            bad = (diff < -1) | (diff > 1)
            if bad.any():
                ok[gi[bad]] = False
    return applicable, ok


def _screen_vertex_deletion(data: SweepData, jobs: int) -> tuple[np.ndarray, np.ndarray]:
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


_SCREENS: dict[str, Callable[[SweepData, int], tuple[np.ndarray, np.ndarray]]] = {
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
    applicable, verdict = _SCREENS[tid](data, jobs)
    escalate = np.flatnonzero(applicable & ~verdict)
    tasks = [(tid, n, [int(m) for m in chunk]) for chunk in _chunked(escalate, ESCALATE_CHUNK)]
    failures: list[TheoremReport] = []
    for part in _pool_map(_run_point_checker, tasks, jobs):
        failures.extend(part)
    return SweepResult(tid, n, data.count, int(applicable.sum()), int(escalate.size), failures)


# -- float-vs-exact agreement (solver oracle) ----------------------------------------


@dataclass
class AgreementResult:
    n: int
    thresholds: list
    checked: int
    inband_pairs: int
    mismatches: list[tuple[int, str, int, int]]  # (mask, threshold, float count, exact count)


def eig_inertia_agreement(n: int, thresholds: Iterable | None = None, jobs: int | None = None) -> AgreementResult:
    """Compare float-derived below-threshold counts against exact inertia on
    every labeled n-vertex graph; disagreement is only tolerated (and the
    exact value authoritative) when an eigenvalue sits inside the guard band."""
    jobs = jobs or default_jobs()
    data = sweep_data(n)
    if thresholds is None:
        thresholds = sorted({Fraction(0), Fraction(1), Fraction(2), Fraction(n - 3), Fraction(n - 2)})
    ths = [Fraction(t) for t in thresholds]
    masks = _masks(data)
    todo = [t for t in ths if t not in data.counts_full_exact]
    exact_cols: dict[Fraction, np.ndarray] = {}
    if todo:
        tasks = [
            (n, [int(m) for m in chunk], [(t.numerator, t.denominator) for t in todo])
            for chunk in _chunked(masks, 8192)
        ]
        parts = _pool_map(_exact_counts_chunk, tasks, jobs)
        stacked = np.concatenate(parts) if parts else np.zeros((0, len(todo), 2), dtype=np.int16)
        for j, t in enumerate(todo):
            exact_cols[t] = stacked[:, j, :]
            data.counts[t] = (stacked[:, j, 0].copy(), stacked[:, j, 1].copy())
            data.counts_full_exact.add(t)
    mismatches = []
    inband_total = 0
    for t in ths:
        tf = float(t)
        fc = (data.vals < tf - GUARD_BAND).sum(axis=1).astype(np.int16)
        inband = inband_flags(data, t)
        inband_total += int(inband.sum())
        exact_lt = exact_cols[t][:, 0] if t in exact_cols else data.counts[t][0]
        bad = np.flatnonzero(~inband & (fc != exact_lt))
        for mask in bad:
            mismatches.append((int(mask), str(t), int(fc[mask]), int(exact_lt[mask])))
    return AgreementResult(n, [str(t) for t in ths], data.count * len(ths), inband_total, mismatches)


# -- auxiliary exhaustive properties ---------------------------------------------------


def edge_deletion_count_violations(
    n: int, thresholds: Sequence[int] = (1, 2, 3), jobs: int | None = None
) -> list[tuple[int, int, int]]:
    """Exact check of count(G-e, x) >= count(G, x) - 1 over all graphs and
    edges; returns failing (mask, edge bit, threshold) triples."""
    jobs = jobs or default_jobs()
    data = sweep_data(n)
    masks = _masks(data)
    nbits = n * (n - 1) // 2
    bad: list[tuple[int, int, int]] = []
    for t in thresholds:
        lt, _ = counts_pair(data, t, jobs)
        for k in range(nbits):
            gi = np.flatnonzero((masks >> k) & 1)
            hi = gi ^ (1 << k)
            viol = lt[hi].astype(np.int32) < lt[gi].astype(np.int32) - 1
            bad.extend((int(m), k, t) for m in gi[viol])
    return bad


def intro_bound_failures(n: int, jobs: int | None = None) -> list[tuple[int, str]]:
    """The two opening bounds: at most one eigenvalue above n-2; and for
    non-complete graphs at least two eigenvalues at or above the minimum degree."""
    jobs = jobs or default_jobs()
    data = sweep_data(n)
    failures: list[tuple[int, str]] = []
    if n < 2:
        return failures
    _, le = counts_pair(data, n - 2, jobs)
    for mask in np.flatnonzero(data.n - le > 1):
        failures.append((int(mask), "q2<=n-2"))
    full = (1 << n * (n - 1) // 2) - 1
    noncomplete = _masks(data) != full
    at_least = np.ones((data.count,), dtype=bool)
    for dv in range(0, n):
        sel = noncomplete & (data.mindeg == dv)
        if not sel.any():
            continue
        lt, _ = counts_pair(data, dv, jobs)
        at_least[sel] = (data.n - lt[sel]) >= 2
    for mask in np.flatnonzero(noncomplete & ~at_least):
        failures.append((int(mask), "q2>=delta"))
    return failures
