"""Floating symmetric eigensolver with an a-posteriori certificate, the
one conversion between Graphs and bool adjacency stacks (adjacency, and its inverse graphs_of), the one
labeled edge-mask codec (edge_pairs states the edge order, mask_adjacency
decodes masks of any width into a stack), and matrix_stack, the one
builder of the float Q(G)/L(G) stacks it solves.

Spectra come from LAPACK's symmetric eigensolver: one stacked
``np.linalg.eigh`` call per batch, which is what the exhaustive small-graph
sweeps use. Every result is then certified from its own eigenvectors. With
R = AV - VΛ and eta = ||VᵀV - I||_F < 1/2, each eigenvalue obeys

    |λ_i(A) - λ̃_i| <= (||R||_F + eta·(max λ̃ - min λ̃)) / (1 - eta).

Proof: take the polar decomposition V = QS, Q orthogonal, S symmetric
positive definite. Then ||S - I||_2 <= ||S² - I||_2 = ||VᵀV - I||_2 <= eta,
and QᵀAQ - Λ = (QᵀR + SΛ - ΛS)S⁻¹. For every scalar c, SΛ - ΛS =
(S - I)(Λ - cI) - (Λ - cI)(S - I); with c the midpoint of the spectrum,
||Λ - cI||_2 = (max λ̃ - min λ̃)/2, so ||SΛ - ΛS||_2 <= eta·(max λ̃ - min λ̃)
and ||S⁻¹||_2 <= 1/(1 - eta) give the fraction above as a bound on
||QᵀAQ - Λ||_2. QᵀAQ has the spectrum of A, so Weyl's inequality bounds
every sorted pair (Kahan's residual bounds, with the loss of orthogonality
paid for).

The rounding made while forming R and VᵀV enters only the reported
bound: with u = 2^-53, γ = (n+2)u / (1 - (n+2)u) and w² = n(1 + eta) >=
||V||_F², the computed ||R||_F and eta are raised by γ·w·(||A||_F +
max|λ̃|) and γ·w² before they enter the fraction, and the result is scaled
by 1 + (n² + 5)u for the rounding of the norms themselves and of the
spread max λ̃ - min λ̃. This margin is a worst case of about
(n+2)(n+2√n)·u·||A||_F: 1.8e-14, 4.8e-14 and 1.6e-13 times ||A||_F at
orders 9, 16 and 32, so it is not held against the tolerance. Acceptance
depends on the computed fraction alone: a result whose eta reaches 1/2,
whose computed fraction exceeds RESIDUAL_RTOL · scale (scale = 1 +
||A||_F), or whose eigenvalue sum drifts from the trace raises
ConvergenceError. Spectrum.residual and the bounds of
``jacobi_batch`` are the rigorous bound, margin included.

The module and its batch entry point ``jacobi_batch`` keep the names of
the cyclic Jacobi solver they replace, because ``sweeps``, ``verify`` and
outside callers import them by those names.

Tolerance ledger: certified eigenvalue error <= 1e-12 * scale plus the
rounding margin, at the orders solved:

  * graph stacks (sweep tables at n <= 9, point tables and samples at
    n <= 16): Q(G) of order n has ||A||_F <= n·sqrt(n - 1) <= 62, so
    under 7e-11;
  * the family grids' quotients (quotients, up to order 32 at
    --family-max 32, where C_32 has only singleton cells): the largest
    ||C||_F is 82.8, at family-counts (32, 3, 2, 1), so under 1e-10;
  * `qdist spectrum` reads a graph of any order n: its bound is
    1e-12 · (1 + ||A||_F) plus the margin above, with ||A||_F <=
    n·sqrt(n - 1).

INEQ_SLACK is the float tolerance of the two interlacing chains only. No
verdict and no gate reads GUARD_BAND (1e-6): only sweeps.inband_flags does,
to report which graphs have an eigenvalue within it of a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph

RESIDUAL_RTOL = 1e-12
INEQ_SLACK = 1e-8
GUARD_BAND = 1e-6
TRACE_TOL = 1e-9
_U = np.finfo(float).eps / 2


class SymmetryError(ValueError):
    """Input matrix is not symmetric within tolerance."""


class ConvergenceError(RuntimeError):
    """Eigensolver result failed its certificate or the trace check."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in nonincreasing order plus a certified bound on each one's error."""

    values: tuple[float, ...]
    residual: float

    def __len__(self) -> int:
        return len(self.values)


def _certified_bounds(
    A: np.ndarray, fro: np.ndarray, lam: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-matrix computed fraction, rigorous bound on max_i |lambda_i(A) - lam_i|,
    and eta (see module docstring); either bound is inf where its eta reaches 1/2."""
    n = A.shape[1]
    g = (n + 2) * _U / (1 - (n + 2) * _U)
    R = A @ V - V * lam[:, None, :]
    G = V.transpose(0, 2, 1) @ V
    G[:, np.arange(n), np.arange(n)] -= 1.0
    eta = np.sqrt((G * G).sum(axis=(1, 2)))
    r = np.sqrt((R * R).sum(axis=(1, 2)))
    lam_max = np.abs(lam).max(axis=1)
    spread = lam.max(axis=1) - lam.min(axis=1)
    w2 = n * (1.0 + eta)
    r_up = r + g * np.sqrt(w2) * (fro + lam_max)
    eta_up = eta + g * w2
    with np.errstate(divide="ignore", invalid="ignore"):
        computed = (r + eta * spread) / (1.0 - eta)
        bound = (r_up + eta_up * spread) / (1.0 - eta_up) * (1 + (n * n + 5) * _U)
    return np.where(eta < 0.5, computed, np.inf), np.where(eta_up < 0.5, bound, np.inf), eta


def jacobi_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (nonincreasing) and certified error bounds for a stack of symmetric matrices.

    mats has shape (B, n, n); returns (values (B, n), bounds (B,)), where
    bounds[b] limits |lambda_i(mats[b]) - values[b, i]| for every i.
    """
    A = np.array(mats, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise SymmetryError(f"expected stacked square matrices, got shape {A.shape}")
    B, n, _ = A.shape
    if n == 0:
        return np.zeros((B, 0)), np.zeros(B)
    fro = np.sqrt((A * A).sum(axis=(1, 2)))
    scale = 1.0 + fro
    asym = np.abs(A - A.transpose(0, 2, 1)).max(axis=(1, 2))
    bad = asym > RESIDUAL_RTOL * scale
    if bad.any():
        raise SymmetryError(f"matrix {int(np.argmax(bad))} asymmetric by {asym.max():.3e}")
    A = 0.5 * (A + A.transpose(0, 2, 1))
    traces = np.einsum("bii->b", A)
    lam, V = np.linalg.eigh(A)
    computed, bounds, eta = _certified_bounds(A, fro, lam, V)
    tol = RESIDUAL_RTOL * scale
    failed = ~(computed <= tol) | ~np.isfinite(bounds)
    if failed.any():
        b = int(np.argmax(failed))
        raise ConvergenceError(
            f"eigenvalue certificate failed for batch index {b}: bound {computed[b]:.3e} "
            f"> {tol[b]:.3e} (eta {eta[b]:.3e})"
        )
    vals = np.ascontiguousarray(lam[:, ::-1])
    drift = np.abs(vals.sum(axis=1) - traces)
    if (drift > TRACE_TOL * n).any():
        raise ConvergenceError(f"eigenvalue sum drifted from trace by {drift.max():.3e}")
    return vals, bounds


def adjacency(n: int, graphs: Sequence[Graph]) -> np.ndarray:
    """The (len(graphs), n, n) bool adjacency stack of graphs of order n, any n."""
    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for g in graphs for row in g.adj)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(graphs), n, width)
    return np.unpackbits(bits, axis=2, count=n, bitorder="little").view(bool)


def graphs_of(adj: np.ndarray) -> list[Graph]:
    """The Graphs of a (count, n, n) bool adjacency stack, any n: the inverse of adjacency."""
    count, n, _ = adj.shape
    width = (n + 7) // 8
    raw = np.packbits(adj, axis=2, bitorder="little").tobytes()
    rows = [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width or 1)]
    return [Graph(n, tuple(rows[i * n : i * n + n])) for i in range(count)]


def edge_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The labeled edge order on n vertices: bit k of an edge mask joins
    u[k] < v[k] of (u, v), row by row, (0,1), (0,2), ..., (n-2,n-1)."""
    return np.triu_indices(n, 1)


def mask_adjacency(n: int, masks: Sequence[int]) -> np.ndarray:
    """The (len(masks), n, n) bool adjacency stack of the labeled edge masks
    on n vertices (edge_pairs order), any n: masks are ints of any width."""
    u, v = edge_pairs(n)
    width = (u.size + 7) // 8
    raw = b"".join(int(m).to_bytes(width, "little") for m in masks)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    adj = np.zeros((len(masks), n, n), dtype=bool)
    adj[:, u, v] = adj[:, v, u] = np.unpackbits(bits, axis=1, count=u.size, bitorder="little").view(bool)
    return adj


def matrix_stack(adj: np.ndarray, matrix: str = "Q") -> np.ndarray:
    """Q(G) = D + A (or L(G) = D - A) of a bool adjacency stack, as a float64
    stack of the same shape, the degrees on the diagonal. Every float Q(G)
    and L(G) comes from here."""
    if matrix not in ("Q", "L"):
        raise ValueError(f"matrix must be 'Q' or 'L', got {matrix!r}")
    M = adj.astype(np.float64) if matrix == "Q" else 0.0 - adj  # 0.0 - False is +0.0, as in the integer rows
    idx = np.arange(adj.shape[1])
    M[:, idx, idx] = adj.sum(axis=2)
    return M


def certified_below(vals: np.ndarray, bounds: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``jacobi_batch``'s (vals, bounds): the number of eigenvalues
    below t (a scalar or one threshold per row), and whether every eigenvalue
    clears t by its certified bound plus the rounding of the comparison.
    Where it clears, that number is a proven count below t, and t is not an
    eigenvalue, so it is also the count at most t."""
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    margin = bounds[:, None] + 4 * np.finfo(float).eps * (np.abs(t) + np.abs(vals))
    clear = (np.abs(vals - t) > margin).all(axis=1)
    return (vals < t).sum(axis=1), clear


def eigenvalues_sym(mat: Sequence[Sequence[float]] | np.ndarray) -> Spectrum:
    """Spectrum of one dense symmetric matrix."""
    A = np.atleast_2d(np.array(mat, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise SymmetryError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        return Spectrum((), 0.0)
    vals, residuals = jacobi_batch(A[None, :, :])
    return Spectrum(tuple(float(v) for v in vals[0]), float(residuals[0]))

