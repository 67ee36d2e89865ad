"""Reference computations that only the tests read: the textbook closed
forms of C_n, K_n, K_{2,n-2} and K_n minus an edge, the tests' exact
matrix type with its rational inertia, determinants and characteristic
polynomials, the Graph queries only the tests ask (validate, degree,
edge_count, graph_to_json), the G - v edit, and the Weyl and
Cauchy-interlacing inequality checkers. qdist itself never calls them;
the tests hold its results against them."""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import cos, lcm, pi, sqrt

import numpy as np

from qdist.exact import _inertia_int
from qdist.graphs import Graph, GraphError, _bits
from qdist.jacobi import INEQ_SLACK, eigenvalues_sym

# -- exact matrices ------------------------------------------------------------


class MatrixError(ValueError):
    """Malformed matrix input (non-square, asymmetric where symmetry is required)."""


class RationalMatrix:
    """Dense square matrix with exact Fraction entries."""

    __slots__ = ("order", "rows")

    def __init__(self, rows):
        self.rows = [[Fraction(x) for x in row] for row in rows]
        self.order = len(self.rows)
        for row in self.rows:
            if len(row) != self.order:
                raise MatrixError(f"row of length {len(row)} in matrix of order {self.order}")

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows!r})"

    def to_json(self) -> str:
        return json.dumps([[str(x) for x in row] for row in self.rows])


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts of a symmetric matrix: (negative, zero, positive)."""

    n_minus: int
    n_zero: int
    n_plus: int


def _scaled_int_rows(M: RationalMatrix) -> tuple[list[list[int]], int]:
    """Integer rows of den*M, with den the least common denominator of the entries."""
    den = lcm(1, *(x.denominator for row in M.rows for x in row))
    return [[int(x * den) for x in row] for row in M.rows], den


def inertia(M: RationalMatrix) -> Inertia:
    if any(M.rows[i][j] != M.rows[j][i] for i in range(M.order) for j in range(i)):
        raise MatrixError("inertia requires a symmetric matrix")
    return Inertia(*_inertia_int(_scaled_int_rows(M)[0]))


def det(M: RationalMatrix) -> Fraction:
    """Determinant by fraction-free Bareiss elimination on den*M."""
    a, den = _scaled_int_rows(M)
    m, sign, prev = M.order, 1, 1
    for k in range(m - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if a[i][k]), -1)
            if swap < 0:
                return Fraction(0)
            a[k], a[swap], sign = a[swap], a[k], -sign
        p = a[k][k]
        for i in range(k + 1, m):
            c = a[i][k]
            a[i][k + 1 :] = [(p * x - c * y) // prev for x, y in zip(a[i][k + 1 :], a[k][k + 1 :])]
        prev = p
    return Fraction(sign * a[m - 1][m - 1] if m else 1, den**m)


def char_poly(M: RationalMatrix) -> list[Fraction]:
    """Coefficients c0..cm of det(xI - M), ascending degree (cm = 1).

    Faddeev-LeVerrier over Fractions: M_1 = I, c_{m-k} = -tr(M M_k)/k,
    M_{k+1} = M M_k + c_{m-k} I (the recurrence ``sweeps.char_poly_batch``
    runs in float64 on stacks of graph matrices).
    """
    m, A = M.order, M.rows
    coeffs = [Fraction(0)] * m + [Fraction(1)]
    Mk = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for k in range(1, m + 1):
        AM = [[sum(A[i][l] * Mk[l][j] for l in range(m)) for j in range(m)] for i in range(m)]
        c = -sum(AM[i][i] for i in range(m)) / k
        coeffs[m - k] = c
        Mk = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(AM)]
    return coeffs


def poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# -- closed-form spectra -------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """A spectrum as (value, multiplicity) pairs: a Fraction value is exact,
    a float one is irrational."""

    entries: tuple[tuple[Fraction | float, int], ...]

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.entries)

    def float_values(self) -> list[float]:
        return sorted((float(v) for v, mult in self.entries for _ in range(mult)), reverse=True)

    def rational_multiplicities(self) -> dict[Fraction, int]:
        """Total multiplicity of each exact eigenvalue."""
        out: dict[Fraction, int] = {}
        for v, mult in self.entries:
            if isinstance(v, Fraction):
                out[v] = out.get(v, 0) + mult
        return out


def cycle_eigenvalue(n: int, j: int) -> Fraction | float:
    """2 + 2*cos(2*pi*j/n), exact where rational: cos(2pi j/n) is rational
    only when it is 0, +-1/2 or +-1 (Niven)."""
    frac = Fraction(j, n) % 1
    value = {0: 4, Fraction(1, 6): 3, Fraction(1, 4): 2, Fraction(1, 3): 1, Fraction(1, 2): 0}.get(min(frac, 1 - frac))
    return 2.0 + 2.0 * cos(2.0 * pi * j / n) if value is None else Fraction(value)


def cycle_spectrum(n: int) -> ClosedFormSpectrum:
    """Q(C_n): 2 + 2cos(2pi*j/n), j = 0..n-1, grouped by conjugate pairs."""
    pairs = [(0, 1)] + [(j, 1 if 2 * j == n else 2) for j in range(1, n // 2 + 1)]
    return ClosedFormSpectrum(tuple((cycle_eigenvalue(n, j), mult) for j, mult in pairs))


def complete_spectrum(n: int) -> ClosedFormSpectrum:
    """Q(K_n): {2n-2, (n-2)^[n-1]} (single vertex: {0})."""
    if n == 1:
        return ClosedFormSpectrum(((Fraction(0), 1),))
    return ClosedFormSpectrum(((Fraction(2 * n - 2), 1), (Fraction(n - 2), n - 1)))


def k2_bipartite_spectrum(n: int) -> ClosedFormSpectrum:
    """Q(K_{2,n-2}), n >= 4: {n, n-2, 2^[n-3], 0}."""
    return ClosedFormSpectrum(((Fraction(n), 1), (Fraction(n - 2), 1), (Fraction(2), n - 3), (Fraction(0), 1)))


def kn_minus_e_spectrum(n: int) -> ClosedFormSpectrum:
    """Q(K_n minus an edge), n >= 5: {(3n-6 +- sqrt(n^2+4n-12))/2, (n-2)^[n-2]}.
    n^2+4n-12 = (n+2)^2 - 16 is a square k^2 only if (n+2-k)(n+2+k) = 16,
    so only for n <= 3: the pair is irrational."""
    root = sqrt(n * n + 4 * n - 12)
    return ClosedFormSpectrum((((3 * n - 6 + root) / 2, 1), ((3 * n - 6 - root) / 2, 1), (Fraction(n - 2), n - 2)))


# -- graph queries -------------------------------------------------------------


def validate(g: Graph) -> None:
    if g.n < 0 or len(g.adj) != g.n:
        raise GraphError(f"adjacency has {len(g.adj)} rows for n={g.n}")
    for u, row in enumerate(g.adj):
        if row >> g.n:
            raise GraphError(f"row {u} mentions vertices >= n")
        if row & (1 << u):
            raise GraphError(f"self-loop at vertex {u}")
        for v in _bits(row):
            if not g.adj[v] & (1 << u):
                raise GraphError(f"asymmetric adjacency between {u} and {v}")


def degree(g: Graph, u: int) -> int:
    return g.adj[u].bit_count()


def edge_count(g: Graph) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


def graph_to_json(g: Graph) -> str:
    """Adjacency-list JSON export: {"n": ..., "edges": [[u, v], ...]}."""
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges()]})


# -- the G - v edit -----------------------------------------------------------


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph on the given vertex set, relabeled 0..|S|-1 preserving order."""
    vs = sorted(set(vertices))
    if not vs:
        raise GraphError("induced subgraph needs a nonempty vertex set")
    return Graph(len(vs), tuple(sum(1 << i for i, w in enumerate(vs) if g.adj[v] >> w & 1) for v in vs))


def delete_vertex(g: Graph, v: int) -> Graph:
    return Graph(0, ()) if g.n == 1 else induced_subgraph(g, [u for u in range(g.n) if u != v])


# -- matrix inequalities --------------------------------------------------------


def weyl_check(A, B, i: int, j: int, slack: float = INEQ_SLACK) -> tuple[bool, tuple[float, float, float]]:
    """Check rho_{i+j-1}(A+B) <= rho_i(A) + rho_j(B) (1-indexed) with slack.

    Returns the flag and the witness triple (lhs, rho_i(A), rho_j(B)).
    """
    A, B = np.array(A, dtype=float), np.array(B, dtype=float)
    lhs = eigenvalues_sym(A + B).values[i + j - 2]
    ra, rb = eigenvalues_sym(A).values[i - 1], eigenvalues_sym(B).values[j - 1]
    return lhs <= ra + rb + slack, (lhs, ra, rb)


def interlacing_check(M, rows, slack: float = INEQ_SLACK) -> tuple[bool, list[tuple[float, float, float]]]:
    """Cauchy interlacing for the principal submatrix on the given rows.

    For each i, the witness row is (rho_{n-p+i}(M), rho_i(B), rho_i(M)); the
    check passes iff the left value <= middle <= right holds with slack.
    """
    M = np.array(M, dtype=float)
    idx = sorted(set(int(r) for r in rows))
    n, p = M.shape[0], len(idx)
    sm = eigenvalues_sym(M).values
    sb = eigenvalues_sym(M[np.ix_(idx, idx)]).values
    witness = [(sm[n - p + i], sb[i], sm[i]) for i in range(p)]
    return all(lo <= mid + slack and mid <= hi + slack for lo, mid, hi in witness), witness
