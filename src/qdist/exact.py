"""Exact rational symmetric-matrix arithmetic.

Inertia is computed by symmetric congruence elimination on an integer
rescaling of the matrix (Sylvester's law of inertia makes the eigenvalue
sign counts invariant under congruence, and scaling by a positive integer
changes nothing). That turns "how many eigenvalues of Q(G) lie below the
rational threshold x" into an exact integer computation, which is the
authoritative counter everywhere the theorems compare counts against
integer thresholds.

graph_shift_rows builds the integer rows of Q(G) and L(G) (shifted by a
threshold) that the congruence counter reads, and the rational matrices of
spectral convert them. Every float form of either matrix comes from
spectral.graph_stack instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .graphs import Graph, GraphError


class MatrixError(ValueError):
    """Malformed matrix input (non-square, asymmetric where symmetry is required)."""


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts of a symmetric matrix: (negative, zero, positive)."""

    n_minus: int
    n_zero: int
    n_plus: int

    @property
    def order(self) -> int:
        return self.n_minus + self.n_zero + self.n_plus


class RationalMatrix:
    """Dense square matrix with exact Fraction entries."""

    __slots__ = ("order", "rows")

    def __init__(self, rows: Sequence[Sequence[Fraction | int | str]]):
        self.rows = [[Fraction(x) for x in row] for row in rows]
        self.order = len(self.rows)
        for row in self.rows:
            if len(row) != self.order:
                raise MatrixError(f"row of length {len(row)} in matrix of order {self.order}")

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def is_symmetric(self) -> bool:
        m = self.order
        return all(self.rows[i][j] == self.rows[j][i] for i in range(m) for j in range(i + 1, m))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows!r})"

    def to_json(self) -> str:
        import json

        return json.dumps([[str(x) for x in row] for row in self.rows])

    @staticmethod
    def identity(m: int) -> RationalMatrix:
        return RationalMatrix([[1 if i == j else 0 for j in range(m)] for i in range(m)])


def _scaled_int_rows(M: RationalMatrix) -> tuple[list[list[int]], int]:
    """Integer rows of den*M, with den the least common denominator of the entries."""
    den = 1
    for row in M.rows:
        for x in row:
            den = lcm(den, x.denominator)
    return [[int(x * den) for x in row] for row in M.rows], den


def _inertia_int(a: list[list[int]]) -> tuple[int, int, int]:
    """Inertia of a symmetric integer matrix by fraction-free congruence.

    Bareiss-style division by the previous pivot keeps entries at minor size.
    The stored block always equals (positive constant) * sign * (true Schur
    complement); `sign` flips whenever the accumulated scalar factor does.
    Zero-diagonal blocks take a hyperbolic 2x2 pivot contributing one +1 and
    one -1 exactly.
    """
    m = len(a)
    neg = zero = pos = 0
    sign = 1
    prev = 1  # Bareiss divisor: previous pivot as stored, 1 after 2x2 steps
    while m:
        piv = -1
        best = 0
        for i in range(m):
            d = a[i][i]
            if d:
                ad = -d if d < 0 else d
                if piv < 0 or ad < best:
                    piv, best = i, ad
        if piv >= 0:
            if piv:
                a[0], a[piv] = a[piv], a[0]
                for row in a:
                    row[0], row[piv] = row[piv], row[0]
            p = a[0][0]
            if (p > 0) == (sign > 0):
                pos += 1
            else:
                neg += 1
            row0 = a[0]
            nxt = []
            for i in range(1, m):
                ai = a[i]
                c = ai[0]
                nxt.append([(p * ai[j] - c * row0[j]) // prev for j in range(1, m)])
            if prev < 0:
                sign = -sign
            if p < 0:
                sign = -sign
            prev = p
            a = nxt
            m -= 1
        else:
            fi = fj = -1
            for i in range(m):
                ai = a[i]
                for j in range(i + 1, m):
                    if ai[j]:
                        fi, fj = i, j
                        break
                if fi >= 0:
                    break
            if fi < 0:
                zero += m
                break
            # bring the nonzero off-diagonal pair to rows/cols (0, 1);
            # fi < fj, so fj >= 1 and the first swap never touches index fj
            for dst, src in ((0, fi), (1, fj)):
                if dst != src:
                    a[dst], a[src] = a[src], a[dst]
                    for row in a:
                        row[dst], row[src] = row[src], row[dst]
            b = a[0][1]
            pos += 1
            neg += 1
            row0, row1 = a[0], a[1]
            nxt = []
            for i in range(2, m):
                ai = a[i]
                c0, c1 = ai[0], ai[1]
                nxt.append([b * ai[j] - c0 * row1[j] - c1 * row0[j] for j in range(2, m)])
            if b < 0:
                sign = -sign
            a = nxt
            m -= 2
            prev = 1
            # keep entry growth bounded after leaving the Bareiss chain
            g = 0
            for row in a:
                for x in row:
                    g = gcd(g, x)
                    if g == 1:
                        break
                if g == 1:
                    break
            if g > 1:
                a = [[x // g for x in row] for row in a]
    return neg, zero, pos


def inertia(M: RationalMatrix) -> Inertia:
    if not M.is_symmetric():
        raise MatrixError("inertia requires a symmetric matrix")
    neg, zero, pos = _inertia_int(_scaled_int_rows(M)[0])
    return Inertia(neg, zero, pos)


# -- determinants and characteristic polynomials -----------------------------


def _det_int(a: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    m = len(a)
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if a[i][k]), -1)
            if swap < 0:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, m):
            ai = a[i]
            c = ai[k]
            ak = a[k]
            for j in range(k + 1, m):
                ai[j] = (p * ai[j] - c * ak[j]) // prev
            ai[k] = 0
        prev = p
    return sign * a[m - 1][m - 1]


def det(M: RationalMatrix) -> Fraction:
    rows, den = _scaled_int_rows(M)
    return Fraction(_det_int(rows), den**M.order)


def char_poly(M: RationalMatrix) -> list[Fraction]:
    """Coefficients c0..cm of det(xI - M), ascending degree (cm = 1).

    Faddeev-LeVerrier over Fractions: M_1 = I, c_{m-k} = -tr(M M_k)/k,
    M_{k+1} = M M_k + c_{m-k} I (the recurrence ``sweeps.char_poly_batch``
    runs in float64 on stacks of graph matrices).
    """
    m = M.order
    A = M.rows
    coeffs = [Fraction(0)] * m + [Fraction(1)]
    Mk = RationalMatrix.identity(m).rows
    for k in range(1, m + 1):
        AM = [[sum(A[i][l] * Mk[l][j] for l in range(m)) for j in range(m)] for i in range(m)]
        c = -sum(AM[i][i] for i in range(m)) / k
        coeffs[m - k] = c
        Mk = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(AM)]
    return coeffs


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


# -- partitions and quotient matrices ----------------------------------------


@dataclass(frozen=True)
class Partition:
    """Ordered partition of the vertex set into nonempty disjoint blocks."""

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(blocks: Sequence[Sequence[int]]) -> Partition:
        return Partition(tuple(tuple(sorted(b)) for b in blocks))

    def validate(self, n: int) -> None:
        seen = 0
        for b in self.blocks:
            if not b:
                raise GraphError("partition block is empty")
            for v in b:
                if not 0 <= v < n:
                    raise GraphError(f"partition vertex {v} out of range for n={n}")
                if seen & (1 << v):
                    raise GraphError(f"vertex {v} appears in two partition blocks")
                seen |= 1 << v
        if seen != (1 << n) - 1:
            raise GraphError("partition does not cover every vertex")

    def masks(self) -> list[int]:
        return [sum(1 << v for v in b) for b in self.blocks]


def quotient_matrix(g: Graph, partition: Partition) -> RationalMatrix:
    """Block-averaged row sums of the signless Laplacian over the partition.

    Entry (i, j) is the average over u in block i of the Q-row-sum of u into
    block j. Generally nonsymmetric.
    """
    partition.validate(g.n)
    masks = partition.masks()
    m = len(masks)
    rows = []
    for i, bi in enumerate(partition.blocks):
        row = []
        for j in range(m):
            total = 0
            for u in bi:
                total += (g.adj[u] & masks[j]).bit_count()
                if i == j:
                    total += g.adj[u].bit_count()
            row.append(Fraction(total, len(bi)))
        rows.append(row)
    return RationalMatrix(rows)


def is_equitable(g: Graph, partition: Partition) -> bool:
    """True iff every vertex of each block has the same Q-row-sum into each block."""
    partition.validate(g.n)
    masks = partition.masks()
    for i, bi in enumerate(partition.blocks):
        for j, mask in enumerate(masks):
            first = None
            for u in bi:
                s = (g.adj[u] & mask).bit_count()
                if i == j:
                    s += g.adj[u].bit_count()
                if first is None:
                    first = s
                elif s != first:
                    return False
    return True


# -- graph matrices and their eigenvalue counts -------------------------------


def graph_shift_rows(g: Graph, matrix: str = "Q", num: int = 0, den: int = 1) -> list[list[int]]:
    """Integer rows of den*M(G) - num*I, with M(G) the signless Laplacian
    Q(G) = D + A or the Laplacian L(G) = D - A."""
    if matrix not in ("Q", "L"):
        raise ValueError(f"matrix must be 'Q' or 'L', got {matrix!r}")
    off = den if matrix == "Q" else -den
    rows = []
    for u, adj in enumerate(g.adj):
        row = [off if adj >> v & 1 else 0 for v in range(g.n)]
        row[u] = den * adj.bit_count() - num
        rows.append(row)
    return rows


def graph_count_lt(g: Graph, x: Fraction | int, matrix: str = "Q") -> int:
    """Exact count of eigenvalues of Q(G) (or L(G)) strictly below x."""
    x = Fraction(x)
    neg, _, _ = _inertia_int(graph_shift_rows(g, matrix, x.numerator, x.denominator))
    return neg


def graph_count_le(g: Graph, x: Fraction | int, matrix: str = "Q") -> int:
    x = Fraction(x)
    neg, zero, _ = _inertia_int(graph_shift_rows(g, matrix, x.numerator, x.denominator))
    return neg + zero
