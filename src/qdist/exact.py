"""Exact integer and rational arithmetic for graph matrices.

Eigenvalue counts come from inertia, computed by fraction-free symmetric
congruence elimination on integer rows (Sylvester's law of inertia makes
the eigenvalue sign counts invariant under congruence, and scaling by a
positive integer changes nothing). That turns "how many eigenvalues of
Q(G) lie below the rational threshold x" into an exact integer
computation, which is the authoritative counter everywhere the theorems
compare counts against integer thresholds.

graph_shift_rows builds the integer rows of Q(G) and L(G) (shifted by a
threshold) that the congruence counter reads. Every float form of either
matrix comes from jacobi.matrix_stack instead. quotient reads the Q-row-sums
of each vertex into the blocks of a partition once, for `qdist quotient`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable

from .graphs import Graph, GraphError


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


# -- partitions and quotient matrices ----------------------------------------


def partition_blocks(n: int, blocks: Iterable[Iterable[int]]) -> list[list[int]]:
    """The blocks, each sorted, checked to split 0..n-1 into nonempty disjoint blocks."""
    out = [sorted(b) for b in blocks]
    seen = 0
    for b in out:
        if not b:
            raise GraphError("partition block is empty")
        for v in b:
            if not 0 <= v < n:
                raise GraphError(f"partition vertex {v} out of range for n={n}")
            if seen >> v & 1:
                raise GraphError(f"vertex {v} appears in two partition blocks")
            seen |= 1 << v
    if seen != (1 << n) - 1:
        raise GraphError("partition does not cover every vertex")
    return out


def quotient(g: Graph, blocks: Iterable[Iterable[int]]) -> tuple[list[list[Fraction]], bool]:
    """The quotient matrix of Q(G) over the partition, and whether the partition is equitable.

    Entry (i, j) averages over u in block i the Q-row-sum of u into block j
    (generally nonsymmetric); equitable means those sums agree within each block.
    """
    blocks = partition_blocks(g.n, blocks)
    masks = [sum(1 << v for v in b) for b in blocks]
    rows, equitable = [], True
    for i, block in enumerate(blocks):
        sums = [[(g.adj[u] & m).bit_count() + (i == j) * g.adj[u].bit_count() for j, m in enumerate(masks)] for u in block]
        rows.append([Fraction(sum(col), len(block)) for col in zip(*sums)])
        equitable = equitable and all(s == sums[0] for s in sums)
    return rows, equitable


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
