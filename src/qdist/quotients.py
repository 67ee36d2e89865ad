"""Eigenvalue counts of the family grids' members on their twin quotients,
with no member graph built.

Every member of G(n,d,t), G(n,d,r,a) and the cycle is described by its
cells (_family_cells, from the instance's parameters alone): every path
vertex is a cell of its own, and each clique part of k vertices is one cell
(the cycle has only singleton cells). Two cells are joined completely or
not at all, so the partition is equitable: with s the cell sizes and E the
integer cell-edge matrix (E_ij = s_i s_j edges between joined cells i != j,
E_ii = s_i (s_i - 1), twice the inner edges), a vertex of cell i has
b_ij = E_ij / s_i neighbours in cell j and degree delta_i = sum_j b_ij.
With M = Q(G) = D + A (sign 1) or L(G) = D - A (sign -1), the spectrum of M
is the union of two parts (C. Godsil and G. Royle, Algebraic Graph Theory,
Springer 2001, 9.3):

  * the twins: the vertices of a cell share one closed neighbourhood, so
    for u != v in a cell of size k, A(e_u - e_v) = e_v - e_u and e_u - e_v
    is an eigenvector of M for delta - sign. That exact integer counts
    k - 1 times, on the space orthogonal to the vectors constant on cells;
  * the quotient: M maps the cell-constant vectors to themselves, acting as
    B = diag(delta) + sign * diag(s)^-1 E, which is similar to the symmetric
    C = diag(s)^1/2 B diag(s)^-1/2 with C_ii = delta_i + sign * E_ii / s_i,
    an integer, and C_ij = sign * E_ij / sqrt(s_i s_j) = sign * sqrt(E_ij).

The twins are counted in integers. The quotients of one quotient order,
each with the matrices its statement reads, are solved FAMILY_STACK rows at
a time by jacobi_batch. Each off-diagonal entry of the float C is one
correctly rounded square root of an integer and its diagonal is exact, so
the float matrix differs from C by at most u|C| entrywise (u = 2^-53) and
by at most u·||C||_F in norm, and by Weyl's inequality no eigenvalue moves
more. The solver's bound plus 2u·||C||_F, the norm taken of the float
matrix (the doubling covers the rounding of that norm and of the sum),
therefore bounds every error against the exact quotient. A row whose
eigenvalues do not all clear the threshold t by it goes to
exact._inertia_int on the integer form diag(s)·(B - tI) = diag(s·delta -
t·s) + sign * E, which equals diag(s)^1/2 (C - tI) diag(s)^1/2 and so has
the inertia of C - tI. A member and its mirror image (the path read from
the other end) are isomorphic and share one solve. The diameter of a
member is that of its cell graph (a clique cell has inner distance 1).
"""

from __future__ import annotations

import numpy as np

from . import exact
from .invariants import diameter
from .jacobi import certified_below, graphs_of, jacobi_batch

FAMILY_STACK = 32  # rows per stacked quotient solve, so a grid holds no more than one such stack


def _family_cells(theorem_id: str, n: int, *rest: int) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """The cells of one instance's member and the threshold of its counts,
    as (d, joins, t): the path cells 0..d, one per path vertex, then one
    clique cell per join (k, first) of k vertices joined to the path cells
    first, first+1, first+2, the clique cells joined to each other; these
    are the consecutive vertex ranges of graphs.gndt and graphs.gndra. The
    cycle has d = n - 1 and no join; its path is closed."""
    if theorem_id == "cycle-matching":
        return n - 1, (), 1
    if theorem_id == "family-gndra-q5":
        d, rest = n - 3, (rest[0], 1)
        t = 4
    elif theorem_id == "diameter-3-equality":
        d, rest = 3, (2, *rest)
        t = n - 3
    else:  # family-counts, gndt-laplacian-count
        d, rest = rest[0], rest[1:]
        t = n - d + 1
    if len(rest) == 1:  # gndt(n, d, t)
        return d, ((n - d - 1, rest[0] - 2),), t
    r, a = rest  # gndra(n, d, r, a)
    return d, ((a, r - 2), (n - d - 1 - a, r - 1)), t


def _cell_edges(m: int, cells: list, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The integer cell-edge matrices E (len(cells), m, m) and the cell
    sizes s (len(cells), m) of instances with m cells each, given as
    _family_cells gives them; closed joins cell m-1 to cell 0 (the cycle)."""
    d = np.array([c[0] for c in cells])[:, None]
    k = np.arange(m)
    E = np.zeros((len(cells), m, m), dtype=np.int64)
    E[:, k[:-1], k[1:]] = E[:, k[1:], k[:-1]] = k[:-1] < d  # the path
    if closed:
        E[:, 0, m - 1] = E[:, m - 1, 0] = 1
    s = np.ones((len(cells), m), dtype=np.int64)
    row, cell, size, first = np.array(
        [(b, c[0] + 1 + j, size, first) for b, c in enumerate(cells) for j, (size, first) in enumerate(c[1])],
        dtype=np.int64,
    ).reshape(-1, 4).T
    s[row, cell] = size
    clique = np.where(k > d, s, 0)  # the clique cells are one clique
    E += clique[:, :, None] * clique[:, None, :]
    E[:, k, k] -= clique
    for step in range(3):
        E[row, cell, first + step] = E[row, first + step, cell] = size
    return E, s


def _integer_form(E: np.ndarray, s: np.ndarray, sign: int, t: int) -> list[list[int]]:
    """diag(s)·(B - tI) = diag(s·delta - t·s) + sign·E of one member with
    cell-edge matrix E and cell sizes s, for sign 1 (Q) or -1 (L): the
    integer form congruent to C - tI that exact._inertia_int reads."""
    return (sign * E + np.diag(E.sum(axis=1) - t * s)).tolist()


def _quotient_counts(E: np.ndarray, s: np.ndarray, t: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts below and at most t[b] of Q(G) (sign[b] = 1) or L(G) (-1) of
    the members with cell-edge matrices E (B, m, m) and cell sizes s (B, m),
    in one stacked solve: the twins in integers, the quotient certified or,
    where it does not clear, by exact inertia of its integer form."""
    k = np.arange(E.shape[1])
    deg = E.sum(axis=2) // s
    C = np.sqrt(E) * sign[:, None, None]
    C[:, k, k] = deg + sign[:, None] * (E[:, k, k] // s)
    vals, bounds = jacobi_batch(C)
    bounds = bounds + np.finfo(float).eps * np.sqrt((C * C).sum(axis=(1, 2)))
    below, clear = certified_below(vals, bounds, t)
    at = np.zeros_like(below)
    for b in np.flatnonzero(~clear).tolist():
        neg, zero, _ = exact._inertia_int(_integer_form(E[b], s[b], sign[b], t[b]))
        below[b], at[b] = neg, zero
    twin = deg - sign[:, None]
    t = t[:, None]
    return below + ((s - 1) * (twin < t)).sum(axis=1), below + at + ((s - 1) * (twin <= t)).sum(axis=1)


def family_counts(theorem_id: str, params: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The counts of the family instances params (checker arguments, n
    first), in order: the count below the instance's threshold; for
    diameter-3-equality also the count at most it and the member's
    diameter; for gndt-laplacian-count the count of L(G) first, then that
    of Q(G). The members of one quotient order are solved together,
    FAMILY_STACK (member, matrix) rows at a time, a member and its mirror
    image (which maps the join (k, first) to (k, d - 2 - first)) once. A
    failed certificate raises ConvergenceError."""
    signs = (-1, 1) if theorem_id == "gndt-laplacian-count" else (1,)
    k, per = len(signs), FAMILY_STACK // len(signs)
    cells = [_family_cells(theorem_id, *p) for p in params]
    by_order: dict[int, list[int]] = {}
    for i, (d, joins, _) in enumerate(cells):
        by_order.setdefault(d + 1 + len(joins), []).append(i)
    columns = np.zeros((3, len(params)), dtype=np.int64)
    for m, rows in by_order.items():
        images: dict[tuple, list[int]] = {}
        for i in rows:
            d, joins, _ = cells[i]
            mirrored = tuple(sorted((size, d - 2 - first) for size, first in joins))
            images.setdefault(min(tuple(sorted(joins)), mirrored), []).append(i)
        groups = list(images.values())
        for lo in range(0, len(groups), per):
            group = groups[lo : lo + per]
            E, s = _cell_edges(m, [cells[g[0]] for g in group], theorem_id == "cycle-matching")
            t = np.array([cells[g[0]][2] for g in group])
            stacked = np.tile(E, (k, 1, 1)), np.tile(s, (k, 1)), np.tile(t, k), np.repeat(signs, len(group))
            lt, le = _quotient_counts(*stacked)
            counts = np.zeros((3, len(group)), dtype=np.int64)
            counts[:k] = lt.reshape(k, -1)
            if theorem_id == "diameter-3-equality":
                counts[1] = le
                cell_graphs = graphs_of((E > 0) & ~np.eye(m, dtype=bool))
                counts[2] = [max(diameter(g), int(w.max() > 1)) for g, w in zip(cell_graphs, s)]
            for j, g in enumerate(group):
                columns[:, g] = counts[:, j : j + 1]
    width = 3 if theorem_id == "diameter-3-equality" else len(signs)
    return list(zip(*columns[:width].tolist()))
