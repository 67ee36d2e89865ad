"""Eigenvalue counts, diameters and spectra of members of the cycle,
G(n,d,t) and G(n,d,r,a) on their twin quotients, with no member graph
built. A member is (kind, graphs.FAMILIES parameters); its threshold and
matrices are the caller's, so no statement is named here.

A member is described by its cells (_cells, from its kind and parameters
alone): every path vertex is a cell of its own, and each clique part of k
vertices, a join of graphs.clique_joins, is one cell (the cycle has only
singleton cells). Two cells are joined completely or not at all, so the
partition is equitable: with s the cell sizes and E the
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
each with every matrix asked for, are solved FAMILY_STACK rows at
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
family_spectra reads the same solve as a member's Q(G) spectrum: its exact
twin values and the quotient's floats, each within that bound.
"""

from __future__ import annotations

import numpy as np

from . import exact
from .graphs import clique_joins
from .invariants import diameter
from .jacobi import Spectrum, certified_below, graphs_of, jacobi_batch

FAMILY_STACK = 32  # rows per stacked quotient solve, so a grid holds no more than one such stack


def _cells(kind: str, params: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...], bool]:
    """The cells of a member (kind, graphs.FAMILIES parameters) as (d, joins,
    closed): the path cells 0..d, then one clique cell per join (k, first)
    of graphs.clique_joins, the clique cells joined to each other. A cycle
    has d = n - 1, no join and a closed path (cell d joined to cell 0)."""
    if kind == "cycle":
        return params[0] - 1, (), True
    return params[1], clique_joins(*params), False


def _cell_edges(m: int, cells: list) -> tuple[np.ndarray, np.ndarray]:
    """The integer cell-edge matrices E (len(cells), m, m) and the cell
    sizes s (len(cells), m) of members with m cells each, given as _cells
    gives them; a closed member has cell m-1 joined to cell 0."""
    d = np.array([c[0] for c in cells])[:, None]
    k = np.arange(m)
    E = np.zeros((len(cells), m, m), dtype=np.int64)
    E[:, k[:-1], k[1:]] = E[:, k[1:], k[:-1]] = k[:-1] < d  # the path
    closed = np.array([c[2] for c in cells], dtype=bool)
    E[closed, 0, m - 1] = E[closed, m - 1, 0] = 1
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


def _by_order(cells: list) -> dict[int, list[int]]:
    """The indices of the members with cells as _cells gives them, by quotient order."""
    by_order: dict[int, list[int]] = {}
    for i, (d, joins, _) in enumerate(cells):
        by_order.setdefault(d + 1 + len(joins), []).append(i)
    return by_order


def _quotient_spectra(E: np.ndarray, s: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of Q(G) (sign[b] = 1) or L(G) (-1) of the members with cell-edge
    matrices E (B, m, m) and cell sizes s (B, m): the twin value of each
    cell (B, m), an eigenvalue k - 1 times for a cell of size k, and the
    quotient's eigenvalues (B, m) from one stacked jacobi_batch of the
    float C, with bounds (B,) against the exact C."""
    k = np.arange(E.shape[1])
    deg = E.sum(axis=2) // s
    C = np.sqrt(E) * sign[:, None, None]
    C[:, k, k] = deg + sign[:, None] * (E[:, k, k] // s)
    vals, bounds = jacobi_batch(C)
    return deg - sign[:, None], vals, bounds + np.finfo(float).eps * np.sqrt((C * C).sum(axis=(1, 2)))


def _quotient_counts(E: np.ndarray, s: np.ndarray, t: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts below and at most t[b] of Q(G) (sign[b] = 1) or L(G) (-1) of
    the members with cell-edge matrices E (B, m, m) and cell sizes s (B, m),
    in one stacked solve: the twins in integers, the quotient certified or,
    where it does not clear, by exact inertia of its integer form."""
    twin, vals, bounds = _quotient_spectra(E, s, sign)
    below, clear = certified_below(vals, bounds, t)
    at = np.zeros_like(below)
    for b in np.flatnonzero(~clear).tolist():
        neg, zero, _ = exact._inertia_int(_integer_form(E[b], s[b], sign[b], t[b]))
        below[b], at[b] = neg, zero
    t = t[:, None]
    return below + ((s - 1) * (twin < t)).sum(axis=1), below + at + ((s - 1) * (twin <= t)).sum(axis=1)


def family_spectra(members: list[tuple[str, tuple[int, ...]]]) -> list[Spectrum]:
    """The Q(G) spectra of the members (kind, graphs.FAMILIES parameters),
    in order: the exact twin values and the quotient's floats,
    nonincreasing, with the quotient's bound. The members of one quotient
    order are solved in one stack."""
    cells = [_cells(*member) for member in members]
    spectra: list[Spectrum] = [Spectrum((), 0.0)] * len(members)
    for m, rows in _by_order(cells).items():
        E, s = _cell_edges(m, [cells[i] for i in rows])
        twin, vals, bounds = _quotient_spectra(E, s, np.ones(len(rows), dtype=np.int64))
        for j, i in enumerate(rows):
            values = np.concatenate([vals[j], np.repeat(twin[j], s[j] - 1)]).tolist()
            spectra[i] = Spectrum(tuple(sorted(values, reverse=True)), float(bounds[j]))
    return spectra


def family_counts(members: list, thresholds: list[int], matrices: tuple[str, ...]) -> list[tuple[tuple[int, int], ...]]:
    """Of each member (kind, graphs.FAMILIES parameters), in order, the
    counts (below, at most) its threshold of each of the matrices ("Q" or
    "L"), in order. The members of one quotient order are solved together,
    FAMILY_STACK (member, matrix) rows at a time, a member and its mirror
    image (which maps the join (k, first) to (k, d - 2 - first)) once. A
    failed certificate raises ConvergenceError."""
    signs = [{"Q": 1, "L": -1}[x] for x in matrices]  # M = D + sign * A
    k, per = len(signs), FAMILY_STACK // len(signs)
    cells = [_cells(*member) for member in members]
    counts: list = [()] * len(members)
    for m, rows in _by_order(cells).items():
        images: dict[tuple, list[int]] = {}
        for i in rows:
            d, joins, closed = cells[i]
            mirrored = tuple(sorted((size, d - 2 - first) for size, first in joins))
            images.setdefault((min(tuple(sorted(joins)), mirrored), closed, thresholds[i]), []).append(i)
        groups = list(images.values())
        for lo in range(0, len(groups), per):
            group = groups[lo : lo + per]
            E, s = _cell_edges(m, [cells[g[0]] for g in group])
            t = np.array([thresholds[g[0]] for g in group])
            stacked = np.tile(E, (k, 1, 1)), np.tile(s, (k, 1)), np.tile(t, k), np.repeat(signs, len(group))
            pairs = list(zip(*(c.tolist() for c in _quotient_counts(*stacked))))
            for j, g in enumerate(group):
                for i in g:
                    counts[i] = tuple(pairs[j :: len(group)])
    return counts


def family_diameters(members: list[tuple[str, tuple[int, ...]]]) -> list[int]:
    """The diameter of each member (kind, graphs.FAMILIES parameters), in
    order: that of its cell graph, a clique cell having inner distance 1."""
    cells = [_cells(*member) for member in members]
    diameters = [0] * len(members)
    for m, rows in _by_order(cells).items():
        E, s = _cell_edges(m, [cells[i] for i in rows])
        for i, g, w in zip(rows, graphs_of((E > 0) & ~np.eye(m, dtype=bool)), s):
            diameters[i] = max(diameter(g), int(w.max() > 1))
    return diameters
