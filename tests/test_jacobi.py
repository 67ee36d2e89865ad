import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from labeled import graph_from_mask, mask_pairs
from reference import RationalMatrix, inertia, interlacing_check, weyl_check

from qdist import jacobi
from qdist.jacobi import (
    ConvergenceError,
    SymmetryError,
    edge_pairs,
    eigenvalues_sym,
    graphs_of,
    jacobi_batch,
    mask_adjacency,
)
from qdist.graphs import complete_graph, cycle_graph, disjoint_union, path_graph
from qdist.jacobi import GUARD_BAND
from qdist.spectral import q_float


def test_diagonal_matrix():
    s = eigenvalues_sym(np.diag([3.0, -1.0, 7.0]))
    assert s.values == (7.0, 3.0, -1.0)
    assert s.residual <= 1e-12 * (1 + np.sqrt(59))


def test_complete_graph_spectrum():
    s = eigenvalues_sym(q_float(complete_graph(4)))
    assert np.allclose(s.values, [6, 2, 2, 2], atol=1e-9)


def test_cycle_spectrum_values():
    s = eigenvalues_sym(q_float(cycle_graph(5)))
    expect = sorted((2 + 2 * math.cos(2 * math.pi * j / 5) for j in range(5)), reverse=True)
    assert np.allclose(s.values, expect, atol=1e-9)


def test_residual_bound_holds():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 10)
        A = rng.normal(size=(n, n))
        A = A + A.T
        s = eigenvalues_sym(A)
        assert s.residual <= 1e-12 * (1 + np.linalg.norm(A))
        assert abs(sum(s.values) - np.trace(A)) <= 1e-9 * n


def test_matches_lapack():
    # LAPACK's spectra against exact congruence inertia: at every integer
    # threshold that every eigenvalue clears by the guard band, the float
    # count below it must be the exact one
    rng = np.random.default_rng(11)
    compared = 0
    for n in range(1, 9):
        A = rng.integers(-3, 4, size=(24, n, n))
        A = np.triu(A) + np.triu(A, 1).transpose(0, 2, 1)
        vals, res = jacobi_batch(A)
        assert (res <= 1e-12 * (1 + np.linalg.norm(A, axis=(1, 2)))).all()
        for mat, row in zip(A, vals):
            for t in range(-3 * n, 3 * n + 1):
                if np.abs(row - t).min() > GUARD_BAND:
                    below = inertia(RationalMatrix((mat - t * np.eye(n, dtype=int)).tolist())).n_minus
                    assert int((row < t).sum()) == below, (mat.tolist(), t)
                    compared += 1
    assert compared > 4000


def test_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        eigenvalues_sym([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(SymmetryError):
        eigenvalues_sym([[1.0, 2.0, 3.0]])


def test_empty_and_single():
    assert eigenvalues_sym(np.zeros((0, 0))).values == ()
    assert eigenvalues_sym([[5.0]]).values == (5.0,)


def test_union_spectrum_is_multiset_union():
    g, h = cycle_graph(4), path_graph(3)
    u = disjoint_union(g, h)
    su = sorted(eigenvalues_sym(q_float(u)).values)
    parts = sorted(list(eigenvalues_sym(q_float(g)).values) + list(eigenvalues_sym(q_float(h)).values))
    assert np.allclose(su, parts, atol=1e-9)


def test_gershgorin_window():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        mask = rng.random((n, n)) < 0.5
        A = np.triu(mask, 1).astype(float)
        A = A + A.T
        A[np.arange(n), np.arange(n)] = A.sum(axis=1)
        s = eigenvalues_sym(A)
        assert s.values[0] <= 2 * n - 2 + 1e-9
        assert s.values[-1] >= -1e-9


def test_weyl_identity_case():
    ok, (lhs, ra, rb) = weyl_check(np.eye(3), np.eye(3), 1, 1)
    assert ok and lhs == pytest.approx(2.0) and ra == rb == pytest.approx(1.0)


def test_weyl_on_graph_matrices():
    A = q_float(path_graph(4))
    B = np.diag([1.0, 2.0, 2.0, 1.0])
    ok, witness = weyl_check(A, B, 2, 1)
    assert ok


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_weyl_random_pairs(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A = A + A.T
    B = rng.normal(size=(n, n))
    B = B + B.T
    for i in range(1, n + 1):
        for j in range(1, n + 2 - i):
            ok, _ = weyl_check(A, B, i, j)
            assert ok


def test_interlacing_known():
    M = q_float(complete_graph(3))
    ok, witness = interlacing_check(M, [0, 1])
    assert ok
    # B = [[2,1],[1,2]] has eigenvalues {3,1}, interlacing {4,1,1}
    assert witness[0][1] == pytest.approx(3.0, abs=1e-9)
    assert witness[1][1] == pytest.approx(1.0, abs=1e-9)


def test_interlacing_full_subset_is_equality():
    M = q_float(cycle_graph(5))
    ok, witness = interlacing_check(M, range(5))
    assert ok
    for lo, mid, hi in witness:
        assert lo == pytest.approx(mid, abs=1e-9)


@given(st.integers(0, 10_000), st.integers(2, 8))
@settings(max_examples=80, deadline=None)
def test_interlacing_random(seed, n):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    M = M + M.T
    rows = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    ok, _ = interlacing_check(M, rows)
    assert ok


def _patched_eigh(monkeypatch, spoil):
    real = np.linalg.eigh

    def fake(a):
        w, v = real(a)
        return spoil(w.copy(), v.copy())

    monkeypatch.setattr(jacobi.np.linalg, "eigh", fake)


def _shift(w, v):
    # a 1e-10 shift stays inside the trace check's 1e-9 * n, so only the
    # residual certificate can catch it
    w[:, 0] += 1e-10
    return w, v


def _stretch(w, v):
    v[:, :, 0] *= 1.0 + 1e-9
    return w, v


def _duplicate(w, v):
    # eta >= 1/2: the bound is infinite
    v[:, :, 1] = v[:, :, 0]
    return w, v


@pytest.mark.parametrize(
    "spoil, mat, match",
    [
        (_shift, [[0.0, 1.0], [1.0, 0.0]], "certificate"),
        (_stretch, q_float(cycle_graph(5)), "certificate"),
        (_duplicate, np.diag([1.0, 1.0, 2.0]), "bound inf"),
    ],
    ids=["shift", "stretch", "duplicate"],
)
def test_certificate_failure_is_reported(monkeypatch, spoil, mat, match):
    _patched_eigh(monkeypatch, spoil)
    with pytest.raises(ConvergenceError, match=match):
        eigenvalues_sym(mat)


def _all_graph_q(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    masks = np.arange(1 << len(pairs))
    A = np.zeros((masks.size, n, n))
    for k, (u, v) in enumerate(pairs):
        A[:, u, v] = A[:, v, u] = (masks >> k) & 1
    A[:, np.arange(n), np.arange(n)] = A.sum(axis=2)
    return A


def test_certified_bound_on_small_graphs():
    for n in range(1, 7):
        _, bounds = jacobi_batch(_all_graph_q(n))
        assert bounds.max() <= 1e-10, n


def test_certified_below_counts_only_where_every_eigenvalue_clears():
    # Q(K4) has eigenvalues 6, 2, 2, 2 and Q(C4) has 4, 2, 2, 0
    vals, bounds = jacobi_batch(np.stack([q_float(complete_graph(4)), q_float(cycle_graph(4))]))
    below, clear = jacobi.certified_below(vals, bounds, [3, 1])
    assert below.tolist() == [3, 1] and clear.tolist() == [True, True]
    below, clear = jacobi.certified_below(vals, bounds, 6)
    assert below.tolist() == [3, 4] and clear.tolist() == [False, True]
    assert jacobi.certified_below(vals, bounds, 2)[1].tolist() == [False, False]
    # a bound of 1.5 leaves 3 within reach of the eigenvalue 2 (and of 4)
    assert jacobi.certified_below(vals, np.full(2, 1.5), 3)[1].tolist() == [False, False]


def test_spread_bound_not_above_max_modulus_bound():
    # eta·(max λ - min λ) in place of 2·eta·max|λ|: both the accepted
    # fraction and the reported bound may only shrink
    u = np.finfo(float).eps / 2
    for n in range(1, 7):
        A = _all_graph_q(n)
        fro = np.sqrt((A * A).sum(axis=(1, 2)))
        lam, V = np.linalg.eigh(A)
        computed, bound, eta = jacobi._certified_bounds(A, fro, lam, V)
        g = (n + 2) * u / (1 - (n + 2) * u)
        R = A @ V - V * lam[:, None, :]
        r = np.sqrt((R * R).sum(axis=(1, 2)))
        lam_max = np.abs(lam).max(axis=1)
        w2 = n * (1.0 + eta)
        r_up = r + g * np.sqrt(w2) * (fro + lam_max)
        eta_up = eta + g * w2
        old_computed = (r + 2.0 * eta * lam_max) / (1.0 - eta)
        old_bound = (r_up + 2.0 * eta_up * lam_max) / (1.0 - eta_up) * (1 + (n * n + 4) * u)
        assert (computed <= old_computed).all(), n
        assert (bound <= old_bound).all(), n


def test_certified_bound_covers_closed_forms():
    for n in range(3, 17):
        s = eigenvalues_sym(q_float(cycle_graph(n)))
        expect = sorted((2 + 2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)
        assert np.abs(np.array(s.values) - expect).max() <= s.residual
        s = eigenvalues_sym(q_float(complete_graph(n)))
        expect = [2.0 * n - 2] + [n - 2.0] * (n - 1)
        assert np.abs(np.array(s.values) - expect).max() <= s.residual


def test_large_orders_are_certified():
    n = 200
    s = eigenvalues_sym(q_float(complete_graph(n)))
    expect = [2.0 * n - 2] + [n - 2.0] * (n - 1)
    assert np.abs(np.array(s.values) - expect).max() <= s.residual
    s = eigenvalues_sym(q_float(cycle_graph(n)))
    expect = sorted((2 + 2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True)
    assert np.abs(np.array(s.values) - expect).max() <= s.residual


# -- the labeled mask codec ------------------------------------------------------------


def _reference_stack(n, masks):
    rows = [[[g.has_edge(u, v) for v in range(n)] for u in range(n)] for g in map(partial(graph_from_mask, n), masks)]
    return np.array(rows, dtype=bool).reshape(len(masks), n, n)


def test_edge_pairs_are_the_row_order():
    for n in range(0, 9):
        u, v = edge_pairs(n)
        assert list(zip(u.tolist(), v.tolist())) == mask_pairs(n), n


def test_mask_adjacency_decodes_every_small_mask():
    """Every mask at n <= 4 (n = 0, 1 and 2 among them) decodes to the
    reference graph, as a bool stack and back through graphs_of."""
    for n in range(0, 5):
        masks = list(range(1 << len(mask_pairs(n))))
        adj = mask_adjacency(n, masks)
        assert adj.dtype == bool and adj.shape == (len(masks), n, n), n
        assert np.array_equal(adj, _reference_stack(n, masks)), n
        assert graphs_of(adj) == [graph_from_mask(n, m) for m in masks], n
    assert mask_adjacency(3, []).shape == (0, 3, 3)
    assert np.array_equal(mask_adjacency(3, np.array([5], dtype=np.int64)), mask_adjacency(3, [5]))


@pytest.mark.parametrize("n", [12, 16])
def test_mask_adjacency_decodes_wide_masks(n):
    """Seeded masks of 66 and 120 bits, past int64, the full mask among them."""
    width = len(mask_pairs(n))
    rng = random.Random(n)
    masks = [rng.getrandbits(width) for _ in range(40)] + [(1 << width) - 1, 1 << (width - 1)]
    assert graphs_of(mask_adjacency(n, masks)) == [graph_from_mask(n, m) for m in masks]
    assert np.array_equal(mask_adjacency(n, masks), _reference_stack(n, masks))
