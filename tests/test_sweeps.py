"""The exact counting kernel of the sweeps: integer characteristic
polynomials by Faddeev-LeVerrier and counts by Descartes' rule of signs,
checked against exact congruence inertia."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from qdist import exact, sweeps
from qdist.graphs import complete_graph, is_connected
from qdist.invariants import diameter, domination_number, independence_number, matching_number
from qdist.spectral import q_float
from qdist.verify import graph_from_mask


def _bareiss(n, mask, t):
    t = Fraction(t)
    neg, zero, _ = exact._inertia_int(exact.graph_shift_rows(graph_from_mask(n, mask), "Q", t.numerator, t.denominator))
    return neg, neg + zero


@pytest.mark.parametrize(
    "coeffs, threshold, lt, le",
    [
        ([-1, 0, 1], 0, 1, 1),  # y^2 - 1: an interior zero coefficient
        ([-1, 0, 1], 1, 1, 2),
        ([-1, 0, 1], -1, 0, 1),
        ([-1, 0, 1], 2, 2, 2),
        ([0, -1, 0, 1], 0, 1, 2),  # y^3 - y: roots -1, 0, 1
        ([0, -1, 0, 1], Fraction(1, 2), 2, 2),
        ([0, -1, 0, 1], Fraction(-1, 3), 1, 1),
        ([0, 4, -4, 1], 2, 1, 3),  # (y - 2)^2 y: a double root at the threshold
        ([0, 4, -4, 1], 0, 0, 1),
        ([0, 4, -4, 1], 1, 1, 1),
        ([0, 4, -4, 1], 3, 3, 3),
        ([0, 0, 0, 1], 0, 0, 3),  # y^3
        ([5], 0, 0, 0),  # a nonzero constant has no roots
    ],
)
def test_descartes_on_real_rooted_polynomials(coeffs, threshold, lt, le):
    got_lt, got_le = sweeps.descartes_counts(np.array([coeffs], dtype=np.int32), threshold)
    assert (int(got_lt[0]), int(got_le[0])) == (lt, le)


def test_char_poly_batch_matches_fraction_recurrence():
    for n in range(1, 7):
        masks = range(1 << (n * (n - 1) // 2))
        A = np.stack([q_float(graph_from_mask(n, m)) for m in masks])
        got = sweeps.char_poly_batch(A)
        assert got.dtype == np.int32 and got.shape == (len(masks), n + 1)
        for mask in list(masks)[:: max(1, len(masks) // 200)]:
            want = exact.char_poly(exact.RationalMatrix(A[mask].astype(int).tolist()))
            assert got[mask].tolist() == [int(c) for c in want], (n, mask)


def test_exactness_guards_raise():
    # A = I/2: tr(A M_1) = 1 divides by 1, but tr(A M_2) = -1/2 is not divisible by 2
    with pytest.raises(ArithmeticError, match="not divisible by 2"):
        sweeps.char_poly_batch(np.array([[[0.5, 0.0], [0.0, 0.5]]]))
    # Q(K_10): row sums 18, and 10 * 2^10 * 18^10 > 2^53
    with pytest.raises(ArithmeticError, match="exceeds 2"):
        sweeps.char_poly_batch(q_float(complete_graph(10))[None])
    with pytest.raises(ArithmeticError, match="int32"):
        sweeps.char_poly_batch(np.diag([300.0, 300.0, 300.0, 300.0])[None])
    poly = sweeps.char_poly_batch(q_float(complete_graph(7))[None])
    with pytest.raises(ArithmeticError, match="Taylor shift"):
        sweeps.descartes_counts(poly, 10**6)


def test_kernel_matches_inertia_on_every_small_graph():
    for n in range(1, 6):
        data = sweeps.sweep_data(n)
        for t in range(0, 2 * n - 1):
            lt, le = sweeps.descartes_counts(data.poly, t)
            for mask in range(data.count):
                assert (int(lt[mask]), int(le[mask])) == _bareiss(n, mask, t), (n, mask, t)


def test_kernel_matches_inertia_on_every_inband_pair_n6():
    n = 6
    data = sweeps.sweep_data(n)
    checked = 0
    for t in range(0, 2 * n - 1):
        lt, le = sweeps.descartes_counts(data.poly, t)
        for mask in np.flatnonzero(sweeps.inband_flags(data, t)):
            assert (int(lt[mask]), int(le[mask])) == _bareiss(n, int(mask), t), (mask, t)
            checked += 1
    assert checked > 10_000


def test_count_path_needs_no_inertia_and_no_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the count path must not call this")

    monkeypatch.setattr(exact, "_inertia_int", forbidden)
    monkeypatch.setattr(sweeps, "Pool", forbidden)
    data = dataclasses.replace(sweeps.sweep_data(5), counts={})
    for t in [*range(0, 9), Fraction(7, 2)]:
        lt, le = sweeps.counts_pair(data, t)
        assert lt.dtype == le.dtype == np.int16
        assert data.counts[Fraction(t)][0] is lt


def test_table_invariants_match_per_graph_kernels():
    """On every labeled graph with n <= 6: the subset-scan matching,
    independence and domination numbers and the vectorized connectivity and
    diameter of sweep_data against blossom, branch-and-bound and BFS."""
    for n in range(1, 7):
        data = sweeps.sweep_data(n)
        graphs = [graph_from_mask(n, m) for m in range(data.count)]
        for name, kernel in [("nu", matching_number), ("alpha", independence_number), ("gamma", domination_number)]:
            want = np.array([kernel(g) for g in graphs])
            assert np.array_equal(getattr(data, name), want), (n, name, np.flatnonzero(getattr(data, name) != want)[:5])
        conn = np.array([is_connected(g) for g in graphs])
        assert np.array_equal(data.conn, conn), (n, np.flatnonzero(data.conn != conn)[:5])
        diam = np.array([diameter(g) if c else 0 for g, c in zip(graphs, conn)])
        assert np.array_equal(data.diam[conn], diam[conn]), n
