import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdist import exact
from qdist.graphs import (
    complete_bipartite,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    disjoint_union,
    from_edges,
    gndra,
    path_graph,
)
from qdist.jacobi import eigenvalues_sym
from qdist.spectral import (
    Cosine,
    Interval,
    IntervalError,
    PolyRoot,
    Surd,
    complete_spectrum,
    cycle_spectrum,
    gn32a_partial_spectrum,
    interval,
    k2_bipartite_spectrum,
    kn_minus_e_spectrum,
    laplacian,
    m_count,
    parse_interval,
    path_q1_below_four,
    q_float,
    signless_laplacian,
    spectrum_report,
)


def small_random_graphs(max_n=7):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [p for p in pairs if draw(st.booleans())]
        return from_edges(n, edges)

    return build()


# -- matrices -----------------------------------------------------------------


def test_q_matrix_small():
    q = signless_laplacian(path_graph(3))
    assert q.rows == [[Fraction(x) for x in row] for row in [[1, 1, 0], [1, 2, 1], [0, 1, 1]]]
    q = signless_laplacian(complete_graph(3))
    assert q.rows == [[Fraction(x) for x in row] for row in [[2, 1, 1], [1, 2, 1], [1, 1, 2]]]


def test_l_matrix_small():
    l = laplacian(path_graph(2))
    assert l.rows == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]
    for row in laplacian(cycle_graph(5)).rows:
        assert sum(row) == 0


@given(small_random_graphs())
@settings(max_examples=50)
def test_trace_is_twice_edges(g):
    q = signless_laplacian(g)
    assert sum(q.entry(i, i) for i in range(g.n)) == 2 * g.edge_count()
    for u in range(g.n):
        assert sum(q.rows[u]) == 2 * g.degree(u)


def l_float(g):
    return np.array(exact.graph_shift_rows(g, "L"), dtype=float)


def test_bipartite_q_and_l_spectra_coincide():
    for g in [path_graph(5), cycle_graph(6), complete_bipartite(2, 4), complete_bipartite(3, 3)]:
        sq = eigenvalues_sym(q_float(g)).values
        sl = eigenvalues_sym(l_float(g)).values
        assert np.allclose(sq, sl, atol=1e-8)


def test_nonbipartite_spectra_differ():
    g = cycle_graph(5)
    sq = eigenvalues_sym(q_float(g)).values
    sl = eigenvalues_sym(l_float(g)).values
    assert not np.allclose(sq, sl, atol=1e-6)


# -- intervals ------------------------------------------------------------------


def test_interval_basics():
    iv = interval(0, 1)
    assert str(iv) == "[0,1)"
    assert str(Interval(Fraction(2), Fraction(2), True, True)) == "[2,2]"
    with pytest.raises(IntervalError):
        Interval(Fraction(3), Fraction(1), True, True)
    with pytest.raises(IntervalError):
        Interval(Fraction(1), Fraction(1), True, False)


@pytest.mark.parametrize(
    "text,n,lo,hi,lc,hc",
    [
        ("[0,1)", 9, 0, 1, True, False),
        ("[0,n-3)", 9, 0, 6, True, False),
        ("(2,2n-2]", 9, 2, 16, False, True),
    ],
)
def test_parse_interval(text, n, lo, hi, lc, hc):
    iv = parse_interval(text).resolve(n)
    assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (Fraction(lo), Fraction(hi), lc, hc)


def test_parse_interval_round_trip():
    for text in ["[0,1)", "[0,n-3)", "(2,2n-2]", "[n-2,n-2]", "[1/2,3/2)", "[0,1/2n+1)"]:
        sym = parse_interval(text)
        canonical = str(sym)
        assert str(parse_interval(canonical)) == canonical


def test_parse_interval_rejects():
    for bad in ["[5,1)", "0,1", "[0;1)", "[a,b)", "[1,2,3)", "[0,1"]:
        with pytest.raises(IntervalError):
            parse_interval(bad)


# -- counting ---------------------------------------------------------------------


def test_m_count_examples():
    assert m_count(cycle_graph(5), interval(0, 1)) == 2
    assert m_count(complete_bipartite(2, 3), interval(0, 1)) == 1
    assert m_count(complete_graph(6), interval(0, 4)) == 0
    # closed interval picks up the eigenvalue n-2 = 4 with multiplicity n-1
    assert m_count(complete_graph(6), Interval(Fraction(0), Fraction(4), True, True)) == 5


@given(small_random_graphs(), st.fractions(min_value=0, max_value=1, max_denominator=12))
@settings(max_examples=60, deadline=None)
def test_m_count_additivity(g, frac):
    n = g.n
    x = frac * 2 * n
    below = m_count(g, Interval(Fraction(0), x, True, False)) if x > 0 else 0
    total = below + m_count(g, Interval(x, Fraction(2 * n), True, True))
    assert total == n


@given(small_random_graphs(4), small_random_graphs(4))
@settings(max_examples=40, deadline=None)
def test_m_count_disjoint_union_additive(g, h):
    iv = interval(0, 1)
    assert m_count(disjoint_union(g, h), iv) == m_count(g, iv) + m_count(h, iv)


def test_k_copies_spectrum_is_repeated():
    from qdist.graphs import k_copies

    base = sorted(eigenvalues_sym(q_float(cycle_graph(5))).values)
    doubled = sorted(eigenvalues_sym(q_float(k_copies(cycle_graph(5), 2))).values)
    assert np.allclose(doubled, sorted(base * 2), atol=1e-9)


# -- closed forms ------------------------------------------------------------------


def _check_against_solver(cf, g):
    solver = eigenvalues_sym(q_float(g)).values
    closed = cf.float_values()
    assert len(closed) == g.n
    assert np.allclose(solver, closed, atol=1e-8)
    for value, mult in cf.rational_multiplicities().items():
        assert exact.graph_count_le(g, value) - exact.graph_count_lt(g, value) == mult


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 12])
def test_cycle_spectrum(n):
    cf = cycle_spectrum(n)
    assert cf.n == n
    _check_against_solver(cf, cycle_graph(n))


def test_cycle_spectrum_known_values():
    assert sorted(cycle_spectrum(3).float_values(), reverse=True) == pytest.approx([4, 1, 1])
    assert sorted(cycle_spectrum(4).float_values(), reverse=True) == pytest.approx([4, 2, 2, 0])
    assert sorted(cycle_spectrum(6).float_values(), reverse=True) == pytest.approx([4, 3, 3, 1, 1, 0])


@pytest.mark.parametrize("n", [1, 2, 4, 7, 11])
def test_complete_spectrum(n):
    cf = complete_spectrum(n)
    assert cf.n == n
    _check_against_solver(cf, complete_graph(n))


def test_complete_spectrum_values():
    assert complete_spectrum(4).float_values() == pytest.approx([6, 2, 2, 2])
    assert complete_spectrum(2).float_values() == pytest.approx([2, 0])
    assert complete_spectrum(1).float_values() == pytest.approx([0])


@pytest.mark.parametrize("n", [5, 6, 9, 13])
def test_kn_minus_e_spectrum(n):
    cf = kn_minus_e_spectrum(n)
    assert cf.n == n
    _check_against_solver(cf, complete_minus_edge(n))


def test_kn_minus_e_values():
    cf = kn_minus_e_spectrum(5)
    vals = cf.float_values()
    assert vals[0] == pytest.approx(4.5 + 0.5 * math.sqrt(33))
    assert vals[-1] == pytest.approx(4.5 - 0.5 * math.sqrt(33))
    assert vals[1:4] == pytest.approx([3, 3, 3])


@pytest.mark.parametrize("n", [4, 5, 8, 12])
def test_k2_bipartite_spectrum(n):
    cf = k2_bipartite_spectrum(n)
    assert cf.n == n
    _check_against_solver(cf, complete_bipartite(2, n - 2))


def test_k2_bipartite_values():
    assert sorted(k2_bipartite_spectrum(5).float_values(), reverse=True) == pytest.approx([5, 3, 2, 2, 0])
    # n=4 coincides with the 4-cycle
    assert sorted(k2_bipartite_spectrum(4).float_values(), reverse=True) == pytest.approx(
        sorted(cycle_spectrum(4).float_values(), reverse=True)
    )


@pytest.mark.parametrize("n,a", [(7, 1), (8, 2), (9, 1), (10, 3), (11, 2), (12, 4)])
def test_gn32a_spectrum(n, a):
    cf = gn32a_partial_spectrum(n, a)
    assert cf.n == n
    _check_against_solver(cf, gndra(n, 3, 2, a))


def test_gn32a_brackets_unbalanced():
    n, a = 9, 1
    cf = gn32a_partial_spectrum(n, a)
    roots = sorted(e.to_float() for e in cf.entries if isinstance(e, PolyRoot))
    assert len(roots) == 4
    rho4, beta, theta, rho1 = roots
    assert rho4 <= a + 1 + 1e-8
    assert a + 1 - 1e-8 < beta < n - 3 + 1e-8
    assert n - 3 - 1e-8 < theta < n - 2 + 1e-8
    assert rho1 >= 1.5 * (n - 2) - 1e-8


def test_gn32a_balanced_case():
    n = 8
    a = 2  # a == n-4-a
    cf = gn32a_partial_spectrum(n, a)
    rationals = cf.rational_multiplicities()
    assert rationals[Fraction(n - 3)] == n - 4
    assert rationals[Fraction(n - 2)] == 1
    assert rationals[Fraction(a)] == 1
    gammas = [e.to_float() for e in cf.entries if isinstance(e, Surd) and e.sign < 0]
    assert len(gammas) == 1 and a < gammas[0] < a + 1


def test_gn32a_mirrored_attachment_is_isomorphic():
    # a and n-4-a label isomorphic graphs; spectra must agree
    left = gn32a_partial_spectrum(9, 1).float_values()
    right = gn32a_partial_spectrum(9, 4).float_values()
    assert np.allclose(left, right, atol=1e-10)


def test_cosine_rationality():
    assert Cosine(6, 1, 1).exact_value() == 3
    assert Cosine(4, 1, 1).exact_value() == 2
    assert Cosine(3, 1, 1).exact_value() == 1
    assert Cosine(2, 1, 1).exact_value() == 0
    assert Cosine(5, 1, 1).exact_value() is None


def test_surd_exact_when_square():
    assert Surd(3, 4, 1, 2, 1).exact_value() == Fraction(5, 2)
    assert Surd(3, 5, 1, 2, 1).exact_value() is None


@pytest.mark.parametrize("n", [2, 5, 17, 40, 64])
def test_path_q1_below_four(n):
    assert path_q1_below_four(n)


def test_spectrum_report_shape():
    rep = spectrum_report(cycle_graph(5), "Q", [1, Fraction(5, 2)])
    assert rep["graph"] == "Dhc"
    assert rep["matrix"] == "Q"
    assert len(rep["eigenvalues"]) == 5
    assert rep["exact_counts"] == {"1": 2, "5/2": 2}
