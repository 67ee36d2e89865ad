import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    RationalMatrix,
    complete_spectrum,
    cycle_eigenvalue,
    cycle_spectrum,
    k2_bipartite_spectrum,
    kn_minus_e_spectrum,
)
from test_verify import _member

from qdist import exact, quotients, verify
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
from qdist.jacobi import adjacency, eigenvalues_sym, jacobi_batch, matrix_stack
from qdist.spectral import (
    Interval,
    IntervalError,
    m_count,
    parse_interval,
    q_float,
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
    q = RationalMatrix(exact.graph_shift_rows(path_graph(3), "Q"))
    assert q.rows == [[Fraction(x) for x in row] for row in [[1, 1, 0], [1, 2, 1], [0, 1, 1]]]
    q = RationalMatrix(exact.graph_shift_rows(complete_graph(3), "Q"))
    assert q.rows == [[Fraction(x) for x in row] for row in [[2, 1, 1], [1, 2, 1], [1, 1, 2]]]


def test_l_matrix_small():
    l = RationalMatrix(exact.graph_shift_rows(path_graph(2), "L"))
    assert l.rows == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]
    for row in RationalMatrix(exact.graph_shift_rows(cycle_graph(5), "L")).rows:
        assert sum(row) == 0


@given(small_random_graphs())
@settings(max_examples=50)
def test_trace_is_twice_edges(g):
    q = RationalMatrix(exact.graph_shift_rows(g, "Q"))
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
    iv = Interval(Fraction(0), Fraction(1), True, False)
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
    for bad in ["[5,1)", "0,1", "[0;1)", "[a,b)", "[1,2,3)", "[0,1", "[0,/2n)"]:
        with pytest.raises(IntervalError):
            parse_interval(bad)


# -- counting ---------------------------------------------------------------------


def test_m_count_examples():
    assert m_count(cycle_graph(5), Interval(Fraction(0), Fraction(1), True, False)) == 2
    assert m_count(complete_bipartite(2, 3), Interval(Fraction(0), Fraction(1), True, False)) == 1
    assert m_count(complete_graph(6), Interval(Fraction(0), Fraction(4), True, False)) == 0
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
    iv = Interval(Fraction(0), Fraction(1), True, False)
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


def test_family_spectra_match_the_full_matrix_solver():
    # every member of the five grids at orders 7..22: its exact twin values
    # and quotient floats against jacobi_batch of its full Q(G), within the
    # sum of the two certified bounds
    members = 0
    for tid in verify.FAMILY_THEOREM_IDS:
        for n in range(7, 23):
            params = list(verify.family_parameters(tid, n))
            if not params:
                continue
            graphs = [_member(tid, p)[0] for p in params]
            vals, bounds = jacobi_batch(matrix_stack(adjacency(n, graphs)))
            for p, spec, want, bound in zip(params, quotients.family_spectra(tid, params), vals, bounds):
                assert np.abs(np.array(spec.values) - want).max() <= spec.residual + bound, (tid, p)
            members += len(params)
    assert members == 6876


@pytest.mark.parametrize("n,a", [(7, 1), (8, 2), (9, 1), (10, 3), (11, 2), (12, 4)])
def test_gn32a_spectrum(n, a):
    # the twin-quotient spectrum places every eigenvalue as Bareiss on the
    # member does, at every integer threshold
    (spec,) = quotients.family_spectra("diameter-3-equality", [(n, a)])
    values, g = np.array(spec.values), gndra(n, 3, 2, a)
    assert len(values) == n
    for t in range(2 * n - 1):
        below, at_most = (values < t - spec.residual).sum(), (values <= t + spec.residual).sum()
        assert (below, at_most) == (exact.graph_count_lt(g, t), exact.graph_count_le(g, t)), t


def test_gn32a_balanced_case():
    # a == n-4-a: n-3 with multiplicity n-4, n-2 and a once, one gamma in (a, a+1)
    n, a = 8, 2
    g = gndra(n, 3, 2, a)

    def mult(t):
        return exact.graph_count_le(g, t) - exact.graph_count_lt(g, t)

    assert (mult(n - 3), mult(n - 2), mult(a)) == (n - 4, 1, 1)
    assert exact.graph_count_lt(g, a + 1) - exact.graph_count_le(g, a) == 1
    (spec,) = quotients.family_spectra("diameter-3-equality", [(n, a)])
    gammas = [v for v in spec.values if a + spec.residual < v < a + 1 - spec.residual]
    assert len(gammas) == 1


def test_gn32a_brackets_unbalanced():
    # rho1 >= 3(n-2)/2: every other eigenvalue lies below it
    n, a = 9, 1
    assert exact.graph_count_lt(gndra(n, 3, 2, a), Fraction(3 * (n - 2), 2)) == n - 1


def test_cosine_rationality():
    assert cycle_eigenvalue(6, 1) == Fraction(3)
    assert cycle_eigenvalue(4, 1) == Fraction(2)
    assert cycle_eigenvalue(3, 1) == Fraction(1)
    assert cycle_eigenvalue(2, 1) == Fraction(0)
    assert isinstance(cycle_eigenvalue(5, 1), float)


@pytest.mark.parametrize("n", [2, 5, 17, 40, 64])
def test_path_q1_below_four(n):
    # Q(P_n) has the eigenvalues 2 + 2cos(pi j/n), j = 1..n, all in [0, 4)
    assert exact.graph_count_lt(path_graph(n), 4) == n


def test_spectrum_report_shape():
    rep = spectrum_report(cycle_graph(5), "Q", [1, Fraction(5, 2)])
    assert rep["graph"] == "Dhc"
    assert rep["matrix"] == "Q"
    assert len(rep["eigenvalues"]) == 5
    assert rep["exact_counts"] == {"1": 2, "5/2": 2}
