import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import Inertia, MatrixError, RationalMatrix, char_poly, det, inertia, poly_eval

from qdist.exact import graph_shift_rows, partition_blocks, quotient
from qdist.graphs import (
    GraphError,
    complete_bipartite,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    gndra,
    gndt,
    path_graph,
)


def _minus_diagonal(M, x):
    """M - xI."""
    return RationalMatrix([[v - x if i == j else v for j, v in enumerate(row)] for i, row in enumerate(M.rows)])


def count_lt(M, x):
    """Eigenvalues of symmetric M strictly below x, from the inertia of M - xI."""
    return inertia(_minus_diagonal(M, Fraction(x))).n_minus


def count_le(M, x):
    """Eigenvalues of symmetric M at most x, from the inertia of M - xI."""
    shifted = inertia(_minus_diagonal(M, Fraction(x)))
    return shifted.n_minus + shifted.n_zero


def char_poly_eval(M, x):
    """det(xI - M), exactly."""
    return (-1) ** M.order * det(_minus_diagonal(M, Fraction(x)))


def rational_entries(order, lo=-6, hi=6):
    return st.lists(
        st.lists(st.fractions(min_value=lo, max_value=hi, max_denominator=4), min_size=order, max_size=order),
        min_size=order,
        max_size=order,
    )


def symmetrize(rows):
    m = len(rows)
    return [[(rows[i][j] + rows[j][i]) / 2 for j in range(m)] for i in range(m)]


def test_inertia_zero_matrix():
    assert inertia(RationalMatrix([[0] * 4 for _ in range(4)])) == Inertia(0, 4, 0)


def test_inertia_contract_examples():
    # Q(K3) - I is the all-ones matrix: spectrum {3,0,0} shifted from {4,1,1}
    assert inertia(RationalMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])) == Inertia(0, 2, 1)
    q = RationalMatrix(graph_shift_rows(cycle_graph(4), "Q"))
    shifted = RationalMatrix([[q.entry(i, j) - (2 if i == j else 0) for j in range(4)] for i in range(4)])
    assert inertia(shifted) == Inertia(1, 2, 1)


def test_inertia_rejects_asymmetric():
    with pytest.raises(MatrixError):
        inertia(RationalMatrix([[0, 1], [2, 0]]))


def test_hyperbolic_pivot_paths():
    # all-zero diagonal forces the 2x2 pivot branch
    assert inertia(RationalMatrix([[0, 5], [5, 0]])) == Inertia(1, 0, 1)
    assert inertia(RationalMatrix([[0, 0, 1], [0, 0, 2], [1, 2, 0]])) == Inertia(1, 1, 1)
    m = RationalMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]])
    assert inertia(m) == Inertia(2, 0, 2)


def test_count_examples():
    k5e = complete_minus_edge(5)
    q = RationalMatrix(graph_shift_rows(k5e, "Q"))
    assert count_lt(q, 3) == 1
    assert count_le(q, 3) == 4
    assert count_lt(q, 0) == 0
    assert count_lt(q, Fraction(1, 2)) == 0
    # eigenvalue n-2 = 3 has multiplicity n-2 = 3
    assert count_le(q, 3) - count_lt(q, 3) == 3


def test_graph_shift_rows():
    # den*M(G) - num*I for the path 0-1-2, at the threshold 1/2
    assert graph_shift_rows(path_graph(3), "Q", 1, 2) == [[1, 2, 0], [2, 3, 2], [0, 2, 1]]
    assert graph_shift_rows(path_graph(3), "L", 1, 2) == [[1, -2, 0], [-2, 3, -2], [0, -2, 1]]
    with pytest.raises(ValueError, match="'Q' or 'L'"):
        graph_shift_rows(path_graph(3), "A")


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sylvester_congruence_invariance(order, seed):
    import random

    rnd = random.Random(seed)
    rows = [[rnd.randint(-4, 4) for _ in range(order)] for _ in range(order)]
    sym = [[rows[i][j] + rows[j][i] for j in range(order)] for i in range(order)]
    M = RationalMatrix(sym)
    base = inertia(M)
    # random invertible rational congruence
    while True:
        P = [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(order)] for _ in range(order)]
        if det(RationalMatrix(P)) != 0:
            break
    PtMP = [
        [
            sum(P[k][i] * M.entry(k, l) * P[l][j] for k in range(order) for l in range(order))
            for j in range(order)
        ]
        for i in range(order)
    ]
    assert inertia(RationalMatrix(PtMP)) == base


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_counts_match_float_oracle(order, seed):
    import random

    rnd = random.Random(seed)
    rows = [[rnd.randint(-5, 5) for _ in range(order)] for _ in range(order)]
    sym = [[rows[i][j] + rows[j][i] for j in range(order)] for i in range(order)]
    M = RationalMatrix(sym)
    eig = np.linalg.eigvalsh(np.array(sym, dtype=float))
    for t in (-3, 0, 1, Fraction(5, 2)):
        tf = float(t)
        if np.min(np.abs(eig - tf)) < 1e-6:
            continue  # guard band: exact side is authoritative, nothing to compare
        assert count_lt(M, t) == int((eig < tf).sum())
        assert count_le(M, t) == int((eig <= tf).sum())


def test_inertia_totals():
    for g in [cycle_graph(5), complete_graph(4), complete_bipartite(2, 3)]:
        q = RationalMatrix(graph_shift_rows(g, "Q"))
        res = inertia(q)
        assert res.n_minus + res.n_zero + res.n_plus == g.n


def test_det_and_char_poly():
    m = RationalMatrix([[2, 1], [1, 2]])
    assert det(m) == 3
    assert char_poly_eval(m, 3) == 0
    assert char_poly_eval(m, 1) == 0
    assert char_poly_eval(m, 0) == 3  # det(-M) = det(M) for even order
    coeffs = char_poly(m)
    assert coeffs == [Fraction(3), Fraction(-4), Fraction(1)]
    assert poly_eval(coeffs, Fraction(3)) == 0


def test_char_poly_eval_scalar():
    assert char_poly_eval(RationalMatrix([[Fraction(7, 2)]]), Fraction(7, 2)) == 0


def test_quotient_matrix_kn_minus_e():
    # degree-(n-1) block vs the two endpoints of the missing edge
    k5e = complete_minus_edge(5)
    B, equitable = quotient(k5e, [[2, 3, 4], [0, 1]])
    assert B == [[Fraction(6), Fraction(2)], [Fraction(3), Fraction(3)]]
    assert equitable


def test_quotient_matrix_dia3_family():
    n = 7
    h = gndt(n, 3, 2)
    rows, equitable = quotient(h, [[0], [1, 4, 5, 6], [2], [3]])
    B = RationalMatrix(rows)
    expect = [
        [n - 3, n - 3, 0, 0],
        [1, 2 * n - 6, 1, 0],
        [0, n - 3, n - 2, 1],
        [0, 0, 1, 1],
    ]
    assert B.rows == [[Fraction(x) for x in row] for row in expect]
    assert equitable
    assert char_poly_eval(B, n - 2) == -((n - 4) ** 2)
    assert char_poly_eval(B, n - 3) == (n - 3) ** 2
    assert char_poly_eval(B, 2) == -2 * (n - 3) * (n - 4) * (n - 6)


@pytest.mark.parametrize("n,a", [(8, 1), (9, 2), (11, 3)])
def test_quotient_matrix_split_family(n, a):
    g = gndra(n, 3, 2, a)
    rows, equitable = quotient(g, [[0], [1] + list(range(4, 4 + a)), [2] + list(range(4 + a, n)), [3]])
    M = RationalMatrix(rows)
    expect = [
        [a + 1, a + 1, 0, 0],
        [1, n - 2 + a, n - 3 - a, 0],
        [0, a + 1, 2 * n - 6 - a, 1],
        [0, 0, n - 3 - a, n - 3 - a],
    ]
    assert M.rows == [[Fraction(x) for x in row] for row in expect]
    assert equitable
    assert char_poly_eval(M, n - 2) == 4 * a * (n - 4 - a) - (n - 4) ** 2
    assert char_poly_eval(M, n - 3) == (n - 3) * ((n - 4 - a) * a + n - 3)
    assert char_poly_eval(M, a + 1) == -(a + 1) * (2 * (n - 4 - a) * (n - 2 * a - 4) - a - 1)


def test_quotient_single_block():
    B, _ = quotient(complete_graph(3), [[0, 1, 2]])
    assert B == [[Fraction(4)]]


def test_is_equitable_negative():
    assert not quotient(path_graph(4), [[0], [1, 2, 3]])[1]
    assert quotient(path_graph(4), [[0], [1], [2], [3]])[1]


def test_quotient_row_sums_are_block_averages():
    g = gndt(9, 4, 3)
    blocks = [[0, 1, 2, 3, 4], list(range(5, 9))]
    B, _ = quotient(g, blocks)
    q = RationalMatrix(graph_shift_rows(g, "Q"))
    for i, block in enumerate(blocks):
        avg = Fraction(sum(q.entry(u, v) for u in block for v in range(g.n)), len(block))
        assert sum(B[i]) == avg


def quotient_eigenvalues(g, blocks):
    """Eigenvalues of the quotient via the similar symmetric matrix
    diag(sqrt(|V_i|)) B diag(1/sqrt(|V_i|))."""
    import math

    from qdist.jacobi import eigenvalues_sym

    B, _ = quotient(g, blocks)
    sizes = [len(b) for b in blocks]
    m = len(sizes)
    C = [
        [float(B[i][j]) * math.sqrt(sizes[i] / sizes[j]) for j in range(m)]
        for i in range(m)
    ]
    return eigenvalues_sym(C).values


@pytest.mark.parametrize(
    "g,blocks",
    [
        (complete_minus_edge(5), [[2, 3, 4], [0, 1]]),
        (gndt(8, 3, 2), [[0], [1, 4, 5, 6, 7], [2], [3]]),
        (gndra(9, 3, 2, 2), [[0], [1, 4, 5], [2, 6, 7, 8], [3]]),
        (cycle_graph(6), [[0, 3], [1, 4], [2, 5]]),
        (complete_bipartite(3, 3), [[0, 1, 2], [3, 4, 5]]),
    ],
)
def test_equitable_quotient_spectrum_contained(g, blocks):
    from qdist.jacobi import eigenvalues_sym
    from qdist.spectral import q_float

    rows, equitable = quotient(g, blocks)
    assert equitable
    B = RationalMatrix(rows)
    q_eigs = eigenvalues_sym(q_float(g)).values
    # floating route: every quotient eigenvalue appears among Q's
    for mu in quotient_eigenvalues(g, blocks):
        assert min(abs(mu - lam) for lam in q_eigs) < 1e-8
    # exact route: integer roots of the quotient polynomial are Q-eigenvalues
    # with positive inertia multiplicity
    q = RationalMatrix(graph_shift_rows(g, "Q"))
    for t in range(0, 2 * g.n - 1):
        if char_poly_eval(B, t) == 0:
            assert count_le(q, t) - count_lt(q, t) >= 1


def test_matrix_json_is_exact():
    m = RationalMatrix([[Fraction(1, 3), 2], [2, Fraction(-5, 7)]])
    assert json.loads(m.to_json()) == [["1/3", "2"], ["2", "-5/7"]]


def test_partition_validation():
    with pytest.raises(GraphError):
        partition_blocks(3, [[0, 1], [1, 2]])
    with pytest.raises(GraphError):
        partition_blocks(3, [[0, 1]])
    with pytest.raises(GraphError):
        partition_blocks(1, [[0], []])
    assert partition_blocks(3, [[2, 0], [1]]) == [[0, 2], [1]]
