"""The exact counting kernel of the sweeps: integer characteristic
polynomials by Faddeev-LeVerrier and counts by Descartes' rule of signs,
checked against exact congruence inertia."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import factorial
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from labeled import graph_from_mask, mask_pairs
from reference import RationalMatrix, char_poly
from test_statements import _route_graphs

from qdist import exact, jacobi, sweeps, verify
from qdist.graphs import complete_graph, cycle_graph, degrees, disjoint_union, is_connected
from qdist.invariants import diameter, domination_number, independence_number, matching_number
from qdist.spectral import q_float

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
            want = char_poly(RationalMatrix(A[mask].astype(int).tolist()))
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
            lt, le = (c[data.class_of] for c in sweeps.descartes_counts(data.table.poly, t))
            for mask in range(data.count):
                assert (int(lt[mask]), int(le[mask])) == _bareiss(n, mask, t), (n, mask, t)


def test_kernel_matches_inertia_on_every_inband_pair_n6():
    n = 6
    data = sweeps.sweep_data(n)
    checked = 0
    for t in range(0, 2 * n - 1):
        lt, le = (c[data.class_of] for c in sweeps.descartes_counts(data.table.poly, t))
        for mask in np.flatnonzero(sweeps.inband_flags(data, t)):
            assert (int(lt[mask]), int(le[mask])) == _bareiss(n, int(mask), t), (mask, t)
            checked += 1
    assert checked > 10_000


def test_count_path_needs_no_inertia_and_no_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the count path must not call this")

    monkeypatch.setattr(exact, "_inertia_int", forbidden)
    data = dataclasses.replace(sweeps.sweep_data(5), counts={})
    for t in [*range(0, 9), Fraction(7, 2)]:
        lt, le = sweeps.counts_pair(data, t)
        assert lt.dtype == le.dtype == np.int8
        assert data.counts[Fraction(t)][0] is lt
    # a whole verify run, in a fresh interpreter, never imports multiprocessing, nor
    # numpy.ma, which np.unique imports on its hash path
    code = (
        "import sys\n"
        "from qdist.cli import main\n"
        "assert main(['verify', '--theorem', 'all', '--exhaustive', '6', '--family-max', '7']) == 0\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_labeled_caches_are_the_class_counts():
    """counts_pair's int8 labeled caches equal the representatives' own
    int16 counts gathered through class_of, at every n <= 7 and every
    threshold 0..2n-2 plus one between integers."""
    for n in range(1, 8):
        data = sweeps.sweep_data(n)
        for t in [*range(0, 2 * n - 1), Fraction(2 * n - 3, 2)]:
            lt, le = sweeps.counts_pair(data, t)
            want_lt, want_le = data.table.counts(t)
            assert want_lt.dtype == want_le.dtype == np.int16, n
            assert lt.dtype == le.dtype == np.int8, n
            assert np.array_equal(lt, want_lt[data.class_of]), (n, t)
            assert np.array_equal(le, want_le[data.class_of]), (n, t)


def test_float_columns_equal_one_solve_of_the_whole_stack():
    """The spectra and char polys that a table solves ROWS graphs at a time
    equal one jacobi_batch and one char_poly_batch call over its whole
    float stack (matrix_stack), dtype included, on the representatives',
    G-e and G-v tables of every n <= 7 (the n = 7 G-e table has 10,962
    rows, 43 chunks), and the spectra of Q and of L on the G-e GraphTable
    of the n = 8 route graphs (1,412 rows, 6 chunks)."""
    for n in range(1, 8):
        reps = sweeps.sweep_data(n).table
        for name, tab in (("reps", reps), ("G-e", reps.without_edges()[2]), ("G-v", reps.without_vertices())):
            Q = jacobi.matrix_stack(tab.adj)
            vals, bound = jacobi.jacobi_batch(Q)
            for got, want in ((tab.vals, vals), (tab.bound, bound), (tab.poly, sweeps.char_poly_batch(Q))):
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, name)
    for matrix in ("Q", "L"):
        tab = verify.GraphTable(8, jacobi.adjacency(8, _route_graphs(8)), matrix).without_edges()[2]
        assert tab.count > verify.ROWS, tab.count
        vals, bound = jacobi.jacobi_batch(jacobi.matrix_stack(tab.adj, matrix))
        for got, want in ((tab.vals, vals), (tab.bound, bound)):
            assert got.dtype == want.dtype and np.array_equal(got, want), matrix


def test_float_columns_take_one_chunk_of_memory():
    """Solving the spectra and char polys of the n = 7 representatives' G-e
    table (10,962 rows) peaks under 8 MiB of traced allocations, adjacency
    and degrees included; one solve of the whole stack took 26.3 MiB for
    the spectra and 15.0 MiB for the char polys."""
    table = sweeps.sweep_data(7).table.without_edges()[2]
    assert table.count == 10_962
    tracemalloc.start()
    try:
        table.spectra, table.poly
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


def test_sweep_tables_refuse_orders_above_nine():
    """The kc5 column and the char poly bounds hold for n <= 9 only. At
    n = 10 the kc5 formula would miss 2C5, and delta2 would call it
    applicable and failing, where its point checker finds the hypothesis
    false."""
    two_c5 = disjoint_union(cycle_graph(5), cycle_graph(5))
    assert not verify.check_delta2(two_c5).applicable
    with pytest.raises(ValueError, match="n <= 9, got 10"):
        sweeps.SweepTable(10, jacobi.adjacency(10, [two_c5]))
    nine = sweeps.SweepTable(9, jacobi.adjacency(9, [complete_graph(9)]))
    assert nine.poly.shape == (1, 10)


def test_table_invariants_match_per_graph_kernels():
    """The subset-scan matching, independence and domination numbers
    (int16) and the matrix-power connectivity and diameter of the
    representatives' table against blossom, branch-and-bound and BFS on
    the graph itself: on every labeled graph with n <= 6, read through the
    class map, and on the 1,044 class representatives at n = 7. The degree
    rows against the representatives' own degrees, at every n <= 7."""
    for n in range(1, 8):
        data = sweeps.sweep_data(n)
        tab = data.table
        masks = np.arange(data.count) if n <= 6 else data.reps
        cls = data.class_of[masks]
        graphs = [graph_from_mask(n, int(m)) for m in masks]
        rep_degs = np.array([degrees(graph_from_mask(n, int(m))) for m in data.reps], dtype=np.uint8)
        assert tab.degs.dtype == np.uint8 and np.array_equal(tab.degs, rep_degs), n  # vertex by vertex
        for name, kernel in [("nu", matching_number), ("alpha", independence_number), ("gamma", domination_number)]:
            got = getattr(tab, name)[cls]
            assert got.dtype == np.int16, (n, name)
            want = np.array([kernel(g) for g in graphs])
            assert np.array_equal(got, want), (n, name, np.flatnonzero(got != want)[:5])
        conn = np.array([is_connected(g) for g in graphs])
        got_conn = tab.conn[cls]
        assert np.array_equal(got_conn, conn), (n, np.flatnonzero(got_conn != conn)[:5])
        diam = np.array([diameter(g) if c else 0 for g, c in zip(graphs, conn)])
        assert np.array_equal(tab.diam[cls][conn], diam[conn]), n


def test_subset_scan_beyond_the_sweep_orders():
    """The subset scan against blossom and branch-and-bound on 100 seeded
    graphs at each of n = 8, 9, 10, where the sweeps do not reach yet: the
    columns of a sweep table at n = 8, 9, the kernel itself at n = 10,
    beyond the tables' orders."""
    rng = np.random.default_rng(8)
    for n in (8, 9, 10):
        masks = rng.integers(0, 1 << n * (n - 1) // 2, size=100, dtype=np.int64)
        adj = jacobi.mask_adjacency(n, masks)
        if n <= 9:
            tab = sweeps.SweepTable(n, adj)
            got = tab.nu, tab.alpha, tab.gamma
        else:
            got = sweeps._subset_scan(adj | np.eye(n, dtype=bool))
        graphs = [graph_from_mask(n, int(m)) for m in masks]
        for col, kernel in zip(got, (matching_number, independence_number, domination_number)):
            want = [kernel(g) for g in graphs]
            assert col.dtype == np.int16 and col.tolist() == want, (n, kernel.__name__)


# -- the class map -----------------------------------------------------------------------

A000088 = [1, 1, 2, 4, 11, 34, 156, 1044]  # graphs on n = 0..7 vertices up to isomorphism


def _canonical_forms(n, masks):
    """The least mask over the n! relabelings of each mask, computed here
    from the permutations themselves."""
    pairs = mask_pairs(n)
    dest = np.array(
        [[pairs.index(tuple(sorted((p[u], p[v])))) for u, v in pairs] for p in permutations(range(n))],
        dtype=np.int64,
    )
    masks = np.asarray(masks, dtype=np.int64)
    out = np.empty_like(masks)
    step = max(1, (1 << 22) // len(dest))
    for lo in range(0, masks.size, step):
        part = masks[lo : lo + step, None]
        image = np.zeros((part.shape[0], len(dest)), dtype=np.int64)
        for k in range(len(pairs)):
            image |= ((part >> k) & 1) << dest[None, :, k]
        out[lo : lo + step] = image.min(axis=1)
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_class_map_counts_and_orbits(n):
    """A000088 classes; every mask has a class; the orbit sizes are the
    class sizes, divide n! (orbit-stabilizer) and sum to 2^C(n,2)."""
    data = sweeps.sweep_data(n)
    assert data.reps.size == A000088[n]
    assert data.class_of.shape == (1 << n * (n - 1) // 2,) and data.class_of.min() >= 0
    assert np.array_equal(np.bincount(data.class_of, minlength=data.reps.size), data.orbit)
    assert int(data.orbit.sum()) == data.count
    assert not (factorial(n) % data.orbit).any()
    assert np.array_equal(data.class_of[data.reps], np.arange(data.reps.size))
    assert (np.diff(data.reps) > 0).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_every_mask_lies_in_the_orbit_of_its_representative(n):
    data = sweeps.sweep_data(n)
    canon = _canonical_forms(n, np.arange(data.count))
    assert np.array_equal(canon, data.reps[data.class_of])


def test_representatives_match_the_atlas():
    """The canonical forms of the representatives are those of the graphs
    of Read and Wilson's An Atlas of Graphs (networkx.graph_atlas_g), order
    by order; each representative is its own canonical form."""
    atlas: dict[int, list[int]] = {}
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        index = {pq: k for k, pq in enumerate(mask_pairs(n))}
        atlas.setdefault(n, []).append(sum(1 << index[(min(e), max(e))] for e in g.edges()))
    assert [len(atlas[n]) for n in range(8)] == A000088
    for n in range(1, 8):
        reps = sweeps.sweep_data(n).reps
        want = _canonical_forms(n, atlas[n])
        assert np.array_equal(_canonical_forms(n, reps), reps), n
        assert set(reps.tolist()) == set(want.tolist()), n


def test_class_polynomials_match_every_labeled_graph():
    """char_poly_batch of every labeled graph with n <= 7 (2^21 at n = 7)
    equals the polynomial of its class."""
    for n in range(1, 8):
        data = sweeps.sweep_data(n)
        for lo in range(0, data.count, 1 << 16):
            masks = np.arange(lo, min(lo + (1 << 16), data.count), dtype=np.int64)
            got = sweeps.SweepTable(n, jacobi.mask_adjacency(n, masks)).poly
            assert np.array_equal(got, data.table.poly[data.class_of[masks]]), (n, lo)


A033995 = [1, 2, 3, 7, 13, 35, 88]  # bipartite graphs on n = 1..7 vertices up to isomorphism


def _two_colourable(g):
    """Whether a breadth-first 2-colouring of g exists."""
    colour = [-1] * g.n
    for root in range(g.n):
        if colour[root] >= 0:
            continue
        colour[root], queue = 0, [root]
        for u in queue:
            for v in range(g.n):
                if g.has_edge(u, v):
                    if colour[v] < 0:
                        colour[v] = 1 - colour[u]
                        queue.append(v)
                    elif colour[v] == colour[u]:
                        return False
    return True


def test_bipartite_classes_count_through_the_laplacian():
    """A third count route for the bipartite classes: L(G) = S Q(G) S for
    the signs S of a 2-colouring, and Q and L are cospectral only then. The
    char poly of L equals that of Q on exactly the 2-colourable
    representatives, A033995 of them per order n <= 7, and on those the
    sweep's counts equal exact L counts (Bareiss) at every threshold
    0..2n-2."""
    for n in range(1, 8):
        tab = sweeps.sweep_data(n).table
        graphs = [graph_from_mask(n, int(mask)) for mask in sweeps.sweep_data(n).reps]
        same = (sweeps.char_poly_batch(jacobi.matrix_stack(tab.adj, "L")) == tab.poly).all(axis=1)
        bipartite = np.array([_two_colourable(g) for g in graphs])
        assert np.array_equal(same, bipartite), n
        assert int(bipartite.sum()) == A033995[n - 1], n
        for t in range(0, 2 * n - 1):
            lt, le = tab.lt(t), tab.le(t)
            for i in np.flatnonzero(bipartite):
                want = exact.graph_count_lt(graphs[i], t, "L"), exact.graph_count_le(graphs[i], t, "L")
                assert (lt[i], le[i]) == want, (n, i, t)
