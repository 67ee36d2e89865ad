import json

import networkx as nx
import numpy as np
import pytest
from labeled import enumerate_graphs, graph_from_mask, graph_to_mask, mask_pairs

from qdist import exact, quotients, sweeps, verify
from qdist.graphs import (
    Graph,
    GraphError,
    complete_bipartite,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    degrees,
    disjoint_union,
    from_edges,
    gndra,
    gndt,
    is_connected,
    k_copies,
    make_empty,
    path_graph,
    remove_edge,
)
from qdist.invariants import diameter
from qdist.jacobi import adjacency
from qdist.spectral import q_float
from qdist.verify import (
    check_alpha_sandwich,
    check_cycle_matching,
    check_delta2,
    check_diameter3_equality,
    check_diameter_main,
    check_domination_bound,
    check_edge_interlacing,
    check_family_counts,
    check_gndra_q5,
    check_gndt_laplacian_count,
    check_longest_path,
    check_m02_bound,
    check_matching_upper,
    check_tail_eigenvalue_bound,
    check_vertex_deletion,
    is_k_c5,
    sample_graphs,
    search_counterexamples,
)


# -- enumeration and sampling ----------------------------------------------------


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for g in enumerate_graphs(3) if is_connected(g)) == 4
    assert sum(1 for g in enumerate_graphs(4) if is_connected(g)) == 38


def test_enumeration_excludes_c5_labelings():
    base = [g for g in enumerate_graphs(5) if min(degrees(g)) >= 2]
    without = [g for g in base if not is_k_c5(g)]
    assert len(base) - len(without) == 12


def test_enumeration_order_deterministic():
    masks = [graph_to_mask(g) for g in enumerate_graphs(3)]
    assert masks == list(range(8))


def test_mask_round_trip():
    for mask in range(64):
        assert graph_to_mask(graph_from_mask(4, mask)) == mask


def test_sampling_deterministic():
    a = [graph_to_mask(g) for g in sample_graphs(10, 50, seed=1)]
    b = [graph_to_mask(g) for g in sample_graphs(10, 50, seed=1)]
    c = [graph_to_mask(g) for g in sample_graphs(10, 50, seed=2)]
    assert a == b
    assert a != c


def test_sampling_range():
    with pytest.raises(Exception):
        list(sample_graphs(5, 10, seed=0))


def test_is_k_c5():
    assert is_k_c5(cycle_graph(5))
    assert is_k_c5(k_copies(cycle_graph(5), 2))
    assert not is_k_c5(cycle_graph(6))
    assert not is_k_c5(disjoint_union(cycle_graph(5), cycle_graph(6)))
    assert not is_k_c5(complete_graph(5))
    assert not is_k_c5(make_empty(5))


def _bfs_cases():
    """Every labeled graph with n <= 5, seeded samples at n = 10..16, kC5
    for k = 1..4, and graphs near kC5 that are not: C10 and C15 (every
    degree 2, n divisible by 5), C5 + C6, C3 + C7 and C5 + K1."""
    yield from (g for n in range(6) for g in enumerate_graphs(n))
    yield from (g for n in range(10, 17) for g in sample_graphs(n, 30, seed=n))
    yield from (k_copies(cycle_graph(5), k) for k in range(1, 5))
    yield from (cycle_graph(10), cycle_graph(15), disjoint_union(cycle_graph(5), cycle_graph(6)))
    yield from (disjoint_union(cycle_graph(3), cycle_graph(7)), disjoint_union(cycle_graph(5), make_empty(1)))


def test_one_bfs_matches_networkx():
    """is_connected and is_k_c5 both read graphs.bfs_distances; networkx
    decides the same questions its own way. networkx calls no graph on no
    vertices connected or not; qdist calls it connected."""
    c5 = nx.cycle_graph(5)
    for g in _bfs_cases():
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        assert is_connected(g) == (g.n == 0 or nx.is_connected(h)), g
        components = [h.subgraph(c) for c in nx.connected_components(h)]
        assert is_k_c5(g) == (g.n > 0 and all(nx.is_isomorphic(c, c5) for c in components)), g


# -- point checkers -----------------------------------------------------------------


def test_edge_interlacing_k4():
    rep = check_edge_interlacing(complete_graph(4))
    assert rep.passed and rep.applicable and rep.witness == {"edges_checked": 6}


def test_edge_interlacing_c6_to_p6():
    rep = check_edge_interlacing(cycle_graph(6))  # every edge of C6 leaves P6
    assert rep.passed and rep.witness == {"edges_checked": 6}
    rep = check_edge_interlacing(make_empty(3))
    assert not rep.applicable and rep.witness == {"note": "no edges"}


def test_vertex_deletion_k5():
    rep = check_vertex_deletion(complete_graph(5))
    assert rep.passed and rep.applicable
    rep = check_vertex_deletion(path_graph(2))
    assert rep.passed and rep.applicable
    assert not check_vertex_deletion(make_empty(1)).applicable


def test_matching_upper_c5_tight():
    rep = check_matching_upper(cycle_graph(5))
    assert rep.passed
    assert rep.witness["m01"] == 2 == rep.witness["nu"]
    assert not rep.witness["strengthened"]  # C5 exclusion bites
    rep = check_delta2(cycle_graph(5))
    assert not rep.applicable


def test_matching_upper_k2n_equality():
    rep = check_delta2(complete_bipartite(2, 4))
    assert rep.applicable and rep.passed
    assert rep.witness["m01"] == 1 == rep.witness["nu"] - 1


def test_matching_upper_isolated_not_applicable():
    rep = check_matching_upper(disjoint_union(path_graph(2), make_empty(1)))
    assert not rep.applicable


def test_cycle_matching_values():
    assert check_cycle_matching(5).witness["m01"] == 2
    assert check_cycle_matching(6).witness["m01"] == 1
    for n in range(3, 61):
        assert check_cycle_matching(n).passed


def test_domination_bound_examples():
    assert check_domination_bound(complete_graph(6)).witness["m01"] == 0
    rep = check_domination_bound(cycle_graph(5))
    assert rep.passed and rep.witness == {"m01": 2, "gamma": 2}


def test_m02_bound_p6_equality():
    rep = check_m02_bound(path_graph(6))
    assert rep.passed and rep.witness["m02"] == 3 and rep.witness["nu"] == 3


def test_alpha_sandwich_k23():
    rep = check_alpha_sandwich(complete_bipartite(2, 3))
    assert rep.passed
    assert rep.witness == {"alpha": 3, "m_delta_up": 4, "m_0_Delta": 4}


def test_longest_path_examples():
    rep = check_longest_path(path_graph(6))
    assert rep.passed and rep.witness == {"ell": 5, "m_2_up": 2}
    rep = check_longest_path(complete_graph(4))
    assert rep.passed and rep.witness == {"ell": 3, "m_2_up": 1}


def test_diameter_main_tight_cases():
    rep = check_diameter_main(complete_graph(6))
    assert rep.passed and rep.witness["d"] == 1 and rep.witness["m_below_n-2"] == 0
    rep = check_diameter_main(complete_minus_edge(6))
    assert rep.passed and rep.witness["d"] == 2 and rep.witness["m_below_n-2"] == 1


def test_tail_eigenvalue_bound():
    rep = check_tail_eigenvalue_bound(complete_bipartite(1, 5))
    assert rep.applicable and rep.passed
    rep = check_tail_eigenvalue_bound(complete_graph(5))
    assert not rep.applicable  # index range empty


# -- family checkers ------------------------------------------------------------------


def test_family_counts_examples():
    assert check_family_counts(9, 3, 2).passed
    assert check_family_counts(8, 5, 3, 1).passed
    rep = check_family_counts(8, 5, 2, 1)
    assert rep.passed and rep.witness["q5_below_4"]


def test_family_counts_range_errors():
    with pytest.raises(Exception):
        check_family_counts(8, 6, 2)  # d > n-3
    with pytest.raises(Exception):
        check_family_counts(8, 4, 4, 1)  # t > d-1 in 4-parameter form


def test_gndra_q5():
    for n in range(6, 11):
        for t in range(2, n - 3):
            assert check_gndra_q5(n, t).passed


def test_diameter3_equality_examples():
    rep = check_diameter3_equality(7)
    assert rep.passed and rep.witness == {"m_below_n-3": 2, "mult_at_n-3": 3}
    rep = check_diameter3_equality(8, 2)
    assert rep.passed and rep.witness["m_below_n-3"] == 2


def test_gndt_laplacian_count_examples():
    rep = check_gndt_laplacian_count(10, 5, 3)
    assert rep.passed and rep.witness["laplacian_below"] == 4 and rep.witness["signless_below"] >= 5
    rep = check_gndt_laplacian_count(9, 4, 3)
    assert rep.passed and rep.witness["laplacian_below"] == 3


# -- family tables ----------------------------------------------------------------------


def _family_rows(tid, n):
    """The engine's counts of every instance at order n, keyed by checker arguments."""
    params = list(verify.family_parameters(tid, n))
    return dict(zip(params, quotients.family_counts(tid, params)))


def _member(tid, params):
    """The member Graph of one family instance and the threshold of its counts, built here."""
    n, *rest = params
    if tid == "cycle-matching":
        return cycle_graph(n), 1
    if tid == "family-counts":
        d, t, *a = rest
        return (gndra(n, d, t, *a) if a else gndt(n, d, t)), n - d + 1
    if tid == "family-gndra-q5":
        return gndra(n, n - 3, rest[0], 1), 4
    if tid == "diameter-3-equality":
        return (gndra(n, 3, 2, *rest) if rest else gndt(n, 3, 2)), n - 3
    d, t = rest
    return gndt(n, d, t), n - d + 1


def _bareiss_row(tid, params):
    """The counts the engine should give one instance, from Bareiss on the member built here."""
    g, x = _member(tid, params)
    lt = exact.graph_count_lt
    if tid == "diameter-3-equality":
        return (lt(g, x), exact.graph_count_le(g, x), diameter(g))
    if tid == "gndt-laplacian-count":
        return (lt(g, x, matrix="L"), lt(g, x))
    return (lt(g, x),)


def test_family_tables_equal_bareiss():
    for tid in verify.FAMILY_THEOREM_IDS:
        for n in range(7, 17):
            rows = _family_rows(tid, n)
            assert list(rows) == list(verify.family_parameters(tid, n))
            for params, row in rows.items():
                assert row == _bareiss_row(tid, params), (tid, params)


def test_family_tables_equal_full_matrix_tables():
    # an independent float route: the certified spectra of every member's
    # full Q(G) (and L(G)) in GraphTable, with its own Bareiss rows
    for tid in verify.FAMILY_THEOREM_IDS:
        for n in range(7, 23):
            rows = _family_rows(tid, n)
            if not rows:
                continue
            graphs, ts = zip(*(_member(tid, p) for p in rows))
            tab = verify.GraphTable(n, adjacency(n, graphs))
            if tid == "diameter-3-equality":
                columns = (tab.lt(ts), tab.le(ts), tab.diam)
            elif tid == "gndt-laplacian-count":
                columns = (verify.GraphTable(n, tab.adj, "L").lt(ts), tab.lt(ts))
            else:
                columns = (tab.lt(ts),)
            assert list(rows.values()) == list(zip(*(c.tolist() for c in columns))), (tid, n)


def test_family_cells_are_equitable_with_the_integer_quotient():
    # the cells are consecutive vertex ranges of the member; each partition
    # is equitable and its integer form at threshold 0 is diag(s) times the
    # quotient matrix of Q(G)
    members = 0
    for tid in verify.FAMILY_THEOREM_IDS:
        for n in range(7, 17):
            for params in verify.family_parameters(tid, n):
                d, joins, t = quotients._family_cells(tid, *params)
                E, s = quotients._cell_edges(d + 1 + len(joins), [(d, joins, t)], tid == "cycle-matching")
                ends = np.cumsum(s[0]).tolist()
                cells = [range(hi - k, hi) for hi, k in zip(ends, s[0].tolist())]
                g, x = _member(tid, params)
                assert ends[-1] == g.n and t == x
                B, equitable = exact.quotient(g, cells)
                assert equitable, (tid, params)
                scaled = [[k * b for b in row] for k, row in zip(s[0].tolist(), B)]
                assert quotients._integer_form(E[0], s[0], 1, 0) == scaled, (tid, params)
                members += 1
    assert members == 1630


def test_cell_graph_diameter_equals_the_member_diameter():
    members = 0
    for n in range(7, verify.FAMILY_LIMIT + 1):
        for params, (_, _, diam) in _family_rows("diameter-3-equality", n).items():
            assert diam == diameter(_member("diameter-3-equality", params)[0]) == 3, params
            members += 1
    assert members == 403


def test_family_tables_send_only_threshold_eigenvalues_to_bareiss(monkeypatch):
    # C_n has the eigenvalue 1 when 3 divides n, every diameter-3 member
    # has n-3 in its quotient, and the quotients of 7 family-counts members
    # have n-d+1; every other member of orders 7..16 is counted from the
    # twins and the certified floats. A member and its mirror image share
    # one count (the 75 diameter-3 members are 45 up to mirroring, the 7
    # family-counts members 6), and one inertia gives both counts of a
    # diameter-3-equality member.
    calls = []
    real = exact._inertia_int
    monkeypatch.setattr(exact, "_inertia_int", lambda a: calls.append(len(a)) or real(a))
    resolved = {}
    for tid in verify.FAMILY_THEOREM_IDS:
        before = len(calls)
        for n in range(7, 17):
            _family_rows(tid, n)
        resolved[tid] = len(calls) - before
    assert resolved == {
        "cycle-matching": 3,
        "family-counts": 6,
        "family-gndra-q5": 0,
        "diameter-3-equality": 45,
        "gndt-laplacian-count": 0,
    }
    assert len(calls) == 3 + 6 + 45


def test_family_stacks_hold_the_quotients_only(monkeypatch):
    # orders 7..22: the stacked quotients hold at most half the entries of
    # the member matrices they stand for (one per instance, two for
    # gndt-laplacian-count; 1,250,440 with every mirror image solved too),
    # and no stack has more than FAMILY_STACK rows
    stacks = []
    real = quotients.jacobi_batch
    monkeypatch.setattr(quotients, "jacobi_batch", lambda mats: stacks.append(mats.shape) or real(mats))
    member_entries = 0
    for tid in verify.FAMILY_THEOREM_IDS:
        matrices = 2 if tid == "gndt-laplacian-count" else 1
        for n in range(7, 23):
            member_entries += matrices * n * n * len(_family_rows(tid, n))
    quotient_entries = sum(rows * m * m for rows, m, _ in stacks)
    assert max(rows for rows, _, _ in stacks) <= quotients.FAMILY_STACK
    assert (quotient_entries, member_entries) == (642_768, 2_630_628)
    assert quotient_entries <= 0.5 * member_entries


def test_one_off_family_call_counts_one_chunk(monkeypatch):
    # check_family_counts(32, 3, 2) solves only its own quotient: a path of
    # four cells and one clique cell of 28 vertices, order 5
    stacks = []
    real = quotients.jacobi_batch
    monkeypatch.setattr(quotients, "jacobi_batch", lambda mats: stacks.append(mats.shape) or real(mats))
    rep = check_family_counts(32, 3, 2)
    assert rep.passed and rep.witness["m_below_n-d+1"] == exact.graph_count_lt(gndt(32, 3, 2), 30)
    assert stacks == [(1, 5, 5)]


def test_family_checkers_validate_before_any_table(monkeypatch):
    def built(*args):
        raise AssertionError("a family table was built")

    monkeypatch.setattr(quotients, "family_counts", built)
    illegal = [
        lambda: check_cycle_matching(2),
        lambda: check_family_counts(8, 6, 2),
        lambda: check_family_counts(8, 4, 4, 1),
        lambda: check_family_counts(8, 4, 2, 3),
        lambda: check_gndra_q5(5, 2),
        lambda: check_gndra_q5(9, 6),
        lambda: check_diameter3_equality(6),
        lambda: check_diameter3_equality(9, 5),
        lambda: check_gndt_laplacian_count(9, 5, 3),
        lambda: check_gndt_laplacian_count(12, 5, 2),
    ]
    for call in illegal:
        with pytest.raises(GraphError):
            call()
    # every grid tuple at orders 7..12 reaches its table; a tuple one step off
    # the grid in one coordinate after n raises first
    off_grid = 0
    for tid, name in verify.FAMILY_CHECKERS.items():
        check = getattr(verify, name)
        for n in range(7, 13):
            grid = set(verify.family_parameters(tid, n))
            moved = {p[:i] + (p[i] + step,) + p[i + 1 :] for p in grid for i in range(1, len(p)) for step in (-1, 1)}
            for p in grid:
                with pytest.raises(AssertionError, match="table was built"):
                    check(*p)
            for q in moved - grid:
                with pytest.raises(GraphError, match="no instance"):
                    check(*q)
            off_grid += len(moved - grid)
    assert off_grid == 549


# -- point tables -------------------------------------------------------------------


def _point_graphs():
    """The graphs of the sampled benchmark at seed 1 (budget 6 at each of
    n = 8..10, seed 1 + n), then graphs whose integer eigenvalues land on
    the thresholds, so that their rows go to Bareiss."""
    seeded = [g for n in range(8, 11) for g in sample_graphs(n, 6, 1 + n)]
    integral = [complete_graph(9), cycle_graph(10), cycle_graph(12), gndt(11, 4, 3), gndra(12, 5, 3, 2),
                complete_graph(7), gndt(10, 3, 2), gndra(10, 3, 2, 2), complete_bipartite(2, 6)]
    return seeded, integral


def _bareiss_counts(g, t):
    return exact.graph_count_lt(g, t), exact.graph_count_le(g, t)


def test_point_tables_count_exactly():
    # GraphTable takes a count from the certified floats where every
    # eigenvalue clears the threshold, and from Bareiss where one does not;
    # both must give Bareiss's count at every threshold, for G and each row
    # of its G-e table
    seeded, integral = _point_graphs()
    for g in seeded + integral:
        tab = verify.GraphTable(g.n, adjacency(g.n, [g]))
        _, _, sub = tab.without_edges()
        assert sub.count == g.edge_count()
        for t in range(0, 2 * g.n - 1):
            for h, lt, le in zip([g] + sub.graphs, tab.lt(t).tolist() + sub.lt(t).tolist(),
                                 tab.le(t).tolist() + sub.le(t).tolist()):
                assert (lt, le) == _bareiss_counts(h, t), (h, t)


def test_laplacian_tables_count_exactly(monkeypatch):
    # every L(G) has the eigenvalue 0, and these have further integer ones
    # on the thresholds (K_n: n; K_{1,n-1}: 1, n; K_{2,6}: 2, 6, 8; C_4: 2, 4;
    # C_6: 1, 3, 4), so some rows must go to Bareiss, and of L(G), not Q(G)
    graphs = [complete_graph(6), complete_bipartite(1, 6), complete_bipartite(2, 6),
              cycle_graph(4), cycle_graph(6), gndt(10, 5, 3)]
    want = {(g, t): (exact.graph_count_lt(g, t, matrix="L"), exact.graph_count_le(g, t, matrix="L"))
            for g in graphs for t in range(0, 2 * g.n - 1)}
    calls = []
    for name in ("graph_count_lt", "graph_count_le"):
        real = getattr(exact, name)
        monkeypatch.setattr(exact, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    for g in graphs:
        tab = verify.GraphTable(g.n, adjacency(g.n, [g]), "L")
        for t in range(0, 2 * g.n - 1):
            assert (tab.lt(t)[0], tab.le(t)[0]) == want[g, t], (g, t)
    assert calls


def test_point_tables_send_few_rows_to_bareiss(monkeypatch):
    # the 198 (graph, statement) pairs of the sampled benchmark at seed 1
    # made 6,455 Bareiss calls when every count was exact inertia
    calls = []
    for name in ("graph_count_lt", "graph_count_le"):
        real = getattr(exact, name)
        monkeypatch.setattr(exact, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    seeded, _ = _point_graphs()
    reports = [theorem.check(g) for theorem in verify.GRAPH_THEOREMS.values() for g in seeded]
    assert len(reports) == 198 and all(r.passed for r in reports)
    assert 0 < len(calls) <= 300


def test_edge_interlacing_counts_each_table_once_per_threshold(monkeypatch):
    # one table of G and one of all its G-e, each counted at every threshold
    # 1..2n-2 (nothing lies below 0): 2(2n-2) certified_below calls per graph
    # (one table per edge made 6,281 calls on these 18 graphs, and counting
    # at 0 too made 612)
    calls = []
    real = verify.certified_below
    monkeypatch.setattr(verify, "certified_below", lambda *a: calls.append(a) or real(*a))
    seeded, _ = _point_graphs()
    assert all(check_edge_interlacing(g).passed for g in seeded)
    assert len(seeded) == 18 and len(calls) == sum(2 * (2 * g.n - 2) for g in seeded) == 576
    # the tables of G and of its G-e and G-v build their Graphs (verify.graphs_of)
    # only to send a row to Bareiss, and then once: the G-e tables of the 18
    # seeded graphs have such rows, those of the first four seeded graphs of
    # order 16 clear every threshold, and vertex-deletion reads no count
    built, real_graphs = [], verify.graphs_of
    monkeypatch.setattr(verify, "graphs_of", lambda adj: built.append(adj) or real_graphs(adj))
    for g in seeded + list(sample_graphs(16, 4, 17)):
        tab = verify.GraphTable(g.n, adjacency(g.n, [g]))
        stacks = [t.adj for t in (tab, tab.without_edges()[2])
                  if not all(real(*t.spectra, k)[1].all() for k in range(1, 2 * g.n - 1))]
        built.clear()
        assert verify.edge_interlacing(tab).passed.all() and verify.vertex_deletion(tab).passed.all()
        assert [a.tolist() for a in built] == [a.tolist() for a in stacks] and (len(stacks) > 0) == (g.n < 16), g


def test_orders_zero_and_one():
    # no statement applies to the graph on no vertices; K_1 is connected, so
    # three statements apply to it and hold
    notes = {"edge-interlacing": "no edges", "vertex-deletion": "n < 2", "matching-upper": "isolated vertex",
             "delta2": "hypothesis fails", "domination-bound": "isolated vertex", "m02-bound": "isolated vertex",
             "alpha-sandwich": "empty", "longest-path": "disconnected", "diameter-main": "disconnected",
             "diameter-3": "hypothesis fails", "tail-eigenvalue-bound": "disconnected"}
    k1 = {"alpha-sandwich": {"alpha": 1, "m_delta_up": 1, "m_0_Delta": 1}, "longest-path": {"ell": 0, "m_2_up": 0},
          "diameter-main": {"d": 0, "m_below_n-2": 0}}
    for tid, theorem in verify.GRAPH_THEOREMS.items():
        rep = theorem.check(Graph(0, ()))
        assert (rep.applicable, rep.passed, rep.witness) == (False, True, {"note": notes[tid]}), tid
        rep = theorem.check(make_empty(1))
        if tid in k1:
            assert (rep.applicable, rep.passed, rep.witness) == (True, True, k1[tid]), tid
        else:
            note = "index range empty" if tid == "tail-eigenvalue-bound" else notes[tid]
            assert (rep.applicable, rep.passed, rep.witness) == (False, True, {"note": note}), tid


# -- failing interlacing witnesses ------------------------------------------------------


def _spoil(monkeypatch, spoils):
    """Make verify.jacobi_batch add shift to the eigenvalues of every matrix
    equal to Q(h), for each (h, shift, bound) of spoils, and set its
    certified bound to bound unless that is None."""
    real = verify.jacobi_batch

    def spoiled(stack):
        vals, bounds = real(stack)
        for h, shift, bound in spoils:
            if stack.shape[1] != h.n:
                continue
            hit = (stack == q_float(h)).all(axis=(1, 2))
            vals[hit] += shift
            if bound is not None:
                bounds[hit] = bound
        return vals, bounds

    monkeypatch.setattr(verify, "jacobi_batch", spoiled)


def test_edge_interlacing_chain_witness(monkeypatch):
    # P_4 minus (1,2) is 2K_2 (2, 2, 0, 0); lowered to (2, 1/2, 0, 0) it
    # breaks the lower link q_2(G-e) >= q_3(G) = 2 - sqrt 2. P_4 minus (2,3),
    # raised to (5, 1, 0, 0), breaks the upper link at i = 1: an earlier link
    # of a later edge, so the first failing edge is the witness
    _spoil(monkeypatch, [(from_edges(4, [(0, 1), (2, 3)]), [0, -1.5, 0, 0], None),
                         (from_edges(4, [(0, 1), (1, 2)]), [2, 0, 0, 0], None)])
    rep = check_edge_interlacing(path_graph(4))
    assert not rep.passed and rep.witness.pop("edge") == [1, 2]
    assert rep.witness == pytest.approx({"i": 2, "qi_Ge": 0.5, "qnext_G": 2 - 2**0.5})


def test_edge_interlacing_count_witness(monkeypatch):
    # K_5 has spectrum (8, 3, 3, 3, 3) and K_5 - e (7.37, 3, 3, 3, 1.63).
    # Both lowered by 1/2 still interlace, but every K_5 - e row, with no
    # certificate, goes to Bareiss: at threshold 3 the lowered floats of K_5
    # count 4 eigenvalues below and inertia counts 1 for K_5 - e
    g = complete_graph(5)
    _spoil(monkeypatch, [(g, -0.5, None)] + [(remove_edge(g, u, v), -0.5, 10.0) for u, v in mask_pairs(5)])
    rep = check_edge_interlacing(g)
    assert (rep.passed, rep.witness) == (False, {"edge": [0, 1], "threshold": 3, "count_G": 4, "count_Ge": 1})


def test_edge_interlacing_counts_from_threshold_one(monkeypatch):
    """Q is positive semidefinite, so nothing lies below 0: the counts of G
    and G-e start at threshold 1, and no row goes to Bareiss at 0. P4 and
    C6 are bipartite, so 0 is an eigenvalue and their rows do not clear
    there."""
    calls, real = [], exact.graph_count_lt
    monkeypatch.setattr(exact, "graph_count_lt", lambda g, t, matrix="Q": calls.append(t) or real(g, t, matrix))
    for g in (path_graph(4), cycle_graph(6)):
        calls.clear()
        assert check_edge_interlacing(g).passed
        assert calls and 0 not in calls, calls


def test_vertex_deletion_witness(monkeypatch):
    # P_4 minus vertex 1 is the edge (1,2) on three vertices (2, 0, 0);
    # lowered to (2, -3/2, 0) it breaks q_3(G) = 2 - sqrt 2 <= q_2(G-v) + 1.
    # P_4 minus vertex 2, the edge (0,1), lowered to (1/2, 0, 0), breaks
    # q_2(G) = 2 <= q_1(G-v) + 1: an earlier i of a later vertex, so the
    # first failing vertex is the witness
    _spoil(monkeypatch, [(from_edges(3, [(1, 2)]), [0, -1.5, 0], None), (from_edges(3, [(0, 1)]), [-1.5, 0, 0], None)])
    rep = check_vertex_deletion(path_graph(4))
    assert not rep.passed
    assert rep.witness == pytest.approx({"vertex": 1, "i": 2, "q_next_G": 2 - 2**0.5, "q_i_Gv": -1.5})


# -- reports, catalog, search ------------------------------------------------------------


def test_report_serialization_is_stable():
    rep = check_matching_upper(cycle_graph(5))
    line = rep.to_json_line()
    assert json.loads(line) == {
        "theorem": "matching-upper",
        "instance": "Dhc",
        "passed": True,
        "applicable": True,
        "witness": {"m01": 2, "nu": 2, "strengthened": False},
    }
    assert "elapsed" not in json.loads(line)


def test_unknown_theorem_id():
    with pytest.raises(KeyError):
        search_counterexamples("no-such-theorem", (3, 5))
    assert verify.canonical_theorem_id("edge_interlacing") == "edge-interlacing"


def test_search_exhaustive_small():
    assert search_counterexamples("delta2", (2, 5)) == []
    assert search_counterexamples("edge-interlacing", (2, 4)) == []


def test_search_family_grids():
    assert search_counterexamples("diameter-3-equality", (7, 9)) == []
    assert search_counterexamples("cycle-matching", (3, 20)) == []


def test_search_rejects_unsampled_order_before_checking(monkeypatch):
    def called(*args, **kwargs):
        raise AssertionError("a checker ran before the range check")

    for tid, theorem in verify.GRAPH_THEOREMS.items():
        replaced = verify.GraphTheorem(tid, called, theorem.description, theorem.predicate)
        monkeypatch.setitem(verify.GRAPH_THEOREMS, tid, replaced)
    monkeypatch.setattr(sweeps, "exhaustive_failures", called)
    with pytest.raises(GraphError, match="got 17"):
        search_counterexamples("delta2", (8, 17), budget=1)
    with pytest.raises(GraphError, match="got 17"):
        search_counterexamples("edge-interlacing", (5, 17), budget=1)


def test_search_sampled():
    fails = search_counterexamples("diameter-3", (8, 8), budget=60, seed=5)
    assert fails == []


def test_sweep_summary_counts():
    res = sweeps.exhaustive_failures("matching-upper", 4)
    assert res.total == 64
    assert res.failures == []
    # graphs with an isolated vertex are not applicable
    assert res.applicable == sum(1 for g in enumerate_graphs(4) if min(degrees(g)) >= 1)


def test_sweep_agreement_small():
    res = sweeps.eig_inertia_agreement(4)
    assert res.mismatches == []
    assert res.checked == 64 * 7  # thresholds 0..2n-2 at n=4


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_intro_bounds(n):
    assert sweeps.intro_bound_failures(n) == []

