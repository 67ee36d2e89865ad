import json

import pytest

from qdist import exact, sweeps, verify
from qdist.graphs import (
    GraphError,
    complete_bipartite,
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    disjoint_union,
    gndra,
    gndt,
    k_copies,
    make_empty,
    path_graph,
)
from qdist.invariants import diameter
from qdist.verify import (
    EnumerationFilter,
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
    enumerate_graphs,
    graph_from_mask,
    graph_to_mask,
    is_k_c5,
    sample_graphs,
    search_counterexamples,
)


# -- enumeration and sampling ----------------------------------------------------


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(EnumerationFilter(3))) == 8
    assert sum(1 for _ in enumerate_graphs(EnumerationFilter(3, connected_only=True))) == 4
    assert sum(1 for _ in enumerate_graphs(EnumerationFilter(4, connected_only=True))) == 38


def test_enumeration_excludes_c5_labelings():
    base = EnumerationFilter(5, min_degree_at_least=2)
    with_c5 = sum(1 for _ in enumerate_graphs(base))
    without = sum(
        1 for _ in enumerate_graphs(EnumerationFilter(5, min_degree_at_least=2, exclude=is_k_c5))
    )
    assert with_c5 - without == 12


def test_enumeration_order_deterministic():
    masks = [graph_to_mask(g) for g in enumerate_graphs(EnumerationFilter(3))]
    assert masks == list(range(8))


def test_enumeration_limit():
    with pytest.raises(Exception):
        list(enumerate_graphs(EnumerationFilter(8)))


def test_mask_round_trip():
    for mask in range(64):
        assert graph_to_mask(graph_from_mask(4, mask)) == mask


def test_sampling_deterministic():
    a = [graph_to_mask(g) for g in sample_graphs(10, 50, seed=1)]
    b = [graph_to_mask(g) for g in sample_graphs(10, 50, seed=1)]
    c = [graph_to_mask(g) for g in sample_graphs(10, 50, seed=2)]
    assert a == b
    assert a != c


def test_sampling_filter():
    from qdist.invariants import diameter

    filt = EnumerationFilter(8, diameter_equals=3)
    for g in sample_graphs(8, 200, seed=3, filt=filt):
        assert diameter(g) == 3


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


def _bareiss_row(tid, params):
    """The row family_table should hold for one instance, from Bareiss on the member built here."""
    n, *rest = params
    lt = exact.graph_count_lt
    if tid == "cycle-matching":
        return (lt(cycle_graph(n), 1),)
    if tid == "family-counts":
        d, t, *a = rest
        return (lt(gndra(n, d, t, *a) if a else gndt(n, d, t), n - d + 1),)
    if tid == "family-gndra-q5":
        return (lt(gndra(n, n - 3, rest[0], 1), 4),)
    if tid == "diameter-3-equality":
        g = gndra(n, 3, 2, *rest) if rest else gndt(n, 3, 2)
        return (lt(g, n - 3), exact.graph_count_le(g, n - 3), diameter(g))
    d, t = rest
    g = gndt(n, d, t)
    return (lt(g, n - d + 1, matrix="L"), lt(g, n - d + 1))


def test_family_tables_equal_bareiss():
    for tid in verify.FAMILY_THEOREM_IDS:
        for n in range(7, 17):
            rows = verify.family_table(tid, n).rows
            assert list(rows) == list(verify.family_parameters(tid, n))
            for params, row in rows.items():
                assert row == _bareiss_row(tid, params), (tid, params)


def test_family_tables_send_only_threshold_eigenvalues_to_bareiss(monkeypatch):
    # C_n has the eigenvalue 1 when 3 divides n, every diameter-3 member
    # has n-3 with multiplicity n-4, and 7 family-counts members have
    # n-d+1; every other member of orders 7..16 is counted from the floats
    calls = []
    for name in ("graph_count_lt", "graph_count_le"):
        real = getattr(exact, name)
        monkeypatch.setattr(exact, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    verify.family_table.cache_clear()
    try:
        resolved = {
            tid: sum(verify.family_table(tid, n).exact_members for n in range(7, 17))
            for tid in verify.FAMILY_THEOREM_IDS
        }
    finally:
        verify.family_table.cache_clear()
    assert resolved == {
        "cycle-matching": 3,
        "family-counts": 7,
        "family-gndra-q5": 0,
        "diameter-3-equality": 75,
        "gndt-laplacian-count": 0,
    }
    assert len(calls) == 3 + 7 + 2 * 75


def test_one_off_family_call_counts_one_chunk(monkeypatch):
    # check_family_counts(32, 3, 2) needs one of the 4,060 members of order
    # 32; only the FAMILY_STACK chunk that holds it is built and counted
    counted = []
    real = verify.jacobi_batch
    monkeypatch.setattr(verify, "jacobi_batch", lambda mats: counted.append(len(mats)) or real(mats))
    verify.family_table.cache_clear()
    try:
        rep = check_family_counts(32, 3, 2)
    finally:
        verify.family_table.cache_clear()
    assert rep.passed and rep.witness["m_below_n-d+1"] == exact.graph_count_lt(gndt(32, 3, 2), 30)
    assert sum(counted) <= verify.FAMILY_STACK


def test_family_checkers_validate_before_any_table(monkeypatch):
    def built(*args):
        raise AssertionError("a family table was built")

    monkeypatch.setattr(verify, "family_table", built)
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
    # both must give Bareiss's count at every threshold, for G and each G-e
    seeded, integral = _point_graphs()
    for g in seeded + integral:
        tab = verify.GraphTable(g.n, [g])
        subs = [sub for rows, sub in map(tab.without_edge, range(g.n * (g.n - 1) // 2)) if rows.size]
        for t in range(0, 2 * g.n - 1):
            for sub in [tab] + subs:
                assert (sub.lt(t)[0], sub.le(t)[0]) == _bareiss_counts(sub.graphs[0], t), (sub.graphs[0], t)


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
    assert res.applicable == sum(
        1 for g in enumerate_graphs(EnumerationFilter(4, min_degree_at_least=1))
    )


def test_sweep_agreement_small():
    res = sweeps.eig_inertia_agreement(4)
    assert res.mismatches == []
    assert res.checked == 64 * 7  # thresholds 0..2n-2 at n=4


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_intro_bounds(n):
    assert sweeps.intro_bound_failures(n) == []

