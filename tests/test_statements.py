"""The per-graph statements as predicates over a graph table: the sweep
route (SweepTable) and the point-checker route (GraphTable) must agree, and
deliberately false statements must be caught with rechecked witnesses."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from labeled import enumerate_graphs, graph_from_mask, graph_to_mask, mask_pairs
from reference import delete_vertex
from test_invariants import longest_path_reference

from qdist import exact, jacobi, sweeps, verify
from qdist.cli import main
from qdist.graph6 import graph6_decode
from qdist.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    degrees,
    is_connected,
    make_empty,
    path_graph,
    remove_edge,
)
from qdist.invariants import matching_number
from qdist.jacobi import adjacency
from qdist.verify import sample_graphs

FALSE_ID = "false-delta1"
FALSE_LONGEST_PATH = "false-longest-path"


def false_delta1(tab):
    """delta2 without its hypothesis: delta >= 1 implies count below 1 <= nu - 1.
    False: K2 and C5 are counterexamples."""
    applicable = tab.mindeg >= 1
    m01 = tab.lt(1, applicable)
    return verify.Verdict.columns(applicable, m01 <= tab.nu - 1, "isolated vertex", m01=m01, nu=tab.nu)


def false_longest_path(tab):
    """longest-path one stronger: connected G implies count above 2 >=
    floor(ell / 2) + 1. False: P_4 is a counterexample."""
    applicable = tab.conn
    above2 = tab.n - tab.le(2, applicable)
    return verify.Verdict.columns(applicable, above2 >= tab.ell // 2 + 1, "disconnected", ell=tab.ell, m_2_up=above2)


@pytest.fixture
def false_statements(monkeypatch):
    for tid, predicate in [(FALSE_ID, false_delta1), (FALSE_LONGEST_PATH, false_longest_path)]:
        theorem = verify.GraphTheorem(tid, partial(verify.evaluate, tid, predicate), "negative control", predicate)
        monkeypatch.setitem(verify.GRAPH_THEOREMS, tid, theorem)


def test_negative_control_is_caught(false_statements, capsys):
    found = set()
    for n in range(1, 6):
        res = sweeps.exhaustive_failures(FALSE_ID, n)
        got = sorted(graph_to_mask(graph6_decode(rep.instance)) for rep in res.failures)
        want = sorted(
            graph_to_mask(g)
            for g in enumerate_graphs(n)
            if min(degrees(g)) >= 1 and exact.graph_count_lt(g, 1) > matching_number(g) - 1
        )
        assert got == want
        assert res.escalated == len(want)
        found.update((n, mask) for mask in got)
        for rep in res.failures:
            capsys.readouterr()
            assert main(["count", "--graph6", rep.instance, "--interval", "[0,1)"]) == 0
            count = int(capsys.readouterr().out)
            assert count == rep.witness["m01"] > rep.witness["nu"] - 1
    assert (2, 1) in found  # K2
    assert (5, graph_to_mask(cycle_graph(5))) in found


def test_longest_path_negative_control_is_caught(false_statements, capsys):
    """The sweep reads the true longest path, so it escalates exactly the
    labeled graphs that fail, and each witness rechecks through `qdist count`."""
    found = set()
    for n in range(1, 6):
        res = sweeps.exhaustive_failures(FALSE_LONGEST_PATH, n)
        got = sorted(graph_to_mask(graph6_decode(rep.instance)) for rep in res.failures)
        want = sorted(
            graph_to_mask(g)
            for g in enumerate_graphs(n)
            if is_connected(g) and n - exact.graph_count_le(g, 2) < longest_path_reference(g) // 2 + 1
        )
        assert got == want
        assert res.escalated == len(want)
        found.update((n, mask) for mask in got)
        for rep in res.failures:
            count = 0  # for n <= 2 every eigenvalue is at most 2n - 2 <= 2, and (2, 2n-2] is empty
            if n >= 3:
                capsys.readouterr()
                assert main(["count", "--graph6", rep.instance, "--interval", "(2,2n-2]"]) == 0
                count = int(capsys.readouterr().out)
            assert count == rep.witness["m_2_up"] < rep.witness["ell"] // 2 + 1
    assert (4, graph_to_mask(path_graph(4))) in found
    assert sum(mask_n == 5 for mask_n, _ in found) == 420


def test_searches_decode_at_most_rows_masks_per_call(false_statements, monkeypatch):
    """A search with budget 300 decodes its samples, and the 287 labeled
    graphs that the negative control escalates at n = 5, at most
    verify.ROWS masks per call of the one decoder (a search at n = 5 may
    first decode the class representatives, unless they are cached)."""
    sizes = []

    def recording(n, masks):
        sizes.append(len(masks))
        return jacobi.mask_adjacency(n, masks)

    monkeypatch.setattr(verify, "mask_adjacency", recording)
    monkeypatch.setattr(sweeps, "mask_adjacency", recording)
    for n in (5, 8):
        verify.search_counterexamples(FALSE_ID, (n, n), budget=300, seed=1)
    rows = verify.ROWS
    assert max(sizes) == rows and sizes[-4:] == [rows, 287 - rows, rows, 300 - rows], sizes


ROUTE_SAMPLE = 200


def _route_graphs(n):
    """Every labeled graph for n <= 5; ROUTE_SAMPLE seeded ones and every
    class representative for n = 6, 7; and at n = 8, beyond the class map,
    100 seeded G(8, 1/2) samples with P8, C8, K8 and K_{2,6}."""
    if n == 8:
        return [*sample_graphs(8, 100, seed=8), path_graph(8), cycle_graph(8), complete_graph(8), complete_bipartite(2, 6)]
    data = sweeps.sweep_data(n)
    if n <= 5:
        masks = np.arange(data.count, dtype=np.int64)
    else:
        masks = np.random.default_rng(n).choice(data.count, ROUTE_SAMPLE, replace=False)
        masks = np.union1d(data.reps, masks)
    return [graph_from_mask(n, int(m)) for m in masks]


def _tables(n):
    """The route graphs of order n as a sweep table and as a graph table over one adjacency stack."""
    adj = adjacency(n, _route_graphs(n))
    return sweeps.SweepTable(n, adj), verify.GraphTable(n, adj)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_sweep_and_graph_routes_agree(n, false_statements):
    by_rows, by_graphs = _tables(n)
    for tid, theorem in verify.GRAPH_THEOREMS.items():
        a, b = theorem.predicate(by_rows), theorem.predicate(by_graphs)
        assert np.array_equal(a.applicable, b.applicable), tid
        assert np.array_equal(a.passed, b.passed), tid


def _same_columns(a, b, names=("mindeg", "maxdeg", "conn", "nu", "alpha", "gamma", "kc5")):
    for name in names:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    if "conn" in names:
        assert np.array_equal(a.diam[a.conn], b.diam[b.conn])
        assert np.array_equal(a.ell[a.conn], b.ell[b.conn])
    assert np.abs(a.vals - b.vals).max(initial=0.0) < 1e-9
    for t in range(0, 2 * a.n - 1):
        assert np.array_equal(a.lt(t), b.lt(t)), t
        assert np.array_equal(a.le(t), b.le(t)), t


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_table_sources_agree_on_columns(n):
    """The columns and sub-tables every predicate reads, from the sweep
    kernels and from the per-graph kernels, equal in both directions. The
    shell's G-e and G-v stacks equal graphs.remove_edge and the reference
    delete_vertex on each route graph, in contract order (by row,
    then by edge bit of mask_pairs(n) or by vertex), and the GraphTables
    hold those Graphs, built back from their stacks by jacobi.graphs_of."""
    by_rows, by_graphs = _tables(n)
    _same_columns(by_rows, by_graphs)
    graphs, pairs = _route_graphs(n), mask_pairs(n)
    assert by_graphs.graphs == graphs
    found = [(i, k) for i, g in enumerate(graphs) for k, (u, v) in enumerate(pairs) if g.has_edge(u, v)]
    minus_e = [remove_edge(graphs[i], *pairs[k]) for i, k in found]
    minus_v = [delete_vertex(g, v) for g in graphs for v in range(n)]
    (rows_r, edges_r, sub_r), (rows_g, edges_g, sub_g) = by_rows.without_edges(), by_graphs.without_edges()
    assert list(zip(rows_r.tolist(), edges_r.tolist())) == found
    assert np.array_equal(rows_r, rows_g) and np.array_equal(edges_r, edges_g)
    assert np.array_equal(sub_r.adj, adjacency(n, minus_e)) and sub_g.graphs == minus_e
    _same_columns(sub_r, sub_g, names=())
    sub_r, sub_g = by_rows.without_vertices(), by_graphs.without_vertices()
    assert np.array_equal(sub_r.adj, adjacency(n - 1, minus_v)) and sub_g.graphs == minus_v
    assert np.abs(sub_r.vals - sub_g.vals).max(initial=0.0) < 1e-9


def test_order_one_tables_lose_their_vertex():
    """K1 minus its vertex is one graph of order 0 in both tables: a row of
    no eigenvalues, not connected."""
    k1 = adjacency(1, [make_empty(1)])
    for tab in (sweeps.sweep_data(1).table, verify.GraphTable(1, k1)):
        sub = tab.without_vertices()
        assert (sub.n, sub.count, sub.adj.shape, sub.vals.shape) == (0, 1, (1, 0, 0), (1, 0))
        assert sub.conn.tolist() == [False]
    assert verify.GraphTable(1, k1).without_vertices().graphs == [make_empty(0)]


# the point checkers' reports on C70, whose adjacency rows do not fit int64;
# domination-bound, alpha-sandwich and longest-path refuse order 70
C70_REPORTS = {
    "edge-interlacing": (True, {"edges_checked": 70}),
    "vertex-deletion": (True, {}),
    "matching-upper": (True, {"m01": 23, "nu": 35, "strengthened": True}),
    "delta2": (True, {"m01": 23, "nu": 35}),
    "m02-bound": (True, {"m02": 35, "nu": 35, "n": 70}),
    "diameter-main": (True, {"d": 35, "m_below_n-2": 70, "m_below_n-d+1": 70, "required": 35}),
    "diameter-3": (False, {"note": "hypothesis fails"}),
    "tail-eigenvalue-bound": (True, {"delta": 2, "count_above_n-3": 0}),
}


def test_point_checkers_run_on_a_cycle_of_order_70():
    g = cycle_graph(70)
    for tid, (applicable, witness) in C70_REPORTS.items():
        rep = verify.GRAPH_THEOREMS[tid].check(g)
        assert (rep.passed, rep.applicable, rep.witness) == (True, applicable, witness), tid


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_no_statement_escalates(n):
    """The sweep route passes every graph with n <= 6 by itself, so no row
    goes to the point checker (criterion 3 of the acceptance suite asserts
    the same at n = 7)."""
    for tid in verify.GRAPH_THEOREMS:
        assert sweeps.exhaustive_failures(tid, n).escalated == 0, tid


# -- the count statements' clause table -------------------------------------------

# zero-slack / applicable classes at n = 7, per statement and per clause
SLACK_CENSUS = {
    "matching-upper": ((71, 888), [(71, 888)]),
    "delta2": ((30, 510), [(30, 510)]),
    "domination-bound": ((233, 888), [(233, 888)]),
    "m02-bound": ((88, 888), [(88, 888)]),
    "alpha-sandwich": ((72, 1044), [(58, 1044), (22, 1044)]),
    "longest-path": ((112, 853), [(112, 853)]),
    "diameter-main": ((2, 853), [(2, 853), (0, 469)]),
    "diameter-3": ((3, 387), [(3, 387)]),
    "tail-eigenvalue-bound": ((169, 849), [(169, 849)]),
}


def _census(verdict):
    return int((verdict.applicable & (verdict.slack == 0)).sum()), int(verdict.applicable.sum())


def _alone(statement, k):
    """The statement with clause k as its only clause."""
    return dataclasses.replace(statement, clauses=(statement.clauses[k],))


def test_count_statements_are_the_nine_of_the_catalog():
    assert list(verify.COUNT_STATEMENTS) == list(verify.GRAPH_THEOREMS)[2:] == list(SLACK_CENSUS)
    for tid, statement in verify.COUNT_STATEMENTS.items():
        assert verify.GRAPH_THEOREMS[tid].predicate is statement


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_every_count_verdict_passes_exactly_where_its_slack_is_not_negative(n):
    for table in _tables(n):
        for tid, statement in verify.COUNT_STATEMENTS.items():
            v = statement(table)
            assert v.slack.dtype == np.int64, tid
            assert np.array_equal(v.passed, ~v.applicable | (v.slack >= 0)), tid


def test_slack_census_at_order_7():
    """The classes at n = 7 where a statement, or one of its clauses alone,
    holds with equality, out of the classes where it applies."""
    tab = sweeps.sweep_data(7).table
    for tid, statement in verify.COUNT_STATEMENTS.items():
        per_clause = [_census(_alone(statement, k)(tab)) for k in range(len(statement.clauses))]
        assert (_census(statement(tab)), per_clause) == SLACK_CENSUS[tid], tid


def test_a_guarded_clause_is_read_only_where_the_earlier_clauses_hold():
    """diameter-main's second clause counts and reports only the rows where
    its first clause holds: all of its hypothesis rows as written, none when
    the first clause is made to fail on every connected graph."""
    statement = verify.COUNT_STATEMENTS["diameter-main"]
    first, second = statement.clauses
    failing = dataclasses.replace(statement, clauses=(dataclasses.replace(first, bound=lambda tab: tab.n + 1), second))
    for s, reads_second in ((statement, True), (failing, False)):
        tab = sweeps.SweepTable(6, sweeps.sweep_data(6).table.adj)
        wheres, count_lt = [], tab.lt
        tab.lt = lambda t, where: wheres.append(where) or count_lt(t, where)
        v = s(tab)
        hypothesis = second.hypothesis(tab) & reads_second
        assert hypothesis.any() == reads_second and np.array_equal(wheres[1], hypothesis)
        assert np.array_equal(v.passed, ~tab.conn | reads_second)
        assert [("m_below_n-d+1" in v.witness(i)) for i in np.flatnonzero(tab.conn)] == hypothesis[tab.conn].tolist()


def _at(tab, x):
    """A clause's threshold or bound on the table: an int, a column name, or tab -> column."""
    return getattr(tab, x) if isinstance(x, str) else x(tab) if callable(x) else x


def _lowered(statement, k):
    """The statement with clause k's margin lowered by one: its bound moved one step towards the count."""
    clause = statement.clauses[k]
    step = -1 if clause.side == "<=" else 1

    def bound(tab):
        return _at(tab, clause.bound) + step

    clauses = list(statement.clauses)
    clauses[k] = dataclasses.replace(clause, bound=bound)
    return dataclasses.replace(statement, clauses=tuple(clauses))


# the `qdist count` interval of each count kind at threshold t (every Q eigenvalue lies in [0, 2n-2])
COUNT_INTERVALS = {"lt": "[-1,{})", "le": "[-1,{}]", "ge": "[{},2n+1]", "gt": "({},2n+1]"}

CONTROLS = [(tid, k) for tid, s in verify.COUNT_STATEMENTS.items() for k in range(len(s.clauses))]


@pytest.mark.parametrize("tid, k", CONTROLS, ids=[f"{tid}-{k}" for tid, k in CONTROLS])
def test_off_by_one_control_fails_where_its_clause_is_tight(tid, k, capsys):
    """Lowering one clause's margin by one makes its statement fail at
    n <= 7 on exactly the classes where that clause holds with equality,
    as many at n = 7 as the census counts; diameter-main's second clause is
    never tight there, so its control passes. The least failing class
    representative also fails the control's point checker, and its count
    witness rechecks through `qdist count`."""
    statement = verify.COUNT_STATEMENTS[tid]
    control, clause = _lowered(statement, k), statement.clauses[k]
    least = None
    for n in range(1, 8):
        data = sweeps.sweep_data(n)
        tight = _alone(statement, k)(data.table)
        v = control(data.table)
        assert np.array_equal(v.applicable & ~v.passed, tight.applicable & (tight.slack == 0)), n
        if least is None and not v.passed.all():
            least = graph_from_mask(n, int(data.reps[np.flatnonzero(~v.passed)[0]]))
    assert int((~v.passed).sum()) == SLACK_CENSUS[tid][1][k][0]
    if (tid, k) == ("diameter-main", 1):
        assert least is None
        return
    rep = verify.evaluate(tid, control, least)
    assert rep.applicable and not rep.passed, rep
    tab = verify.GraphTable(least.n, adjacency(least.n, [least]))
    t = int(np.broadcast_to(_at(tab, clause.threshold), (1,))[0])
    capsys.readouterr()
    assert main(["count", "--graph6", rep.instance, "--interval", COUNT_INTERVALS[clause.kind].format(t)]) == 0
    assert int(capsys.readouterr().out) == rep.witness[clause.name], rep


def test_generated_longest_path_control_fails_where_the_hand_written_one_does(false_statements, monkeypatch):
    generated = _lowered(verify.COUNT_STATEMENTS["longest-path"], 0)
    theorem = verify.GraphTheorem("lowered", partial(verify.evaluate, "lowered", generated), "control", generated)
    monkeypatch.setitem(verify.GRAPH_THEOREMS, "lowered", theorem)
    for n in range(1, 6):
        got, want = (sorted(rep.instance for rep in sweeps.exhaustive_failures(tid, n).failures)
                     for tid in ("lowered", FALSE_LONGEST_PATH))
        assert got == want, n
    assert len(got) == 420
