"""Self-tests of the benchmark at n <= 5 and small budgets.

    python3 -m pytest perfbench -q

They gate counters, verdicts and the output format, never times, and show
that each check rejects a corrupted input.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

import crosscheck
import layers
import oracles
import run
import workloads
import inprocess
from inprocess import run_operations
from tracer import Tracer

sys.path.insert(0, str(run.SRC))
import qdist.cli  # noqa: E402
import qdist.sweeps  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- reference counts ---------------------------------------------------------------------


def test_counting_formulas_match_enumeration():
    for n in range(1, 6):
        graphs = [oracles.adjacency_from_mask(n, m) for m in range(oracles.labeled_graphs(n))]
        assert oracles.without_isolated(n) == sum(min(oracles.degrees(n, a)) > 0 for a in graphs)
        assert oracles.connected(n) == sum(oracles.is_connected(n, a) for a in graphs)
    assert oracles.without_isolated(7) == 1_887_284
    assert oracles.connected(7) == 1_866_256


def test_invariants_on_small_named_graphs():
    c5 = oracles.cycle(5)
    assert oracles.matching_number(5, c5) == 2
    assert oracles.independence_number(5, c5) == 2
    assert oracles.domination_number(5, c5) == 2
    assert oracles.diameter(5, c5) == 2
    assert oracles.longest_path(5, c5) == 4
    assert oracles.every_component_c5(5, c5)
    assert oracles.bipartite_components(5, c5) == 0
    assert oracles.bipartite_components(3, [0b010, 0b001, 0]) == 2  # an edge and a lone vertex


def test_sturm_counts_handle_multiplicities():
    k4 = [0b1110, 0b1101, 0b1011, 0b0111]  # Q(K4) has eigenvalues 6, 2, 2, 2
    M = oracles.matrix(4, k4)
    assert oracles.sturm_counts(M, 2) == (0, 3)
    assert oracles.sturm_counts(M, 3) == (3, 3)
    assert oracles.sturm_counts(M, 6) == (3, 4)
    assert oracles.float_counts(np.array([6.0, 2.0, 2.0, 2.0]), 2) is None


def test_family_ranges_match_the_program_grids():
    for tid in workloads.FAMILY_STATEMENTS:
        assert workloads.expected_grid_instances(tid, 10) == len(qdist.verify.family_grid_reports(tid, 7, 10))


# -- output checks -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_verify():
    workload = workloads.Exhaustive(n_max=5, family_max=9)
    outcomes, _ = run_operations(qdist.cli, workload.operations(seed=1, jobs=1))
    return workload, outcomes[0]


def _with_stdout(outcome, text):
    return dataclasses.replace(outcome, stdout=text)


def test_exhaustive_output_passes(small_verify):
    workload, out = small_verify
    check = workload.check([out])
    assert (check.attempted, check.failed, check.errors) == (1 + 11 * 5 + 5, 0, [])


def test_applicable_count_off_by_one_is_rejected(small_verify):
    workload, out = small_verify
    bad = out.stdout.replace("matching-upper n=5: 768/1024", "matching-upper n=5: 769/1024")
    assert bad != out.stdout
    check = workload.check([_with_stdout(out, bad)])
    assert len(check.errors) == 1 and "applicable should be 768" in check.errors[0]


def test_failing_line_is_a_failed_operation(small_verify):
    workload, out = small_verify
    line = "delta2 n=5: 241/1024 applicable, 0 escalated, 0 failures"
    assert line in out.stdout
    failing = out.stdout.replace(line, line.replace("0 failures", "1 failures"))
    check = workload.check([_with_stdout(out, failing + 'FAIL {"theorem": "delta2"}\n')])
    assert (check.failed, check.errors) == (1, [])
    check = workload.check([_with_stdout(out, failing)])  # no FAIL line to back it
    assert check.failed == 1 and check.errors


def test_missing_line_and_exit_status_fail(small_verify):
    workload, out = small_verify
    lines = out.stdout.splitlines()
    assert workload.check([_with_stdout(out, "\n".join(lines[1:]))]).failed == 1
    assert workload.check([dataclasses.replace(out, returncode=2)]).failed == 1


def test_search_output_checks():
    clean = workloads.Outcome(["search"], 0, "", "# qdist search ...\n# 0 failures\n")
    assert workloads.check_search_output(clean).failed == 0
    found = workloads.Outcome(["search"], 1, '{"theorem": "delta2"}\n', "# 1 failures\n")
    assert workloads.check_search_output(found).failed == 1
    silent = workloads.Outcome(["search"], 0, '{"theorem": "delta2"}\n', "# 0 failures\n")
    assert workloads.check_search_output(silent).errors


# -- count tables --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_tables():
    for n in range(1, 6):
        qdist.sweeps.exhaustive_failures("edge-interlacing", n, jobs=1)  # builds thresholds 0..2n-2
    return {n: SimpleNamespace(counts=dict(qdist.sweeps.sweep_data(n).counts)) for n in range(1, 6)}


def _corrupt(tables, n, t, which, mask):
    counts = dict(tables[n].counts)
    lt, le = (a.copy() for a in counts[t])
    (lt if which == "lt" else le)[mask] += 1
    counts[t] = (lt, le)
    return {**tables, n: SimpleNamespace(counts=counts)}


def test_count_tables_pass(small_tables):
    assert crosscheck.check_sweep_tables(small_tables, seed=1) == []


def test_count_table_off_by_one_is_rejected(small_tables):
    n = 5
    assert crosscheck.check_sweep_tables(_corrupt(small_tables, n, 0, "le", 17), 1)  # bipartite components
    assert crosscheck.check_sweep_tables(_corrupt(small_tables, n, 2 * n - 2, "lt", 3), 1)  # 2n-2 bound
    clear = next(  # a graph with no eigenvalue near 1, so eigvalsh decides its count
        m for m in range(1024)
        if oracles.float_counts(oracles.q_spectrum(n, oracles.adjacency_from_mask(n, m)), 1.0) is not None
    )
    assert crosscheck.check_sweep_tables(_corrupt(small_tables, n, 1, "lt", clear), 1)


# -- traced runs -----------------------------------------------------------------------------


def _traced(workload, seed, tmp_path):
    """A traced round as inprocess.py runs it: outcomes, wall, metrics, errors."""
    operations = workload.operations(seed, jobs=1)
    return inprocess.traced_round(qdist, workload, operations, seed, tmp_path / "spans.json")


def _recorded(operations):
    """What the wrappers record over the operations."""
    tracer = Tracer()
    records = layers.instrument(tracer, qdist)
    try:
        run_operations(qdist.cli, operations)
    finally:
        tracer.restore()
    return records


def test_layer_metrics_on_a_small_verify(tmp_path):
    workload = workloads.Exhaustive(n_max=4, family_max=8)
    outcomes, _, m, errors = _traced(workload, 1, tmp_path)
    assert workload.check(outcomes).errors == [] and errors == []
    assert set(m) | {"trace.overhead_s"} == {name for name, _, _ in layers.PER_LAYER}
    assert 0.0 <= m["sweeps.certified_share"] <= 1.0
    assert m["other_s"] >= 0.0
    assert not hasattr(qdist.verify.GRAPH_THEOREMS["delta2"].check, "__wrapped__")  # wrappers removed
    assert not hasattr(qdist.sweeps.counts_pair, "__wrapped__")


def test_graph_reports_match_and_corruption_is_rejected(tmp_path):
    workload = workloads.Sampled(n_min=8, n_max=8, budget=2)
    outcomes, _, _, errors = _traced(workload, 3, tmp_path)
    assert workload.check(outcomes).errors == [] and errors == []
    records = _recorded(workload.operations(3))
    tid, g, rep = next(r for r in records.graph_reports if r[0] == "matching-upper" and r[2].applicable)
    bad = dataclasses.replace(rep, witness={**rep.witness, "m01": rep.witness["m01"] + 1})
    assert crosscheck.check_graph_reports([(tid, g, bad)], seed=3)


def test_family_reports_match_and_corruption_is_rejected(tmp_path):
    workload = workloads.Families(family_max=8)
    outcomes, _, _, errors = _traced(workload, 1, tmp_path)
    assert workload.check(outcomes).errors == [] and errors == []
    records = _recorded(workload.operations(1))
    tid, args, rep = next(r for r in records.family_reports if r[0] == "diameter-3-equality")
    bad = dataclasses.replace(rep, witness={**rep.witness, "mult_at_n-3": rep.witness["mult_at_n-3"] - 1})
    assert crosscheck.check_family_reports([(tid, args, bad)], seed=1)


def test_traced_run_that_sees_nothing_is_not_correct(tmp_path, monkeypatch):
    small = workloads.Families(family_max=8)
    monkeypatch.setitem(inprocess.WORKLOADS, small.name, small)
    out = tmp_path / "round.json"
    argv = ["--workload", small.name, "--seed", "1", "--trace", "1", "--out", str(out)]
    # A checker renamed away: its wrapper has no target.
    monkeypatch.setattr(layers, "FAMILY_CHECKERS", {**layers.FAMILY_CHECKERS, "check_renamed": "cycle-matching"})
    assert inprocess.main(argv) == 0
    assert "could not wrap qdist.verify.check_renamed" in json.loads(out.read_text())["errors"]
    # Checkers the wrappers never see, as when a caller imports them directly.
    monkeypatch.setattr(layers, "FAMILY_CHECKERS", {})
    assert inprocess.main(argv) == 0
    errors = json.loads(out.read_text())["errors"]
    assert errors == [f"traced run recorded 0 family_reports, expected {small.decided_checks()}"]


def test_tracer_self_times_and_iterator_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.timed(lambda: None, "inner")
    outer = tracer.timed(lambda: [inner(), inner()], "outer")
    outer()
    # outer 0..5, inner 1..2 and 3..4
    assert tracer.self_times() == {"outer": 3, "inner": 2}
    gen = tracer.timed_iterator(lambda: iter([1, 2]), "step")
    assert list(gen()) == [1, 2]
    assert tracer.calls()["step"] == 3  # two items and the exhausted step


# -- the command ----------------------------------------------------------------------------


def test_result_line_names_every_end_to_end_metric(monkeypatch):
    small = workloads.Exhaustive(n_max=3, family_max=7)
    monkeypatch.setitem(run.WORKLOADS, small.name, small)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", small.name, "--seed", "1", "--seconds", "0.1", "--trace", "0"]) == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1 + 11 * 3 + 5, 0)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_file_lists_the_reported_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    )


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampled", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
