import csv
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qdist import jacobi, sweeps, verify
from qdist.cli import main
from qdist.graph6 import graph6_decode, graph6_encode
from qdist.graphs import cycle_graph, gndt

REPO = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "qdist.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


def test_family_gndt(capsys):
    assert main(["family", "--kind", "gndt", "--n", "9", "--d", "3", "--t", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert graph6_decode(out) == gndt(9, 3, 2)


def test_family_json(capsys):
    assert main(["family", "--kind", "cycle", "--n", "5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 5 and obj["graph6"] == graph6_encode(cycle_graph(5))


def test_family_kcopies(capsys):
    assert main(["family", "--kind", "kcopies", "--k", "2", "--of", "cycle", "--n", "5"]) == 0
    g = graph6_decode(capsys.readouterr().out.strip())
    assert g.n == 10 and g.edge_count() == 10


def test_count_c5(capsys):
    c5 = graph6_encode(cycle_graph(5))
    assert main(["count", "--graph6", c5, "--interval", "[0,1)"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_count_symbolic_interval(capsys):
    g = graph6_encode(gndt(9, 3, 2))
    assert main(["count", "--graph6", g, "--interval", "[0,n-3)"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_count_stdin_batch():
    lines = "\n".join(graph6_encode(cycle_graph(n)) for n in (5, 6)) + "\n"
    proc = run_cli(["count", "--interval", "[0,1)"], stdin=lines)
    assert proc.returncode == 0
    assert proc.stdout.split() == ["2", "1"]


def test_spectrum_json(capsys):
    assert main(["spectrum", "--family", "complete,n=4", "--threshold", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["exact_counts"] == {"2": 0}
    assert obj["eigenvalues"][0] == pytest.approx(6.0, abs=1e-9)


def test_invariants_json(capsys):
    assert main(["invariants", "--family", "cycle,n=5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["nu"] == 2 and obj["gamma_dom"] == 2 and obj["diam"] == 2


def test_quotient_json(capsys):
    assert main(["quotient", "--family", "complete_minus_edge,n=5", "--blocks", "2,3,4;0,1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matrix"] == [["6", "2"], ["3", "3"]]
    assert obj["equitable"] is True


def test_verify_exit_zero(capsys):
    assert main(["verify", "--theorem", "delta2", "--exhaustive", "5"]) == 0
    out = capsys.readouterr().out
    assert main(["verify", "--theorem", "delta2", "--exhaustive", "5", "--jobs", "2"]) == 0  # accepted, ignored
    assert capsys.readouterr().out == out


def test_verify_family_theorem(capsys):
    assert main(["verify", "--theorem", "diameter-3-equality", "--family-max", "9"]) == 0
    # the family grids alone are a valid selection
    capsys.readouterr()
    assert main(["verify", "--theorem", "all", "--exhaustive", "0", "--family-max", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" grid ")[0] for line in lines] == list(verify.FAMILY_THEOREM_IDS)


def test_campaign_script_reports_the_verify_steps(tmp_path, capsys):
    """scripts/run_verification.py runs the steps qdist verify prints, one CSV row each."""
    out = tmp_path / "report"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_verification.py"),
         "--exhaustive", "4", "--family-max", "8", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    capsys.readouterr()
    assert main(["verify", "--theorem", "all", "--exhaustive", "4", "--family-max", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    with open(f"{out}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["summary"] for row in rows] == lines
    assert len(lines) == 4 * len(verify.GRAPH_THEOREMS) + len(verify.FAMILY_THEOREM_IDS)
    for row in rows:
        assert row["summary"].startswith(row["theorem"] + " ") and row["failures"] == "0"
        assert float(row["seconds"]) >= 0
    assert Path(f"{out}.jsonl").read_text() == ""


def test_family_spectra_script_prints_one_solver_line_per_member():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "family_spectra.py"), "--max-n", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    members = [i for i, line in enumerate(lines) if not line.startswith(" ")]
    # K_n - e for n = 5..8, C_n for n = 3..8, G(n,3,2) and G(n,3,2,a) for n = 7, 8
    assert len(members) == 4 + 6 + (1 + 2) + (1 + 3)
    for start, end in zip(members, members[1:] + [len(lines)]):
        assert sum(line.startswith("  solver: ") for line in lines[start:end]) == 1, lines[start]


def test_search_cli(capsys):
    assert main(["search", "--theorem", "cycle-matching", "--n-min", "3", "--n-max", "15"]) == 0


def test_usage_errors_exit_two():
    assert main(["count", "--graph6", "Dhc", "--interval", "[5,1)"]) == 2
    assert main(["count", "--graph6", "Dhc", "--interval", "[0,1/0)"]) == 2
    assert main(["spectrum", "--graph6", "Dhc", "--threshold", "1/0"]) == 2
    assert main(["verify", "--theorem", "no-such-theorem"]) == 2
    assert main(["search", "--theorem", "delta2", "--n-min", "8", "--n-max", "8", "--budget", "-5"]) == 2
    assert main(["count", "--file", "/nonexistent", "--interval", "[0,1)"]) == 2
    proc = run_cli(["family", "--kind", "nope"])
    assert proc.returncode == 2


def _forbid(monkeypatch, module, name):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} ran before the range check")

    monkeypatch.setattr(module, name, called)


def test_out_of_range_orders_exit_two_before_any_work(monkeypatch):
    _forbid(monkeypatch, sweeps, "exhaustive_failures")
    _forbid(monkeypatch, sweeps, "sweep_data")
    _forbid(monkeypatch, verify, "family_grid_reports")
    _forbid(monkeypatch, verify, "iter_family_reports")
    assert main(["verify", "--theorem", "all", "--exhaustive", "8"]) == 2
    assert main(["verify", "--theorem", "delta2", "--exhaustive", "-1"]) == 2
    assert main(["verify", "--theorem", "all", "--exhaustive", "0", "--family-max", "200"]) == 2
    assert main(["search", "--theorem", "diameter-3-equality", "--n-min", "7", "--n-max", "300"]) == 2
    # selections that check nothing
    assert main(["verify", "--theorem", "all", "--exhaustive", "0", "--family-max", "-5"]) == 2
    assert main(["verify", "--theorem", "delta2", "--exhaustive", "0"]) == 2
    assert main(["search", "--theorem", "family-counts", "--n-min", "1", "--n-max", "6"]) == 2


def test_failed_certificate_exits_two(monkeypatch, capsys):
    real = np.linalg.eigh

    def shifted(a):
        w, v = real(a)
        return w + 1e-10, v

    monkeypatch.setattr(jacobi.np.linalg, "eigh", shifted)
    assert main(["spectrum", "--family", "complete,n=5"]) == 2
    assert "certificate failed" in capsys.readouterr().err


def test_failed_family_certificate_exits_two_without_a_grid_line(monkeypatch, capsys):
    real = np.linalg.eigh

    def shifted(a):
        w, v = real(a)
        return w + 1e-10, v

    verify.family_table.cache_clear()
    monkeypatch.setattr(jacobi.np.linalg, "eigh", shifted)
    assert main(["verify", "--theorem", "family-counts", "--family-max", "8"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "certificate failed" in out.err


def test_failed_point_certificate_exits_two_without_a_report_line(monkeypatch, capsys):
    real = np.linalg.eigh

    def shifted(a):
        w, v = real(a)
        return w + 1e-10, v

    monkeypatch.setattr(jacobi.np.linalg, "eigh", shifted)
    assert main(["search", "--theorem", "edge-interlacing", "--n-min", "8", "--n-max", "8"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "certificate failed" in out.err


def test_malformed_graph6_exit_two():
    assert main(["count", "--graph6", "B" + chr(200), "--interval", "[0,1)"]) == 2


def test_spectrum_output_matches_schema(capsys):
    main(["spectrum", "--family", "cycle,n=5", "--threshold", "1", "--format", "json"])
    obj = json.loads(capsys.readouterr().out)
    jsonschema.validate(obj, load_schema("spectrum_report.schema.json"))


def test_invariants_output_matches_schema(capsys):
    main(["invariants", "--family", "cycle,n=5"])
    obj = json.loads(capsys.readouterr().out)
    jsonschema.validate(obj, load_schema("invariants.schema.json"))


def test_report_lines_match_schema():
    from qdist.verify import check_matching_upper, check_diameter_main

    schema = load_schema("theorem_report.schema.json")
    for rep in (check_matching_upper(cycle_graph(5)), check_diameter_main(cycle_graph(6))):
        jsonschema.validate(json.loads(rep.to_json_line()), schema)
