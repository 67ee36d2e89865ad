import csv
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qdist import jacobi, sweeps, verify
from qdist.cli import main
from qdist.graph6 import graph6_decode, graph6_encode
from qdist.graphs import cycle_graph, gndt, k_copies

REPO = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO / "docs" / "schemas"
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}  # child interpreters import qdist from this checkout


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "qdist.cli", *args],
        env=ENV,
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc


def test_family_gndt(capsys):
    for n, d, t in [(9, 3, 2), (8, 4, 3), (10, 5, 5)]:
        assert main(["family", "--kind", "gndt", "--n", str(n), "--d", str(d), "--t", str(t)]) == 0
        out = capsys.readouterr().out.strip()
        assert graph6_decode(out) == gndt(n, d, t), (n, d, t)


# one member of every kind: its options, graph6 line and JSON family label
FAMILY_OUTPUTS = [
    (["path", "--n", "5"], "DhC", "path(n=5)"),
    (["cycle", "--n", "5"], "Dhc", "cycle(n=5)"),
    (["complete", "--n", "4"], "C~", "complete(n=4)"),
    (["complete_bipartite", "--n", "5", "--a", "2"], "D]o", "complete_bipartite(a=2,n=5)"),
    (["complete_minus_edge", "--n", "5"], "D^{", "complete_minus_edge(n=5)"),
    (["gndt", "--n", "9", "--d", "3", "--t", "2"], "Hhzn^^n", "gndt(d=3,n=9,t=2)"),
    (["gndra", "--n", "9", "--d", "3", "--r", "2", "--a", "2"], "Hhzjz|~", "gndra(a=2,d=3,n=9,r=2)"),
    (["kcopies", "--k", "2", "--of", "cycle", "--n", "5"], "Ihc?GC@@G", "kcopies(k=2;of=cycle(n=5))"),
]


def test_family_json(capsys):
    for options, g6, label in FAMILY_OUTPUTS:
        assert main(["family", "--kind", *options]) == 0
        assert capsys.readouterr().out == g6 + "\n", options
        assert main(["family", "--kind", *options, "--format", "json"]) == 0
        g = graph6_decode(g6)
        obj = {"edges": [list(e) for e in g.edges()], "family": label, "graph6": g6, "n": g.n}
        assert capsys.readouterr().out == json.dumps(obj, sort_keys=True) + "\n", options


def test_family_kcopies(capsys):
    for inner, member, g6, label in [
        (["cycle", "--n", "5"], cycle_graph(5), "Ihc?GC@@G", "kcopies(k=2;of=cycle(n=5))"),
        (["gndt", "--n", "7", "--d", "3", "--t", "2"], gndt(7, 3, 2), "MhznW?@?G?_M?\\?\\_",
         "kcopies(k=2;of=gndt(d=3,n=7,t=2))"),
    ]:
        assert main(["family", "--kind", "kcopies", "--k", "2", "--of", *inner]) == 0
        out = capsys.readouterr().out
        assert out == g6 + "\n", inner
        assert graph6_decode(out.strip()) == k_copies(member, 2), inner
        assert main(["family", "--kind", "kcopies", "--k", "2", "--of", *inner, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["family"] == label, inner


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


K5E_QUOTIENTS = {
    # an equitable partition and one that is not, in both formats
    ("2,3,4;0,1", "json"): '{"blocks": [[2, 3, 4], [0, 1]], "equitable": true, "graph6": "D^{", '
                           '"matrix": [["6", "2"], ["3", "3"]]}\n',
    ("2,3,4;0,1", "text"): "graph6: D^{\nblocks: [[2, 3, 4], [0, 1]]\nmatrix: [['6', '2'], ['3', '3']]\n"
                           "equitable: True\n",
    ("0;4,3,2,1", "json"): '{"blocks": [[0], [1, 2, 3, 4]], "equitable": false, "graph6": "D^{", '
                           '"matrix": [["3", "3"], ["3/4", "27/4"]]}\n',
    ("0;4,3,2,1", "text"): "graph6: D^{\nblocks: [[0], [1, 2, 3, 4]]\nmatrix: [['3', '3'], ['3/4', '27/4']]\n"
                           "equitable: False\n",
}


def test_quotient_json(capsys):
    for (blocks, fmt), want in K5E_QUOTIENTS.items():
        args = ["quotient", "--family", "complete_minus_edge,n=5", "--blocks", blocks, "--format", fmt]
        assert main(args) == 0
        assert capsys.readouterr().out == want, (blocks, fmt)


@pytest.mark.parametrize(
    "blocks, message",
    [
        ("0,1;;2,3,4", "partition block is empty"),
        ("0,1;2,3,4,5", "partition vertex 5 out of range for n=5"),
        ("0,1;1,2,3,4", "vertex 1 appears in two partition blocks"),
        ("0,1;2,3", "partition does not cover every vertex"),
    ],
    ids=["empty", "range", "twice", "cover"],
)
def test_quotient_partition_errors(capsys, blocks, message):
    assert main(["quotient", "--family", "complete_minus_edge,n=5", "--blocks", blocks]) == 2
    assert capsys.readouterr() == ("", f"error: graph D^{{: {message}\n")


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


def test_verify_csv_quotes_family_instances(monkeypatch, capsys):
    # a family instance such as gndra(n=7,d=4,r=2,a=1) holds commas
    real = verify.check_gndra_q5
    monkeypatch.setattr(verify, "check_gndra_q5", lambda *a, **k: dataclasses.replace(real(*a, **k), passed=False))
    assert main(["verify", "--theorem", "family-gndra-q5", "--family-max", "8", "--output", "csv"]) == 1
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    want = [real(n, t).instance for n in (7, 8) for t in range(2, n - 3)]
    assert rows == [["theorem", "instance", "passed"]] + [["family-gndra-q5", i, "False"] for i in want]
    assert "," in want[0]


def test_campaign_script_reports_the_verify_steps(tmp_path, capsys):
    """scripts/run_verification.py runs the steps qdist verify prints, one CSV row each."""
    out = tmp_path / "report"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_verification.py"),
         "--exhaustive", "4", "--family-max", "8", "--out", str(out)],
        env=ENV,
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
    rss = [float(row["peak_rss_mb"]) for row in rows]
    assert rss[0] > 0 and rss == sorted(rss), rss
    assert Path(f"{out}.jsonl").read_text() == ""


def test_bench_pairs_stops_its_child_on_sigterm(tmp_path):
    """SIGTERM to scripts/bench_pairs.py kills the perfbench/run.py it waits
    for, here a stub in a throwaway checkout that writes its pid and sleeps."""
    bench = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": []}
    stub = "import os, pathlib, time\npathlib.Path('pid').write_text(str(os.getpid()))\ntime.sleep(60)\n"
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(stub)
        (root / "BENCHMARK.json").write_text(json.dumps(bench))
        git = ["git", "-C", str(root), "-c", "user.name=stub", "-c", "user.email=stub@localhost"]
        for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "stub"]):
            subprocess.run(git + cmd, check=True, capture_output=True)
    pid_file = tmp_path / "parent" / "pid"
    proc = subprocess.Popen([sys.executable, str(REPO / "scripts" / "bench_pairs.py"), "--parent",
                             str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                             "--out", str(tmp_path / "out.json")], stderr=subprocess.DEVNULL)
    pid = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()) and time.monotonic() < deadline:
            time.sleep(0.05)
        pid = int(pid_file.read_text())
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"stub perfbench/run.py {pid} still running")
        assert proc.returncode == 128 + signal.SIGTERM
        assert not (tmp_path / "out.json").exists()
    finally:
        proc.kill()
        proc.wait()
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_family_spectra_script_prints_one_solver_line_per_member():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "family_spectra.py"), "--max-n", "8"],
        env=ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    members = [i for i, line in enumerate(lines) if not line.startswith(" ")]
    # K_n - e for n = 5..8, C_n for n = 3..8, G(n,3,2) and G(n,3,2,a) for n = 7, 8
    assert len(members) == 4 + 6 + (1 + 2) + (1 + 3)
    closed = []
    for start, end in zip(members, members[1:] + [len(lines)]):
        block = lines[start:end]
        solver = [line.removeprefix("  solver: ") for line in block if line.startswith("  solver: ")]
        assert len(solver) == 1, block[0]
        for line in block:
            if line.startswith("  closed: "):
                assert line.removeprefix("  closed: ") == solver[0], block[0]
                closed.append(block[0])
    # the twin-quotient spectra: K_n - e for n = 5..8 and G(n,3,2,a) for n = 7, 8
    assert closed == [f"complete-minus-edge n={n}" for n in range(5, 9)] + [
        f"gndra(n={n},d=3,r=2,a={a})" for n in (7, 8) for a in range(1, n - 4)
    ]


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
    # an empty value is still the input named, not a fall-through to stdin
    for option, message in (("--graph6", "empty graph6 string"), ("--file", "cannot read --file"),
                            ("--family", "empty family spec")):
        proc = run_cli(["count", option, "", "--interval", "[0,1)"], stdin="")
        assert (proc.returncode, proc.stdout) == (2, ""), option
        assert message in proc.stderr, option


@pytest.mark.parametrize(
    "args, text",
    [
        (["count", "--graph6", "Dhc", "--interval", "[0,/2n)"], "/2n"),
        (["spectrum", "--graph6", "Dhc", "--threshold", "abc"], "abc"),
        (["spectrum", "--family", "gndt,n=9,d=x,t=2"], "d=x"),
        (["quotient", "--graph6", "Dhc", "--blocks", "0,a;1,2,3,4"], "0,a"),
    ],
    ids=["count", "spectrum", "family", "blocks"],
)
def test_unparsable_literals_are_usage_errors_naming_their_text(args, text):
    proc = run_cli(args)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and repr(text) in proc.stderr, proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["spectrum", "--family", "gndt,n=9,d=3,t=2,n=10"], "family parameter 'n' is given twice"),
        (["spectrum", "--family", "nope,n=3"],
         "unknown family kind 'nope'; known kinds: path, cycle, complete, complete_bipartite, "
         "complete_minus_edge, gndt, gndra"),
        (["spectrum", "--family", "kcopies,k=2"], "kcopies is built only by `qdist family --kind kcopies --of KIND`"),
        (["family", "--kind", "kcopies", "--k", "2", "--of", "kcopies"], "argument --of: invalid choice: 'kcopies'"),
        (["family", "--kind", "gndt", "--n", "9", "--d", "3", "--t", "2", "--of", "cycle"],
         "--of is for --kind kcopies only, not gndt"),
        (["family", "--kind", "kcopies", "--of", "cycle", "--n", "5"], "kcopies needs --k"),
        (["search", "--theorem", "delta2", "--n-min", "0", "--n-max", "3"], "--n-min must be at least 1, got 0"),
    ],
    ids=["repeated-key", "unknown-kind", "kcopies-string", "of-kcopies", "of-ignored", "kcopies-without-k", "n-min"],
)
def test_bad_family_and_range_input_is_a_usage_error_naming_it(args, message):
    proc = run_cli(args)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stdout
    assert message in proc.stderr, proc.stderr


def test_count_resolves_every_interval_before_printing(tmp_path):
    """A symbolic interval that is empty at the order of some input graph
    is a usage error before any count is printed, and it names the graph."""
    batch = tmp_path / "k3_k2_k3.g6"
    batch.write_text("Bw\nA_\nBw\n")  # K3, K2, K3: (2, 2n-2] is (2, 2] at n = 2
    for option, value, graph in (("--file", str(batch), "A_"), ("--graph6", "@", "@")):  # @ is K1
        proc = run_cli(["count", option, value, "--interval", "(2,2n-2]"])
        assert (proc.returncode, proc.stdout) == (2, ""), option
        assert f"(graph {graph})" in proc.stderr, option


@pytest.mark.parametrize(
    "args, message",
    [
        (["invariants"], "diameter of the empty graph is undefined"),
        (["quotient", "--blocks", "0;1"], "partition vertex 0 out of range for n=0"),
    ],
)
def test_batch_commands_reject_a_graph_before_printing(tmp_path, args, message):
    """invariants and quotient compute every graph of a --file batch before
    the first line, so a graph they reject leaves stdout empty, and the
    error names that graph."""
    batch = tmp_path / "k2_k0_k3.g6"
    batch.write_text("A_\n?\nBw\n")  # K2, the empty graph on no vertices, K3
    proc = run_cli([*args, "--file", str(batch)])
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stdout
    assert f"error: graph ?: {message}" in proc.stderr, proc.stderr


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
    assert main(["search", "--theorem", "delta2", "--n-min", "0", "--n-max", "3"]) == 2
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


def test_a_fresh_process_runs_one_thread_and_only_the_modules_it_needs():
    """In a fresh interpreter: `import qdist` sets OPENBLAS_NUM_THREADS to 1
    when it is unset and keeps a value that is set; `import qdist.cli` leaves
    one thread (checked where /proc/self/task exists); and a sampled search
    at n = 8 and a family verify load neither qdist.sweeps nor qdist.spectral."""
    code = (
        "import os, sys\n"
        "import qdist\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1', os.environ['OPENBLAS_NUM_THREADS']\n"
        "from qdist.cli import main\n"
        "if os.path.isdir('/proc/self/task'):\n"
        "    threads = os.listdir('/proc/self/task')\n"
        "    assert len(threads) == 1, threads\n"
        "assert main(['search', '--theorem', 'delta2', '--n-min', '8', '--n-max', '8', '--budget', '2']) == 0\n"
        "assert main(['verify', '--theorem', 'family-counts', '--family-max', '8']) == 0\n"
        "loaded = [m for m in ('qdist.sweeps', 'qdist.spectral') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = {k: v for k, v in ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code = "import os, qdist\nassert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n"
    proc = subprocess.run([sys.executable, "-c", code], env={**env, "OPENBLAS_NUM_THREADS": "2"}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
