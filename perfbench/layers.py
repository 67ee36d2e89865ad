"""Spans around qdist's layers, and the per-layer metrics derived from them.

Each wrapper replaces a name where qdist's own callers look it up at call
time: a module attribute (``sweeps.counts_pair``, ``verify.matching_number``)
or an entry of ``verify.GRAPH_THEOREMS``. ``cli``, ``graph6`` and
``spectral`` get no spans; their time falls into the enclosing span, or
into ``other_s`` when no span is open.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from tracer import Tracer
from workloads import FAMILY_STATEMENTS, GRAPH_STATEMENTS

INVARIANTS = {
    "matching_number": "matching",
    "independence_number": "independence",
    "domination_number": "domination",
    "diameter": "diameter",
    "longest_path_length": "longest_path",
}
FAMILY_CHECKERS = {
    "check_cycle_matching": "cycle-matching",
    "check_family_counts": "family-counts",
    "check_gndra_q5": "family-gndra-q5",
    "check_diameter3_equality": "diameter-3-equality",
    "check_gndt_laplacian_count": "gndt-laplacian-count",
}
FAMILY_CONSTRUCTORS = ("cycle_graph", "gndt", "gndra")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("jacobi.batch_s", "s", "lower"),
        ("jacobi.batch_matrices", "count", "lower"),
        ("jacobi.batch_us_per_matrix", "us", "lower"),
        ("jacobi.single_s", "s", "lower"),
        ("jacobi.single_calls", "count", "lower"),
        ("sweeps.table_s", "s", "lower"),
        ("sweeps.table_mb", "MB", "lower"),
        ("sweeps.counts_s", "s", "lower"),
        ("sweeps.count_tables", "count", "lower"),
        ("sweeps.inband_graphs", "count", "lower"),
        ("sweeps.certified_share", "ratio", "higher"),
        ("sweeps.screen_s", "s", "lower"),
        ("sweeps.escalated", "count", "lower"),
        ("verify.escalation_s", "s", "lower"),
        ("exact.count_s", "s", "lower"),
        ("exact.count_calls", "count", "lower"),
        ("exact.count_us_per_call", "us", "lower"),
    ]
    + [(f"invariants.{short}_s", "s", "lower") for short in INVARIANTS.values()]
    + [(f"verify.{tid}_s", "s", "lower") for tid in GRAPH_STATEMENTS + FAMILY_STATEMENTS]
    + [
        ("verify.sample_s", "s", "lower"),
        ("graphs.family_build_s", "s", "lower"),
        ("other_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)
MIB = float(1 << 20)


@dataclass
class Records:
    """Public results seen by the wrappers, read once the run has ended."""

    tables: dict = field(default_factory=dict)  # n -> SweepData
    built_tables: list = field(default_factory=list)  # (SweepData, threshold) per uncached counts_pair
    sweep_results: list = field(default_factory=list)  # SweepResult
    batch_matrices: int = 0
    graph_reports: list = field(default_factory=list)  # (theorem id, Graph, TheoremReport)
    family_reports: list = field(default_factory=list)  # (theorem id, args, TheoremReport)
    missing: list = field(default_factory=list)  # names that could not be wrapped


def _threshold(args: tuple, kwargs: dict) -> Fraction:
    return Fraction(args[1] if len(args) > 1 else kwargs["threshold"])


def instrument(tracer: Tracer, qdist) -> Records:
    """Install every wrapper; tracer.restore() takes them out again. A name
    that qdist no longer has is listed in Records.missing, and the metrics
    of its layer read 0."""
    sweeps, verify, exact = qdist.sweeps, qdist.verify, qdist.exact
    rec = Records()

    def wrap(owner, attr: str, name: str, **hooks) -> None:
        if not hasattr(owner, attr):
            rec.missing.append(f"{owner.__name__}.{attr}")
            return
        timed = tracer.timed_iterator if hooks.pop("iterator", False) else tracer.timed
        tracer.patch(owner, attr, timed(getattr(owner, attr), name, **hooks))

    def on_table(args, kwargs, data):
        rec.tables[data.n] = data

    def on_batch(args, kwargs, result):
        rec.batch_matrices += len(result[0])

    def on_counts(args, kwargs, result):
        rec.built_tables.append((args[0], _threshold(args, kwargs)))

    def cached(args, kwargs):
        return _threshold(args, kwargs) in args[0].counts

    wrap(sweeps, "sweep_data", "sweeps.table", record=on_table)
    wrap(sweeps, "jacobi_batch", "jacobi.batch", record=on_batch)
    wrap(sweeps, "counts_pair", "sweeps.counts", skip=cached, record=on_counts)
    wrap(sweeps, "exhaustive_failures", "sweeps.exhaustive", record=lambda a, k, r: rec.sweep_results.append(r))
    wrap(verify, "eigenvalues_sym", "jacobi.single")
    wrap(exact, "graph_count_lt", "exact.count")
    wrap(exact, "graph_count_le", "exact.count")
    for attr, short in INVARIANTS.items():
        wrap(verify, attr, f"invariants.{short}")
    for attr in FAMILY_CONSTRUCTORS:
        wrap(verify, attr, "graphs.family_build")
    wrap(verify, "sample_graphs", "verify.sample", iterator=True)

    for tid, theorem in list(verify.GRAPH_THEOREMS.items()):
        def on_graph(args, kwargs, report, tid=tid):
            rec.graph_reports.append((tid, args[0], report))

        check = tracer.timed(theorem.check, f"verify.{tid}", record=on_graph)
        tracer.patch_item(verify.GRAPH_THEOREMS, tid, dataclasses.replace(theorem, check=check))
    for attr, tid in FAMILY_CHECKERS.items():
        def on_family(args, kwargs, report, tid=tid):
            rec.family_reports.append((tid, args, report))

        wrap(verify, attr, f"verify.{tid}", record=on_family)
    return rec


def table_bytes(data) -> int:
    """Bytes of a SweepData's arrays and of its cached count tables."""
    total = sum(v.nbytes for v in vars(data).values() if isinstance(v, np.ndarray))
    return total + sum(lt.nbytes + le.nbytes for lt, le in data.counts.values())


def derive(tracer: Tracer, rec: Records, wall: float, sweeps) -> dict[str, float]:
    """Per-layer metrics of one traced round; trace.overhead_s is left to the
    caller, which also ran the round untraced."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    m: dict[str, float] = {}

    m["jacobi.batch_s"] = self_s.get("jacobi.batch", 0.0)
    m["jacobi.batch_matrices"] = rec.batch_matrices
    m["jacobi.batch_us_per_matrix"] = 1e6 * m["jacobi.batch_s"] / rec.batch_matrices if rec.batch_matrices else 0.0
    m["jacobi.single_s"] = self_s.get("jacobi.single", 0.0)
    m["jacobi.single_calls"] = calls.get("jacobi.single", 0)

    m["sweeps.table_s"] = self_s.get("sweeps.table", 0.0)
    m["sweeps.table_mb"] = sum(table_bytes(d) for d in rec.tables.values()) / MIB
    m["sweeps.counts_s"] = self_s.get("sweeps.counts", 0.0)
    m["sweeps.count_tables"] = len(rec.built_tables)
    inband = sum(int(sweeps.inband_flags(d, t).sum()) for d, t in rec.built_tables)
    pairs = sum(d.count for d, _ in rec.built_tables)
    m["sweeps.inband_graphs"] = inband
    m["sweeps.certified_share"] = (pairs - inband) / pairs if pairs else 0.0
    m["sweeps.screen_s"] = self_s.get("sweeps.exhaustive", 0.0)
    m["sweeps.escalated"] = sum(r.escalated for r in rec.sweep_results)
    m["verify.escalation_s"] = tracer.inclusive_under(
        lambda name: name.removeprefix("verify.") in GRAPH_STATEMENTS, "sweeps.exhaustive"
    )

    m["exact.count_s"] = self_s.get("exact.count", 0.0)
    m["exact.count_calls"] = calls.get("exact.count", 0)
    m["exact.count_us_per_call"] = 1e6 * m["exact.count_s"] / m["exact.count_calls"] if m["exact.count_calls"] else 0.0

    for short in INVARIANTS.values():
        m[f"invariants.{short}_s"] = self_s.get(f"invariants.{short}", 0.0)
    for tid in GRAPH_STATEMENTS + FAMILY_STATEMENTS:
        m[f"verify.{tid}_s"] = self_s.get(f"verify.{tid}", 0.0)
    m["verify.sample_s"] = self_s.get("verify.sample", 0.0)
    m["graphs.family_build_s"] = self_s.get("graphs.family_build", 0.0)
    m["other_s"] = wall - tracer.covered()
    return m
