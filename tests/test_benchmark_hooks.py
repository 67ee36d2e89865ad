"""The benchmark's tracer (perfbench/layers.py) wraps qdist names where
qdist's own callers look them up, and its per-layer metrics read more of
qdist without wrapping it (sweeps.inband_flags, SweepData.counts). Every
one of them must still exist, so that a renamed or deleted name fails
here, in the default suite, and not only in the opt-in
`python3 -m pytest perfbench` or a traced benchmark run."""

from fractions import Fraction
from pathlib import Path

import qdist
import qdist.exact
import qdist.sweeps
import qdist.verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_wraps_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    modules = (qdist.exact, qdist.sweeps, qdist.verify)
    before = [dict(vars(m)) for m in modules] + [dict(qdist.verify.GRAPH_THEOREMS)]
    tracer = Tracer()
    try:
        records = layers.instrument(tracer, qdist)
    finally:
        tracer.restore()
    assert records.missing == []
    assert [dict(vars(m)) for m in modules] + [dict(qdist.verify.GRAPH_THEOREMS)] == before


def test_benchmark_derives_every_layer_metric(monkeypatch):
    """layers.derive reads a sweep table, its cached count tables and
    sweeps.inband_flags; it yields every per-layer metric but the trace
    overhead, which the benchmark's caller measures."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    data = qdist.sweeps.sweep_data(3)
    qdist.sweeps.counts_pair(data, 1)
    records = layers.Records(tables={3: data}, built_tables=[(data, Fraction(1))])
    metrics = layers.derive(Tracer(), records, 0.0, qdist.sweeps)
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER} - {"trace.overhead_s"}
