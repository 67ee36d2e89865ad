"""The benchmark's tracer (perfbench/layers.py) wraps qdist names where
qdist's own callers look them up. Every one of them must still exist, so
that a renamed or deleted name fails here, in the default suite, and not
only in the opt-in `python3 -m pytest perfbench`."""

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
