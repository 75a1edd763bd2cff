"""The benchmark tracer finds every boundary it wraps, counts through them,
and puts the originals back.

A boundary the program no longer has drops its per-layer metrics from the
benchmark result, so a refactor that renames or folds one shows here first.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import memproj
from memproj import Memory, Policy, StoppingRule, build_dense, make_toy_problem

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def _bindings():
    """Each name a memproj module binds, and each attribute of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "memproj" and not name.startswith("memproj."):
            continue
        for key, value in vars(mod).items():
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update({(name, key, a): v for a, v in vars(value).items()})
    return out


def test_every_boundary_is_traced_and_restored(tracing):
    for module, _ in tracing.BOUNDARIES.values():  # install imports them
        importlib.import_module(module)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
        sets, x0, z = make_toy_problem()
        memory = Memory(build_dense(9), Policy("min", 0.01), seed=0)
        trace = memproj.run(sets, memory, x0, StoppingRule.exact_budget(300), known_point=z)
    finally:
        tracer.uninstall()
    assert trace.n_projections == 300
    metrics, absent = tracer.layer_metrics(cycles=1, overhead_frac=0.0)
    assert absent == []
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["memory.selections"] == value["strategies.next_index.calls"] == 299
    assert value["memory.ties"] > 0
    assert value["runner.projections"] == 300
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
