"""The benchmark tracer finds every boundary it wraps, counts through them,
and puts the originals back.

A boundary the program no longer has drops its per-layer metrics from the
benchmark result, so a refactor that renames or folds one shows here first.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import memproj
from memproj import Memory, Policy, StoppingRule, build_dense, make_toy_problem

from conftest import sets_through_origin

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


def _unchanged(trace):
    """Projections that left their iterate exactly as it was."""
    it = trace.iterates
    return sum(it[k + 1].tobytes() == it[k].tobytes() for k in range(len(it) - 1))


def test_counts_through_every_projection_path(tracing):
    # pam-average over the six families with a residual stop, whose residuals
    # are measured per projection, then the toy fan with a known point and no
    # residual stop, whose residuals are measured in array passes
    rng = np.random.default_rng(5)
    sets = sets_through_origin(rng, 8)
    x0 = rng.uniform(-10.0, 10.0, 8)

    def average(seed):
        return Memory(build_dense(6), Policy("average", 0.3), seed=seed)

    limit = memproj.run(sets, average(1), x0, StoppingRule.exact_budget(3000)).x_final
    stop = StoppingRule(max_iterations=3000, step_tolerance=5e-324, residual_tolerance=1e-6)
    fan, fan_x0, fan_z = make_toy_problem()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traces = [
            memproj.run(sets, average(1), x0, stop, known_point=limit, store_iterates=True),
            memproj.run(fan, Memory(build_dense(9), Policy("min", 0.01), seed=0), fan_x0,
                        StoppingRule.exact_budget(2500), known_point=fan_z,
                        store_iterates=True),
        ]
    finally:
        tracer.uninstall()
    assert traces[0].status == memproj.STATUS_RESIDUAL
    assert traces[1].n_projections == 2500
    metrics, absent = tracer.layer_metrics(cycles=1, overhead_frac=0.0)
    assert absent == []
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["sets.project.calls"] == value["runner.projections"] == sum(
        t.n_projections for t in traces)
    assert value["memory.selections"] == value["strategies.next_index.calls"] == sum(
        t.n_projections - 1 for t in traces)
    assert value["sets.noop.count"] == sum(_unchanged(t) for t in traces)
