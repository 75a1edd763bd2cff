"""Shared helpers: random set/point samplers used across test modules, and
a textbook per-projection run that ``run`` must equal bit for bit."""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np

import memproj
from memproj import (
    STATUS_MAX_ITERATIONS,
    STATUS_RESIDUAL,
    STATUS_STEP,
    AffineSubspace,
    Ball,
    Box,
    Cyclic,
    Halfspace,
    Hyperplane,
    LineThroughOrigin,
    NumericError,
    RunTrace,
)
from memproj.runner import _check_fejer, _distance

SET_FAMILIES = ("hyperplane", "halfspace", "ball", "box", "line", "affine")


def subprocess_env() -> dict:
    """This environment, with PYTHONPATH naming the memproj under test, so a
    child Python imports it however pytest itself found it."""
    return {**os.environ, "PYTHONPATH": str(Path(memproj.__file__).resolve().parents[1])}


def reachable_by_path_enumeration(pattern: np.ndarray) -> np.ndarray:
    """Oracle: pairs joined by a chain of positive entries, via boolean
    matrix powers up to length N (dynamic-programming path enumeration)."""
    n = pattern.shape[0]
    reach = pattern.copy()
    power = pattern.copy()
    for _ in range(n - 1):
        power = (power.astype(int) @ pattern.astype(int)) > 0
        reach |= power
    return reach


def admissible_by_enumeration(a: np.ndarray) -> bool:
    """Independent admissibility oracle: zero diagonal plus enumeration."""
    if np.any(np.diagonal(a) != 0):
        return False
    reach = reachable_by_path_enumeration(a > 0)
    off = ~np.eye(a.shape[0], dtype=bool)
    return bool(reach[off].all())


def _unit(rng, dim):
    while True:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def sample_set(rng, family, dim):
    """A random instance of one set family with O(1) parameters."""
    if family == "hyperplane":
        return Hyperplane(_unit(rng, dim) * rng.uniform(0.5, 2.0), rng.uniform(-5, 5))
    if family == "halfspace":
        return Halfspace(_unit(rng, dim) * rng.uniform(0.5, 2.0), rng.uniform(-5, 5))
    if family == "ball":
        return Ball(rng.uniform(-5, 5, size=dim), rng.uniform(0.0, 3.0))
    if family == "box":
        a = rng.uniform(-5, 5, size=dim)
        b = rng.uniform(-5, 5, size=dim)
        return Box(np.minimum(a, b), np.maximum(a, b))
    if family == "line":
        return LineThroughOrigin(_unit(rng, dim) * rng.uniform(0.2, 3.0))
    if family == "affine":
        k = int(rng.integers(1, dim + 1))
        span = rng.standard_normal((k, dim))
        return AffineSubspace(rng.uniform(-3, 3, size=dim), span)
    raise ValueError(family)


def sets_through_origin(rng, dim):
    """One set of each family, every one containing the origin (``dim >= 2``).

    The line lies in the hyperplane and in the affine subspace, so the sets
    meet in a segment of it around the origin; a run converges to some point
    of that segment and its distance to the origin stays of order one.
    """
    line = _unit(rng, dim)
    normal = rng.standard_normal(dim)
    normal -= (normal @ line) * line
    span = np.vstack([line, rng.standard_normal((int(rng.integers(0, dim)), dim))])
    center = rng.uniform(-3, 3, size=dim)
    return [
        Hyperplane(normal, 0.0),
        Halfspace(_unit(rng, dim) * rng.uniform(0.5, 2.0), rng.uniform(0.0, 5.0)),
        Ball(center, float(np.linalg.norm(center)) + rng.uniform(0.5, 3.0)),
        Box(-rng.uniform(0.0, 5.0, size=dim), rng.uniform(0.0, 5.0, size=dim)),
        LineThroughOrigin(line * rng.uniform(0.2, 3.0)),
        AffineSubspace(np.zeros(dim), span),
    ]


def sample_member(rng, s):
    """A point of the set, constructed without using s.project."""
    if isinstance(s, Hyperplane):
        z = rng.uniform(-4, 4, size=s.dim)
        i = int(np.argmax(np.abs(s.normal)))
        rest = s.normal @ z - s.normal[i] * z[i]
        z[i] = (s.offset - rest) / s.normal[i]
        return z
    if isinstance(s, Halfspace):
        z = rng.uniform(-4, 4, size=s.dim)
        slack = s.normal @ z - s.offset
        if slack > 0:
            # move strictly inside along the inward normal
            z = z - (slack + rng.uniform(0.1, 1.0)) / (s.normal @ s.normal) * s.normal
        return z
    if isinstance(s, Ball):
        u = _unit(rng, s.dim)
        return s.center + rng.uniform(0.0, 0.999) * s.radius * u
    if isinstance(s, Box):
        t = rng.uniform(0.0, 1.0, size=s.dim)
        return s.lower + t * (s.upper - s.lower)
    if isinstance(s, LineThroughOrigin):
        return rng.uniform(-4, 4) * s.direction
    if isinstance(s, AffineSubspace):
        if s.basis.shape[0] == 0:
            return s.basepoint.copy()
        coeff = rng.uniform(-3, 3, size=s.basis.shape[0])
        return s.basepoint + s.basis.T @ coeff
    raise TypeError(type(s))


_TRACE_ARRAYS = ("set_indices", "step_lengths", "x0", "x_final", "residuals",
                 "known_point", "iterates", "final_matrix")


def assert_same_trace(got, expected):
    """Every field of two RunTraces is equal, arrays bit for bit."""
    assert got.status == expected.status
    assert got.n_sets == expected.n_sets
    for name in _TRACE_ARRAYS:
        a, b = getattr(got, name), getattr(expected, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert len(got.matrix_snapshots) == len(expected.matrix_snapshots)
    for (count, a), (expected_count, b) in zip(got.matrix_snapshots,
                                               expected.matrix_snapshots):
        assert count == expected_count
        assert a.tobytes() == b.tobytes(), f"snapshot at {count}"


def memory_state(strategy):
    """Everything a Memory strategy carries from one call to the next."""
    m = strategy.matrix
    return (m._a.tobytes(), m._count, m._sum, m._minpos, m._top, strategy.current_index,
            strategy._pending, strategy.rng.bit_generator.state)


class SubCyclic(Cyclic):
    """A ``Cyclic`` subclass: ``run`` cannot know that it ignores the steps."""


def reference_run(sets, strategy, x0, stop, known_point=None, *, debug_asserts=False,
                  store_iterates=False, matrix_snapshot_interval=None):
    """``run`` as the textbook states it, one projection at a time.

    Projection 0 of a chooser that needs a start projection goes onto its
    current set, unpicked; every other projection goes where ``next_index``
    says, given the previous picked projection's step.  Each step and each
    residual is one ``_distance``.  The run stops at the first projection
    whose residual is below the residual tolerance, or else whose last
    ``window`` steps are all below the step tolerance.  A memory is
    snapshotted after every ``matrix_snapshot_interval``-th projection but
    the start projection.  Inputs are taken as valid.
    """
    x = np.array(x0, dtype=float)
    z = None if known_point is None else np.array(known_point, dtype=float)
    window = stop.step_window or 2 * len(sets)
    memory = getattr(strategy, "matrix", None)
    indices, steps, residuals, iterates, snapshots = [], [], [], [x.copy()], []
    status, last_step = STATUS_MAX_ITERATIONS, None
    while status == STATUS_MAX_ITERATIONS and len(indices) < stop.max_iterations:
        k = len(indices)
        start = k == 0 and strategy.needs_start_projection
        j = strategy.current_index if start else strategy.next_index(last_step)
        x_next = sets[j].project(x)
        step = _distance(x_next, x)
        if not np.all(np.isfinite(x_next)):
            raise NumericError(f"non-finite iterate after projection {k}")
        if debug_asserts and z is not None:
            _check_fejer(x, x_next, z, step, k)
        indices.append(j)
        steps.append(step)
        iterates.append(x_next.copy())
        if z is not None:
            residuals.append(_distance(x_next, z))
            if stop.residual_tolerance is not None and residuals[-1] < stop.residual_tolerance:
                status = STATUS_RESIDUAL
        if (status == STATUS_MAX_ITERATIONS and k + 1 >= window
                and max(steps[-window:]) < stop.step_tolerance):
            status = STATUS_STEP
        if not start:
            last_step = step
            if (memory is not None and matrix_snapshot_interval
                    and (k + 1) % matrix_snapshot_interval == 0):
                snapshots.append((k + 1, strategy.matrix.to_array()))
        x = x_next
    strategy.finish(last_step)
    return RunTrace(
        set_indices=np.array(indices, dtype=int),
        step_lengths=np.array(steps, dtype=float),
        status=status,
        n_sets=len(sets),
        x0=np.array(x0, dtype=float),
        x_final=x,
        residuals=None if z is None else np.array(residuals, dtype=float),
        known_point=z,
        iterates=np.array(iterates) if store_iterates else None,
        final_matrix=None if memory is None else strategy.matrix.to_array(),
        matrix_snapshots=snapshots,
    )
