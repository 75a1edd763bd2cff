"""Shared helpers: random set/point samplers used across test modules."""
from __future__ import annotations

import numpy as np

from memproj import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    LineThroughOrigin,
)

SET_FAMILIES = ("hyperplane", "halfspace", "ball", "box", "line", "affine")


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


def memory_state(strategy):
    """Everything a Memory strategy carries from one call to the next."""
    m = strategy.matrix
    return (m._a.tobytes(), m._count, m._sum, m._minpos, strategy.current_index,
            strategy._pending, strategy.rng.bit_generator.state)
