"""Closed convex sets with exact Euclidean nearest-point maps.

Every family here has a closed-form projection, so membership, idempotence
and the obtuse-angle property of the nearest point hold to floating-point
accuracy (about 1e-12 at moderate scales) without any inner iteration.
Instances are immutable after construction and safe to share across threads;
``project`` is a pure function.  Its vector products call ``ndarray.dot`` (the
BLAS call of ``@`` without the matmul dispatch); a scalar product becomes an
exact Python float, so ``c * vector`` takes NumPy's faster Python-scalar path.
Each instance stores its shape ``(dim,)`` as ``_shape``, so the point check
opening ``project`` takes a float64 vector of that shape as it is after one
tuple comparison; any other input is converted, or rejected with its shape.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ProjectableSet",
    "Hyperplane",
    "Halfspace",
    "Ball",
    "Box",
    "LineThroughOrigin",
    "AffineSubspace",
    "project",
    "distance",
]


def as_vector(x, name: str = "x") -> np.ndarray:
    """Copy ``x`` into a finite 1-D float array, or raise ValueError."""
    v = np.array(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must have finite entries")
    return v


# a sum of squares from 2^-960 to the largest finite double lost no more than
# rounding (a subnormal square in it is under 2^-62 of it, far below its ulp)
_SMALLEST_SUM, _LARGEST = 2.0**-960, 1.7976931348623157e308


def _distance(a: np.ndarray, b: np.ndarray | float) -> float:
    """Euclidean distance between two 1-D float vectors (``b=0.0``: length).

    ``np.linalg.norm`` of a 1-D float vector is ``sqrt(v.dot(v))``; making
    the same dot call directly gives the same bits without its overhead.
    Every distance a trace stores or checks goes through here.
    """
    v = a - b
    d = float(v.dot(v))  # Python floats compare faster than NumPy scalars
    if _SMALLEST_SUM <= d <= _LARGEST:
        return math.sqrt(d)
    if d == 0.0 and not np.count_nonzero(v):  # a projection left its point unchanged
        return 0.0
    # the sum is that small, or overflowed: scale by the power of two that brings
    # the largest entry into [0.5, 1), which is exact at every float scale
    e = math.frexp(np.abs(v).max())[1]
    w = np.ldexp(v, -e)
    return math.ldexp(math.sqrt(w.dot(w)), e)


_FLOAT, _NDARRAY = np.dtype(float), np.ndarray


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class ProjectableSet:
    """Base class: a closed convex subset of R^d with an exact projection."""

    dim: int
    _shape: tuple[int]  # (dim,), set by each constructor next to dim
    # the constructor's arguments in order, each kept as an attribute of the
    # same name: equality, repr and config descriptors read them
    params: tuple[str, ...]

    def project(self, x) -> np.ndarray:
        """Return the unique nearest point of the set to ``x``."""
        raise NotImplementedError

    def _check_point(self, x) -> np.ndarray:
        # the engines pass float vectors of the right length: take them as they are
        if type(x) is _NDARRAY and x.dtype is _FLOAT and x.shape == self._shape:
            return x
        v = np.asarray(x, dtype=float)
        if v.ndim != 1 or v.shape[0] != self.dim:
            raise ValueError(
                f"point has shape {np.shape(x)}, expected ({self.dim},)"
            )
        return v

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, p), getattr(other, p)) for p in self.params)

    def __repr__(self):
        args = (f"{p}={np.asarray(getattr(self, p)).tolist()}" for p in self.params)
        return f"{type(self).__name__}({', '.join(args)})"

    __hash__ = None


class _NormalOffset(ProjectableSet):
    """The constructor of the sets bounded by one hyperplane."""

    params = ("normal", "offset")

    def __init__(self, normal, offset):
        a = as_vector(normal, "normal")
        nn = float(a @ a)
        if nn == 0.0:
            raise ValueError("normal must be nonzero")
        b = float(offset)
        if not np.isfinite(b):
            raise ValueError("offset must be finite")
        self.normal = _readonly(a)
        self.offset = b
        self.dim, self._shape = a.shape[0], a.shape
        self._nn = nn


class Hyperplane(_NormalOffset):
    """The set {y : normal . y = offset}."""

    def project(self, x):
        v = self._check_point(x)
        return v - ((float(self.normal.dot(v)) - self.offset) / self._nn) * self.normal


class Halfspace(_NormalOffset):
    """The set {y : normal . y <= offset}."""

    def project(self, x):
        v = self._check_point(x)
        slack = float(self.normal.dot(v)) - self.offset
        if slack <= 0.0:
            return v.copy()
        return v - (slack / self._nn) * self.normal


class Ball(ProjectableSet):
    """Closed Euclidean ball of given center and radius."""

    params = ("center", "radius")

    def __init__(self, center, radius):
        c = as_vector(center, "center")
        r = float(radius)
        if not np.isfinite(r) or r < 0.0:
            raise ValueError("radius must be finite and >= 0")
        self.center = _readonly(c)
        self.radius = r
        self.dim, self._shape = c.shape[0], c.shape

    def project(self, x):
        v = self._check_point(x)
        dist = _distance(v, self.center)
        if dist <= self.radius:
            return v.copy()
        return self.center + (self.radius / dist) * (v - self.center)


class Box(ProjectableSet):
    """Axis-aligned box {y : lower <= y <= upper componentwise}."""

    params = ("lower", "upper")

    def __init__(self, lower, upper):
        lo = as_vector(lower, "lower")
        hi = as_vector(upper, "upper")
        if lo.shape != hi.shape:
            raise ValueError("lower and upper must have the same dimension")
        if np.any(lo > hi):
            raise ValueError("lower must not exceed upper in any component")
        self.lower = _readonly(lo)
        self.upper = _readonly(hi)
        self.dim, self._shape = lo.shape[0], lo.shape

    def project(self, x):
        v = self._check_point(x)
        return np.clip(v, self.lower, self.upper)


class LineThroughOrigin(ProjectableSet):
    """One-dimensional subspace {s * direction : s real}."""

    params = ("direction",)

    def __init__(self, direction):
        v = as_vector(direction, "direction")
        vv = float(v @ v)
        if vv == 0.0:
            raise ValueError("direction must be nonzero")
        self.direction = _readonly(v)
        self.dim, self._shape = v.shape[0], v.shape
        self._vv = vv

    def project(self, x):
        v = self._check_point(x)
        return (float(self.direction.dot(v)) / self._vv) * self.direction


class AffineSubspace(ProjectableSet):
    """The flat basepoint + span(rows of basis).

    Any spanning set of row vectors is accepted: a basis that is already
    orthonormal to 1e-12 is kept verbatim, anything else is orthonormalized
    by SVD, and linearly dependent input is rejected.  An empty basis gives
    the single point {basepoint}.
    """

    params = ("basepoint", "basis")

    def __init__(self, basepoint, basis):
        p = as_vector(basepoint, "basepoint")
        B = np.array(basis, dtype=float)
        if B.size == 0:
            B = np.zeros((0, p.shape[0]))
        if B.ndim != 2 or B.shape[1] != p.shape[0]:
            raise ValueError(
                "basis must be a list of vectors matching the basepoint dimension"
            )
        if not np.all(np.isfinite(B)):
            raise ValueError("basis must have finite entries")
        k, d = B.shape
        if k > d:
            raise ValueError("more spanning vectors than the ambient dimension")
        if k > 0:
            gram = B @ B.T
            if np.max(np.abs(gram - np.eye(k))) > 1e-12:
                u, s, vt = np.linalg.svd(B, full_matrices=False)
                tol = max(B.shape) * np.finfo(float).eps * float(s[0])
                if int(np.sum(s > tol)) < k:
                    raise ValueError("spanning vectors are linearly dependent")
                B = vt[:k].copy()
        self.basepoint = _readonly(p)
        self.basis = _readonly(B)
        self.dim, self._shape = p.shape[0], p.shape

    def project(self, x):
        v = self._check_point(x)
        w = v - self.basepoint
        return self.basepoint + self.basis.T.dot(self.basis.dot(w))


def project(x, s: ProjectableSet) -> np.ndarray:
    """Nearest point of ``s`` to ``x``; raises on dimension mismatch."""
    return s.project(x)


@np.errstate(over="ignore")  # _distance rescales a sum of squares that overflows
def distance(x, s: ProjectableSet) -> float:
    """Euclidean distance from ``x`` to ``s`` (zero iff ``x`` is a member)."""
    v = np.asarray(x, dtype=float)
    return _distance(v, s.project(v))
