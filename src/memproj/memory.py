"""Step-length memory for the learning projection method.

A ``DistanceMatrix`` records, per ordered pair of sets (m, n), a floored
version of the last step length observed on a transition from set m to
set n.  The method picks its next set by row-wise argmax, so a matrix is
usable only when its positive entries form a strongly connected digraph
(otherwise some transition could never be reached again); building a
``strategies.Memory`` checks that once, and no update changes the pattern.
Policies rewrite recorded values so that every stored number keeps
decaying, which is what forces the method to revisit every set.
A step of the method (record, then pick) has one owner, ``Memory.next_index``;
``pam_select``, ``pam_update`` and ``evaluate_policy`` delegate to it.

Set indices everywhere in this package are 0-based.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvariantViolation",
    "DistanceMatrix",
    "Policy",
    "is_admissible",
    "unreachable_pair",
    "build_banded_bidirectional",
    "build_banded_forward",
    "build_dense",
    "evaluate_policy",
    "pam_select",
    "pam_update",
]


class InvariantViolation(RuntimeError):
    """An internal invariant of the memory machinery was broken."""


class DistanceMatrix:
    """N x N nonnegative matrix with zero diagonal, plus row aggregates.

    Made of caller weights, e.g. from angles between the sets, it is a prior
    that biases the method; a ``Memory`` built on it checks its admissibility.

    The aggregates (count / sum / min of the strictly positive entries of
    each row, held as plain Python numbers) make the "min" policy O(1) and
    the "average" policy one row argmax; ``Memory.next_index`` keeps them
    current in O(1) per overwrite except when the row minimum is overwritten,
    which costs one row rescan.

    ``_top[m]`` lists, ascending, the columns holding a tied maximum of row m,
    or is None: a pick that finds the tie in a rescan keeps it, a write that
    lowers a held column removes that column, and any other write to the row,
    ``copy`` and ``_rebuild_row_stats`` drop it; up to N(N-1) list slots,
    about 0.5 MB at N=256.

    ``_rows[m]`` and ``_rev[m]`` are views of row m of ``_a``, forward and
    reversed, so a pick reads and writes a row without slicing ``_a``; they
    are 2N view objects, about 57 KB at N=256.  ``copy``, pickling and
    ``copy.deepcopy`` rebuild them on the copy, where they share its ``_a``.
    """

    __slots__ = ("_a", "_count", "_sum", "_minpos", "_top", "_rows", "_rev")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must form a square matrix")
        if a.shape[0] < 2:
            raise ValueError("need at least 2 sets")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        if np.any(a < 0.0):
            raise ValueError("entries must be nonnegative")
        if np.any(np.diagonal(a) != 0.0):
            raise ValueError("diagonal entries must be zero")
        self._a = a
        self._rebuild_row_stats()

    def _rebuild_row_stats(self) -> None:
        a = self._a
        pos = a > 0.0
        self._count = pos.sum(axis=1).tolist()
        self._sum = np.where(pos, a, 0.0).sum(axis=1).tolist()
        self._minpos = np.where(pos, a, np.inf).min(axis=1).tolist()
        self._top = [None] * a.shape[0]
        self._view_rows()

    def _view_rows(self) -> None:
        self._rows, self._rev = list(self._a), list(self._a[:, ::-1])

    def __getstate__(self):  # the views are not state: __setstate__ rebuilds them
        return self._a, self._count, self._sum, self._minpos, self._top

    def __setstate__(self, state) -> None:
        self._a, self._count, self._sum, self._minpos, self._top = state
        self._view_rows()

    @property
    def n(self) -> int:
        """Number of sets (matrix side length)."""
        return self._a.shape[0]

    def to_array(self) -> np.ndarray:
        """A defensive copy of the entries."""
        return self._a.copy()

    def max_entry(self) -> float:
        return float(self._a.max())

    def copy(self) -> "DistanceMatrix":
        dup = object.__new__(DistanceMatrix)
        dup.__setstate__((self._a.copy(), self._count.copy(), self._sum.copy(),
                          self._minpos.copy(), [None] * self.n))
        return dup

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._a, other._a)

    __hash__ = None

    def __repr__(self):
        return f"DistanceMatrix(n={self.n}, max_entry={self.max_entry():g})"


def _square(matrix) -> np.ndarray:
    """The entries of a ``DistanceMatrix`` (not copied) or of a square array-like."""
    a = matrix._a if isinstance(matrix, DistanceMatrix) else np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return a


def _reachable_from(pattern: np.ndarray, start: int) -> np.ndarray:
    """Vertices reachable from ``start`` along positive entries (incl. start)."""
    n = pattern.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    reached = 1
    while stack:
        new = pattern[stack.pop()] & ~seen
        seen |= new
        found = new.nonzero()[0].tolist()
        reached += len(found)
        if reached == n:
            # nothing is left to find; on a dense pattern this ends the
            # traversal after the start vertex
            break
        stack.extend(found)
    return seen


def is_admissible(matrix) -> bool:
    """True iff the diagonal is zero and every set can reach every other.

    Reachability is along chains of strictly positive entries; the check is
    one forward and one backward traversal from vertex 0.
    """
    a = _square(matrix)
    if np.any(np.diagonal(a) != 0.0):
        return False
    pattern = a > 0.0
    return bool(_reachable_from(pattern, 0).all() and _reachable_from(pattern.T, 0).all())


def unreachable_pair(matrix):
    """A witness (m, n) with no positive-entry chain from m to n, or None."""
    pattern = _square(matrix) > 0.0
    for m in range(pattern.shape[0]):
        reached = _reachable_from(pattern, m)
        if not reached.all():
            return m, int(np.flatnonzero(~reached)[0])
    return None


def _check_integer(name: str, value, least=None) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an int
    or NumPy integer (not a bool) and, if ``least`` is given, at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def _check_real(name: str, value):
    """``value``, a NumPy real as a Python float; ValueError naming ``name``
    unless it is a real number (a bool, NumPy's too, is none)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value) if isinstance(value, np.generic) else value


def _check_builder_args(omega, scale, n_sets=None):
    """A builder's ``(omega, scale)``: ``omega`` an integer >= 1 and, with
    ``n_sets`` given (>= 2), smaller than it, as a Python int; ``scale``
    finite and > 0."""
    if n_sets is not None:
        _check_integer("n_sets", n_sets, 2)
    omega = _check_integer("omega", omega, 1)
    if n_sets is not None and omega >= n_sets:
        raise ValueError("omega must be smaller than the number of sets")
    scale = _check_real("scale", scale)
    # compared, not converted: an integer beyond the float range is not finite
    if not 0.0 < scale <= sys.float_info.max:
        raise ValueError("scale must be finite and > 0")
    return omega, scale


def _cyclic_band(n_sets: int, omega: int, scale: float, both_ways: bool) -> DistanceMatrix:
    omega, scale = _check_builder_args(omega, scale, n_sets)
    ahead = (np.arange(n_sets) - np.arange(n_sets)[:, None]) % n_sets  # (n - m) mod N
    reach = np.minimum(ahead, n_sets - ahead) if both_ways else ahead
    return DistanceMatrix(np.where((0 < reach) & (reach <= omega), scale, 0.0))


def build_banded_bidirectional(n_sets: int, omega: int, scale: float = 1.0) -> DistanceMatrix:
    """Cyclic band of half-width ``omega`` in both directions.

    Entry (m, n) is ``scale`` when n is within ``omega`` cyclic steps of m
    (either direction), else 0.
    """
    return _cyclic_band(n_sets, omega, scale, both_ways=True)


def build_banded_forward(n_sets: int, omega: int, scale: float = 1.0) -> DistanceMatrix:
    """Cyclic band of width ``omega`` in the forward direction only.

    With ``omega=1`` each row m has its single positive entry at column
    (m + 1) mod N, which forces the memory method into the plain cyclic
    order.
    """
    return _cyclic_band(n_sets, omega, scale, both_ways=False)


def build_dense(n_sets: int, scale: float = 1.0) -> DistanceMatrix:
    """All off-diagonal entries equal to ``scale``."""
    _, scale = _check_builder_args(1, scale, n_sets)  # every n_sets >= 2 admits omega=1
    a = np.full((n_sets, n_sets), scale, dtype=float)
    np.fill_diagonal(a, 0.0)
    return DistanceMatrix(a)


@dataclass(frozen=True)
class Policy:
    """Floor rule applied to recorded step lengths.

    ``kind`` is "min" (beta times the smallest positive entry of the row) or
    "average" (beta times the mean of the positive entries).  ``beta`` must
    lie in the open interval (0, 1) so that rewritten values keep decaying.
    """

    kind: str
    beta: float

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in ("min", "average"):
            raise ValueError('kind must be "min" or "average"')
        object.__setattr__(self, "beta", _check_real("beta", self.beta))
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in the open interval (0, 1)")


# an update never stores less than the smallest positive double, so a floor
# that underflows cannot erase a positive entry: the one float-specific
# deviation from the paper's decaying floor
_TINY = 5e-324


def evaluate_policy(policy: Policy, m: int, matrix: DistanceMatrix) -> float:
    """Floor value for row ``m``: 0 on an all-zero row or on underflow.

    The result never exceeds beta times the row maximum, which is the decay
    property convergence rests on.  It is the floor ``Memory.next_index``
    would apply on a transition out of row ``m``, taken on a copy.
    """
    if not 0 <= m < matrix.n:
        raise IndexError(f"row index {m} out of range 0..{matrix.n - 1}")
    if not matrix._count[m]:
        return 0.0
    from .strategies import Memory  # which imports this module
    probe = object.__new__(Memory)
    probe.matrix, probe.policy = matrix.copy(), policy
    probe.current_index, probe._pending = m, int(matrix._a[m].argmax())
    return probe.next_index(0.0, pick=False)


def pam_select(memory) -> int:
    """Pick the next set of a ``Memory`` as ``Memory.next_index`` does, and
    keep it as the pending transition that ``pam_update`` records."""
    memory._pending = None
    return memory.next_index()


def pam_update(memory, step_length: float) -> None:
    """Record the step of the pending transition and advance the current
    index, as ``Memory.next_index`` does before it picks."""
    memory.next_index(step_length, pick=False)
