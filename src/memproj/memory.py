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
    "build_prior_matrix",
    "evaluate_policy",
    "pam_select",
    "pam_update",
]


class InvariantViolation(RuntimeError):
    """An internal invariant of the memory machinery was broken."""


class DistanceMatrix:
    """N x N nonnegative matrix with zero diagonal, plus row aggregates.

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
    """

    __slots__ = ("_a", "_count", "_sum", "_minpos", "_top")

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

    @property
    def n(self) -> int:
        """Number of sets (matrix side length)."""
        return self._a.shape[0]

    def to_array(self) -> np.ndarray:
        """A defensive copy of the entries."""
        return self._a.copy()

    def entry(self, m: int, n: int) -> float:
        return float(self._a[m, n])

    def positive_pattern(self) -> np.ndarray:
        """Boolean mask of strictly positive entries."""
        return self._a > 0.0

    def max_entry(self) -> float:
        return float(self._a.max())

    def copy(self) -> "DistanceMatrix":
        dup = object.__new__(DistanceMatrix)
        dup._a = self._a.copy()
        dup._count = self._count.copy()
        dup._sum = self._sum.copy()
        dup._minpos = self._minpos.copy()
        dup._top = [None] * self.n
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


def _check_integer(name: str, value, least=None) -> None:
    """ValueError naming ``name`` unless ``value`` is an int or NumPy integer (not
    a bool) and, if ``least`` is given, at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")


def _check_builder_args(n_sets: int, omega: int, scale: float) -> None:
    _check_integer("n_sets", n_sets, 2)
    _check_integer("omega", omega, 1)
    if omega >= n_sets:
        raise ValueError("omega must be smaller than the number of sets")
    if not (np.isfinite(scale) and scale > 0.0):
        raise ValueError("scale must be finite and > 0")


def _cyclic_band(n_sets: int, omega: int, scale: float, both_ways: bool) -> DistanceMatrix:
    _check_builder_args(n_sets, omega, scale)
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
    _check_builder_args(n_sets, 1, scale)  # every n_sets >= 2 admits omega=1
    a = np.full((n_sets, n_sets), scale, dtype=float)
    np.fill_diagonal(a, 0.0)
    return DistanceMatrix(a)


def build_prior_matrix(weights) -> DistanceMatrix:
    """Wrap caller-supplied nonnegative weights (zero diagonal) as memory.

    Use this to bias the method toward transitions believed to be
    profitable, e.g. weights derived from angles between the sets.
    Admissibility is not checked here; it is checked when a ``Memory`` is
    built on the matrix.
    """
    return DistanceMatrix(weights)


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
        if self.kind not in ("min", "average"):
            raise ValueError('policy kind must be "min" or "average"')
        if not (0.0 < self.beta < 1.0):
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
