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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvariantViolation",
    "DistanceMatrix",
    "Policy",
    "MemoryStack",
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
    """

    __slots__ = ("_a", "_count", "_sum", "_minpos")

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


def _check_banded_args(n_sets: int, omega: int, scale: float) -> None:
    if n_sets < 2:
        raise ValueError("need at least 2 sets")
    if omega < 1:
        raise ValueError("omega must be at least 1")
    if omega >= n_sets:
        raise ValueError("omega must be smaller than the number of sets")
    if not (np.isfinite(scale) and scale > 0.0):
        raise ValueError("scale must be finite and > 0")


def build_banded_bidirectional(n_sets: int, omega: int, scale: float = 1.0) -> DistanceMatrix:
    """Cyclic band of half-width ``omega`` in both directions.

    Entry (m, n) is ``scale`` when n is within ``omega`` cyclic steps of m
    (either direction), else 0.
    """
    _check_banded_args(n_sets, omega, scale)
    idx = np.arange(n_sets)
    diff = idx[None, :] - idx[:, None]  # n - m
    band = (0 < np.abs(diff)) & (np.abs(diff) <= omega)
    wrap = (n_sets - diff <= omega) | (n_sets + diff <= omega)
    return DistanceMatrix(np.where(band | wrap, scale, 0.0))


def build_banded_forward(n_sets: int, omega: int, scale: float = 1.0) -> DistanceMatrix:
    """Cyclic band of width ``omega`` in the forward direction only.

    With ``omega=1`` each row m has its single positive entry at column
    (m + 1) mod N, which forces the memory method into the plain cyclic
    order.
    """
    _check_banded_args(n_sets, omega, scale)
    idx = np.arange(n_sets)
    diff = idx[None, :] - idx[:, None]  # n - m
    mask = ((0 < diff) & (diff <= omega)) | (n_sets + diff <= omega)
    return DistanceMatrix(np.where(mask, scale, 0.0))


def build_dense(n_sets: int, scale: float = 1.0) -> DistanceMatrix:
    """All off-diagonal entries equal to ``scale``."""
    if n_sets < 2:
        raise ValueError("need at least 2 sets")
    if not (np.isfinite(scale) and scale > 0.0):
        raise ValueError("scale must be finite and > 0")
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


class MemoryStack:
    """The memory of several ``Memory`` strategies, advanced together.

    Strategy s owns rows s*N .. s*N + N - 1 of one (S*N, N) matrix and of
    the row aggregates, its current row, its pending column (-1: none) and
    its generator; the strategies share one policy and start with no
    pending pick, or ``ValueError`` names the first that does not.
    ``next_indices`` does per entry the float operations of
    ``Memory.next_index``, drawing each tie-break from the strategy's own
    generator, so each strategy picks what it would alone, and
    ``write_back`` leaves it in the state it would reach alone.  The
    matrices must be admissible: as no update stores less than ``_TINY``,
    every row then keeps a positive entry to select.
    """

    def __init__(self, strategies):
        policy = strategies[0].policy
        for i, s in enumerate(strategies):
            if s._pending is not None:
                raise ValueError(f"strategy {i} has a pending pick; a MemoryStack "
                                 "starts every Memory at its current set")
            if s.policy != policy:
                raise ValueError(f"strategy {i} has {s.policy}, strategy 0 {policy}; "
                                 "a MemoryStack advances Memory strategies of one policy")
        self.strategies = strategies
        mats = [s.matrix for s in strategies]
        self.n = mats[0].n
        self.rows = np.concatenate([m._a for m in mats])
        self.cells = self.rows.reshape(-1)  # a view: entry (row, col) is cell row * N + col
        self.count = np.concatenate([m._count for m in mats])
        self.sum = np.concatenate([m._sum for m in mats]).astype(float)
        self.minpos = np.concatenate([m._minpos for m in mats]).astype(float)
        self.offset = np.arange(len(strategies)) * self.n
        self.row = self.offset + [s.current_index for s in strategies]
        self.pending = np.full(len(strategies), -1)
        self.beta = policy.beta
        self.average = policy.kind == "average"
        self.draw = [s.rng.integers for s in strategies]

    def next_indices(self, slots: np.ndarray, steps: np.ndarray | None) -> np.ndarray:
        """Record the finite ``steps`` of strategies ``slots`` (None on a
        first call), then pick their next indices."""
        if steps is not None:
            self._record(slots, steps)
        rows = self.rows[self.row[slots]]
        picks = rows.argmax(1)
        ties = rows == rows[np.arange(len(slots)), picks][:, None]
        counts = np.add.reduce(ties, 1)
        tied = (counts > 1).nonzero()[0]
        if tied.size:
            draws = np.zeros(len(slots), dtype=int)
            draws[tied] = [self.draw[s](c) for s, c in
                           zip(slots[tied].tolist(), counts[tied].tolist())]
            # the draws-th maximum from the left, as Memory.next_index takes it
            picks = ties.ravel().nonzero()[0][counts.cumsum() - counts + draws] % self.n
        self.pending[slots] = picks
        return picks

    def _record(self, slots: np.ndarray, steps: np.ndarray) -> None:
        r, col = self.row[slots], self.pending[slots]
        cell = r * self.n + col
        old = self.cells[cell]  # each a maximum of its row, as in next_index
        low = self.minpos[r]
        # read before the write, as in next_index
        if self.average:
            floor = np.minimum(self.beta * (self.sum[r] / self.count[r]), self.beta * old)
        else:
            floor = self.beta * low
        value = np.maximum(np.maximum(steps, floor), _TINY)  # next_index's max, same bits
        self.cells[cell] = value
        self.sum[r] += value - old
        self.minpos[r] = np.minimum(value, low)
        rescan = r[(value > low) & (old == low)]  # a minimum overwritten by more
        if rescan.size:
            rows = self.rows[rescan]
            self.minpos[rescan] = np.where(rows > 0.0, rows, math.inf).min(1)
        self.row[slots] = self.offset[slots] + col
        self.pending[slots] = -1

    def write_back(self, slot: int) -> None:
        """Hand strategy ``slot``'s matrix, aggregates and indices back to it."""
        s, own = self.strategies[slot], slice(self.offset[slot], self.offset[slot] + self.n)
        s.matrix._a[...] = self.rows[own]  # an update never changes _count
        s.matrix._sum, s.matrix._minpos = self.sum[own].tolist(), self.minpos[own].tolist()
        s.current_index = int(self.row[slot] - self.offset[slot])
        s._pending = None if self.pending[slot] < 0 else int(self.pending[slot])
