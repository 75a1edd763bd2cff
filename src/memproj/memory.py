"""Step-length memory for the learning projection method.

A ``DistanceMatrix`` records, per ordered pair of sets (m, n), a floored
version of the last step length observed on a transition from set m to
set n.  The method picks its next set by row-wise argmax, so a matrix is
usable only when its positive entries form a strongly connected digraph
(otherwise some transition could never be reached again).  Policies rewrite
recorded values so that every stored number keeps decaying, which is what
forces the method to revisit every set.

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
    "PamState",
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
    the "average" policy one row argmax; single-entry overwrites keep them
    current in O(1) except when the row minimum is overwritten, which costs
    one row rescan.
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

    def _overwrite(self, m: int, col: int, value: float) -> None:
        # caller guarantees old > 0 and value > 0, so the positive count
        # of row m cannot change
        a = self._a
        old = a.item(m, col)
        a[m, col] = value
        self._sum[m] += value - old
        if value <= self._minpos[m]:
            self._minpos[m] = value
        elif old == self._minpos[m]:
            row = a[m]
            self._minpos[m] = row[row > 0.0].min().item()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._a, other._a)

    __hash__ = None

    def __repr__(self):
        return f"DistanceMatrix(n={self.n}, max_entry={self.max_entry():g})"


def _positive_pattern(matrix) -> np.ndarray:
    if isinstance(matrix, DistanceMatrix):
        return matrix.positive_pattern()
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return a > 0.0


def _reachable_from(pattern: np.ndarray, start: int) -> np.ndarray:
    """Vertices reachable from ``start`` along positive entries (incl. start)."""
    n = pattern.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        new = pattern[stack.pop()] & ~seen
        seen |= new
        stack.extend(new.nonzero()[0].tolist())
    return seen


def is_admissible(matrix) -> bool:
    """True iff the diagonal is zero and every set can reach every other.

    Reachability is along chains of strictly positive entries; the check is
    one forward and one backward traversal from vertex 0.
    """
    a = matrix.to_array() if isinstance(matrix, DistanceMatrix) else np.asarray(
        matrix, dtype=float
    )
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(np.diagonal(a) != 0.0):
        return False
    pattern = a > 0.0
    if not _reachable_from(pattern, 0).all():
        return False
    return _reachable_from(pattern.T, 0).all()


def unreachable_pair(matrix):
    """A witness (m, n) with no positive-entry chain from m to n, or None."""
    pattern = _positive_pattern(matrix)
    n = pattern.shape[0]
    for m in range(n):
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
    Admissibility is not checked here; it is enforced when the matrix is
    handed to the method.
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


def evaluate_policy(policy: Policy, m: int, matrix: DistanceMatrix) -> float:
    """Floor value for row ``m``: 0 on an all-zero row, else > 0.

    The result never exceeds beta times the row maximum, which is the decay
    property convergence rests on.
    """
    if not 0 <= m < matrix.n:
        raise IndexError(f"row index {m} out of range 0..{matrix.n - 1}")
    count = matrix._count[m]
    if count == 0:
        return 0.0
    if policy.kind == "min":
        return policy.beta * matrix._minpos[m]
    avg = matrix._sum[m] / count
    # the incrementally maintained sum can nudge the average a hair above
    # the row max; clamping to the exact row max, read only here, keeps the
    # decay bound exact in floats
    row = matrix._a[m]
    return min(policy.beta * avg, policy.beta * row.item(row.argmax()))


class PamState:
    """Single-owner evolving state of the memory method.

    Holds the current set index, a private working copy of the memory
    matrix, and a seeded random generator used only for argmax tie
    breaking.  The matrix must be admissible; this is checked here once and
    preserved by every update.
    """

    __slots__ = ("matrix", "current_index", "rng")

    def __init__(self, matrix: DistanceMatrix, seed=None, start_index: int = 0):
        if not isinstance(matrix, DistanceMatrix):
            matrix = DistanceMatrix(matrix)
        if not is_admissible(matrix):
            witness = unreachable_pair(matrix)
            raise ValueError(
                "initial matrix is not admissible: no positive-entry chain "
                f"from set {witness[0]} to set {witness[1]}"
            )
        if not 0 <= start_index < matrix.n:
            raise ValueError(f"start index {start_index} out of range")
        self.matrix = matrix.copy()
        self.current_index = int(start_index)
        self.rng = np.random.default_rng(seed)

    @property
    def n(self) -> int:
        return self.matrix.n


def pam_select(state: PamState) -> int:
    """Pick the most promising next set: argmax of the current row.

    Ties under exact float equality are resolved uniformly at random with
    the state's generator; the current index is never returned.
    """
    j = state.current_index
    # a view suffices: the diagonal is 0 and no entry is negative, so once
    # the maximum is positive the current index cannot be among the ties
    row = state.matrix._a[j]
    k = int(row.argmax())
    best = row.item(k)
    if not best > 0.0:
        raise InvariantViolation(
            f"row {j} has no positive entry besides the diagonal; "
            "the matrix was not admissible"
        )
    # argmax returns the first maximum, so the maximum is unique iff the
    # first one found from the end is the same entry; two argmax calls cost
    # less than one max reduction
    if k == row.size - 1 - int(row[::-1].argmax()):
        return k
    ties = (row == best).nonzero()[0]
    return int(ties[state.rng.integers(ties.size)])


def pam_update(
    state: PamState, j_next: int, step_length: float, policy: Policy
) -> PamState:
    """Record a completed transition and advance the current index.

    The entry (current, j_next) becomes max(step_length, floor), where the
    floor is the policy value of the current row evaluated on the matrix
    *before* the write.  The strict-positivity pattern of the matrix is
    preserved exactly.
    """
    j = state.current_index
    matrix = state.matrix
    n = matrix._a.shape[0]
    if not 0 <= j_next < n:
        raise IndexError(f"index {j_next} out of range 0..{n - 1}")
    if j_next == j:
        raise ValueError("next index must differ from the current index")
    step = float(step_length)
    if not (math.isfinite(step) and step >= 0.0):
        raise ValueError("step_length must be finite and >= 0")
    if matrix._a.item(j, j_next) == 0.0:
        raise InvariantViolation(
            f"transition ({j}, {j_next}) has zero weight; selection must "
            "never propose it"
        )
    value = max(step, evaluate_policy(policy, j, matrix))
    if not value > 0.0:
        raise InvariantViolation(
            f"update for transition ({j}, {j_next}) would erase a positive "
            "entry (underflow)"
        )
    matrix._overwrite(j, j_next, value)
    state.current_index = int(j_next)
    return state
