"""Index choosers: which set to project onto next.

All three strategies share one interface: ``next_index(last_step_length)``
returns the 0-based index of the set for the upcoming projection, given the
length of the step the previous projection produced (``None`` on the first
call).  A strategy instance is advanced sequentially by a single owner;
independent instances can run in parallel across seeds, as ``memproj run``
runs its seeds in worker processes, one per CPU of the affinity mask.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left

import numpy as np

from .memory import (_TINY, DistanceMatrix, InvariantViolation, Policy, _check_integer,
                     is_admissible, unreachable_pair)

__all__ = ["Strategy", "Cyclic", "RandomizedCycles", "Memory", "transition_counts"]

_NORMAL_MIN = sys.float_info.min  # the smallest positive normal double


class Strategy:
    """Base class for index choosers."""

    n_sets: int
    # when True the driver must first project the start point onto the
    # chooser's current set, because selection assumes the iterate is there
    needs_start_projection = False
    # when True every instance built for the same sets picks the same
    # indices whatever its seed, so one run serves every seed
    deterministic = False

    def next_index(self, last_step_length=None) -> int:
        raise NotImplementedError

    def finish(self, last_step_length=None) -> None:
        """Hook called once after the last projection of a run."""


class Cyclic(Strategy):
    """Fixed cyclic order 0, 1, ..., N-1, 0, 1, ..."""

    deterministic = True

    def __init__(self, n_sets: int):
        _check_integer("n_sets", n_sets, 1)
        self.n_sets = int(n_sets)
        self._k = 0

    def next_index(self, last_step_length=None) -> int:
        j = self._k % self.n_sets
        self._k += 1
        return j

    def _state(self):  # run() rewinds a blind stretch with _state and _restore
        return self._k

    def _restore(self, state, picks: int) -> None:  # back to state, then ``picks`` picks
        self._k = state + picks


class RandomizedCycles(Strategy):
    """A fresh uniformly random permutation of all sets for every cycle.

    Unlike i.i.d. index sampling, every window of N consecutive outputs that
    aligns with a cycle visits each set exactly once.  Each cycle shuffles a new
    ``list(range(N))``, draw for draw as ``permutation(N)``; ``_state`` holds the old one.
    """

    def __init__(self, n_sets: int, seed=None):
        _check_integer("n_sets", n_sets, 1)
        self.n_sets = int(n_sets)
        self._rng = np.random.default_rng(seed)
        self._perm = None
        self._pos = self.n_sets

    def next_index(self, last_step_length=None) -> int:
        if self._pos >= self.n_sets:
            self._rng.shuffle(perm := list(range(self.n_sets)))
            self._perm, self._pos = perm, 0
        j = self._perm[self._pos]
        self._pos += 1
        return j

    def _state(self):
        return self._rng.bit_generator.state, self._perm, self._pos

    def _restore(self, state, picks: int) -> None:
        self._rng.bit_generator.state, self._perm, self._pos = state
        for _ in range(picks):
            self.next_index()


class Memory(Strategy):
    """Learning chooser: argmax over a row of the step-length memory.

    The one owner of the method's state: ``matrix`` (a private copy),
    ``current_index``, the tie-break generator ``rng``, the ``policy`` and
    ``_pending``, the set chosen last whose step is not recorded yet.  Its
    ``admissible`` is the one admissibility check: ``__init__`` and a config's
    ``strategy_builder`` make it, ``run`` and ``run_lockstep`` rely on it; the
    latter takes unpicked ones and steps each through its own ``next_index``.

    ``next_index`` is the one owner of a step of the method.  The first call
    only selects (there is no step to record yet).  Every later call first
    records the reported step for the transition chosen last time, then
    selects from the updated matrix.  Because the update of a pending
    transition happens on the next call, drivers should call ``finish``
    with the final step length when a run stops.
    """

    needs_start_projection = True

    def __init__(self, matrix: DistanceMatrix, policy: Policy, seed=None,
                 start_index: int = 0):
        matrix = self.admissible(matrix)
        _check_integer("start_index", start_index)
        if not 0 <= start_index < matrix.n:
            raise ValueError(f"start index {start_index} out of range")
        if not isinstance(policy, Policy):
            raise ValueError(f"policy must be a Policy, not {policy!r}")
        self.matrix = matrix.copy()
        self.current_index = int(start_index)
        self.rng = np.random.default_rng(seed)
        self.policy = policy
        self.n_sets = matrix.n
        self._pending = None

    @staticmethod
    def admissible(matrix) -> DistanceMatrix:
        """``matrix`` as a ``DistanceMatrix``, or ValueError if it is not admissible."""
        if not isinstance(matrix, DistanceMatrix):
            matrix = DistanceMatrix(matrix)
        if not is_admissible(matrix):
            m, n = unreachable_pair(matrix)
            raise ValueError(
                f"matrix is not admissible: no positive-entry chain from set {m} to set {n}"
            )
        return matrix

    def next_index(self, last_step_length=None, *, pick=True):
        """Entry (current, pending) becomes max(step, floor read before the write,
        5e-324); then the new row's argmax is picked, a tie drawn from ``rng`` out of
        the row's kept ties as an int32 (below 2^32 the int64 draw's sampler, value
        and state, dispatched sooner).  ``pick=False`` records only, and returns the floor."""
        matrix, j, col = self.matrix, self.current_index, self._pending
        if col is not None:
            if last_step_length is None:
                raise ValueError("last_step_length is required on every call after the first")
            step = float(last_step_length)
            # an overflowing difference between finite iterates is an infinite step
            if not (step >= 0.0 and step < math.inf):
                raise ValueError("step_length must be finite and >= 0")
            # the pending entry is a maximum of row j: picked, and not written since
            row = matrix._rows[j]
            old, low, beta = row.item(col), matrix._minpos[j], self.policy.beta
            # the incremental sum can nudge the average a hair above the row
            # max; clamping to the exact row max keeps the decay bound exact
            base = low if self.policy.kind == "min" else min(matrix._sum[j] / matrix._count[j], old)
            floor = beta * base
            if floor < _NORMAL_MIN:
                # a subnormal product is rounded to 53 bits first and then to
                # the subnormal grid, as ldexp(floor, k) of the same row at any
                # normal scale 2^-k is, so the floor scales by powers of two
                e = math.frexp(base)[1]
                floor = math.ldexp(beta * math.ldexp(base, -e), e)
            value = step if step > floor else floor
            if value < _TINY:
                value = _TINY
            row[col] = value
            # old > 0 and value > 0, so the positive count of row j stays
            matrix._sum[j] += value - old
            if value <= low:
                matrix._minpos[j] = value
            elif old == low:
                matrix._minpos[j] = row[row > 0.0].min().item()
            top = matrix._top[j]
            if top is not None:  # lowering one of 3+ held columns leaves a tie
                i = bisect_left(top, col)
                if value < old and len(top) > 2 and i < len(top) and top[i] == col:
                    del top[i]
                else:
                    matrix._top[j] = None
            j = self.current_index = col
            self._pending = None
            if not pick:
                return floor
        elif not pick:
            raise InvariantViolation("no pending pick to record: call pam_select first")
        if (top := matrix._top[j]) is not None:
            k = self._pending = top[self.rng.integers(len(top), dtype=np.int32)]
            return k
        # the diagonal is 0 and no entry is negative, so once the maximum
        # is positive the current index cannot be among the ties
        row = matrix._rows[j]
        k = int(row.argmax())
        best = row.item(k)
        if not best > 0.0:
            raise InvariantViolation(f"row {j} has no positive entry besides the diagonal; "
                                     "the matrix was not admissible")
        # the first maximum from either end is the same entry only in an untied row
        if matrix._rev[j].argmax() != self.n_sets - 1 - k:
            top = matrix._top[j] = (row == best).nonzero()[0].tolist()
            k = top[self.rng.integers(len(top), dtype=np.int32)]
        self._pending = k
        return k

    def finish(self, last_step_length=None) -> None:
        if self._pending is not None and last_step_length is not None:
            self.next_index(last_step_length, pick=False)


def transition_counts(indices, n_sets: int) -> np.ndarray:
    """Count consecutive index pairs: entry (m, n) = #{k : j_k=m, j_{k+1}=n}.

    The total count equals len(indices) - 1; a single-entry sequence gives
    the all-zero matrix.
    """
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("indices must be a nonempty 1-D sequence")
    if idx.min() < 0 or idx.max() >= n_sets:
        raise ValueError("indices out of range")
    cells = idx[:-1] * n_sets + idx[1:]
    return np.bincount(cells, minlength=n_sets * n_sets).reshape(n_sets, n_sets)
