"""Index choosers: which set to project onto next.

All three strategies share one interface: ``next_index(last_step_length)``
returns the 0-based index of the set for the upcoming projection, given the
length of the step the previous projection produced (``None`` on the first
call).  A strategy instance is advanced sequentially by a single owner;
independent instances can run in parallel across seeds.
"""
from __future__ import annotations

import numpy as np

from .memory import DistanceMatrix, PamState, Policy, pam_select, pam_update

__all__ = ["Strategy", "Cyclic", "RandomizedCycles", "Memory", "transition_counts"]


class Strategy:
    """Base class for index choosers."""

    n_sets: int
    # when True the driver must first project the start point onto the
    # chooser's current set, because selection assumes the iterate is there
    needs_start_projection = False

    def next_index(self, last_step_length=None) -> int:
        raise NotImplementedError

    def finish(self, last_step_length=None) -> None:
        """Hook called once after the last projection of a run."""


class Cyclic(Strategy):
    """Fixed cyclic order 0, 1, ..., N-1, 0, 1, ..."""

    def __init__(self, n_sets: int):
        if n_sets < 1:
            raise ValueError("need at least one set")
        self.n_sets = int(n_sets)
        self._k = 0

    def next_index(self, last_step_length=None) -> int:
        j = self._k % self.n_sets
        self._k += 1
        return j


class RandomizedCycles(Strategy):
    """A fresh uniformly random permutation of all sets for every cycle.

    Unlike i.i.d. index sampling, every window of N consecutive outputs that
    aligns with a cycle visits each set exactly once.
    """

    def __init__(self, n_sets: int, seed=None):
        if n_sets < 1:
            raise ValueError("need at least one set")
        self.n_sets = int(n_sets)
        self._rng = np.random.default_rng(seed)
        self._perm = None
        self._pos = self.n_sets

    def next_index(self, last_step_length=None) -> int:
        if self._pos >= self.n_sets:
            self._perm = self._rng.permutation(self.n_sets).tolist()
            self._pos = 0
        j = self._perm[self._pos]
        self._pos += 1
        return j


class Memory(Strategy):
    """Learning chooser: argmax over a row of the step-length memory.

    The first call only selects (there is no step to record yet).  Every
    later call first records the reported step for the transition chosen
    last time, then selects from the updated matrix.  Because the update of
    a pending transition happens on the next call, drivers should call
    ``finish`` with the final step length when a run stops, so the matrix
    reflects every projection performed.
    """

    needs_start_projection = True

    def __init__(self, matrix: DistanceMatrix, policy: Policy, seed=None,
                 start_index: int = 0):
        self._state = PamState(matrix, seed=seed, start_index=start_index)
        self.policy = policy
        self.n_sets = self._state.n
        self._pending = None

    @property
    def matrix(self) -> DistanceMatrix:
        """The live memory matrix (do not mutate)."""
        return self._state.matrix

    @property
    def current_index(self) -> int:
        return self._state.current_index

    def next_index(self, last_step_length=None) -> int:
        if self._pending is not None:
            if last_step_length is None:
                raise ValueError(
                    "last_step_length is required on every call after the first"
                )
            pam_update(self._state, self._pending, last_step_length, self.policy)
        j = pam_select(self._state)
        self._pending = j
        return j

    def finish(self, last_step_length=None) -> None:
        if self._pending is not None and last_step_length is not None:
            pam_update(self._state, self._pending, last_step_length, self.policy)
            self._pending = None


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
