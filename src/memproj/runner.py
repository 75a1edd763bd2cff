"""Iteration engine: project, record, stop.

A run applies ``x <- project(x, sets[j])`` with ``j`` supplied by a
strategy, records one row per projection performed, and halts when a
stopping criterion fires.  Cost is counted in projections; for the memory
strategy the mandatory initial projection onto its starting set is
projection number 0 of the run.

With ``debug_asserts`` enabled and a known feasible point supplied, every
step is checked against the two error-reduction inequalities that all
metric projections satisfy, and the run aborts with a diagnostic when a
violation exceeds the floating-point slack, which is relative to the
magnitudes of the iterates and the point.

A plain ``Cyclic`` or ``RandomizedCycles`` (not a subclass) never reads the
steps: without a residual tolerance or ``debug_asserts``, ``run`` projects it
in stretches up to the first projection the step rule could stop at (at most
1024) and records each stretch in one array pass, with the same bits.  Such a
chooser has moved past a non-finite iterate when ``NumericError`` is raised:
the rest of its stretch was computed, then discarded.  Likewise, with a known
point but no residual tolerance or ``debug_asserts``, no residual is read
during the run: ``run`` measures them in array passes over at most 1024
iterates each, with the bits of one distance per projection.

``run_lockstep`` drives several strategies over the same lines through the
origin at once, one row of a stacked iterate array per run, and returns
the traces ``run`` would give each of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .memory import MemoryStack
from .sets import _LARGEST, _SMALLEST_NORMAL, LineThroughOrigin, _distance
from .strategies import Cyclic, Memory, RandomizedCycles, Strategy, transition_counts

__all__ = [
    "NumericError",
    "FejerViolation",
    "StoppingRule",
    "RunTrace",
    "run",
    "run_lockstep",
    "residual_series",
    "STATUS_STEP",
    "STATUS_RESIDUAL",
    "STATUS_MAX_ITERATIONS",
]

STATUS_STEP = "converged_by_step"
STATUS_RESIDUAL = "converged_by_residual"
STATUS_MAX_ITERATIONS = "max_iterations"

# smallest positive double: a step tolerance that only exact zeros beat,
# used for fixed-budget runs
_NEVER = 5e-324

_EPS = float(np.finfo(float).eps)
# allowed rounding in the debug error-reduction check, in units of
# machine epsilon times the magnitudes of the two iterates and the point
_FEJER_ULPS = 1024

_STRETCH = 1024  # most projections in one stretch: bounds memory under a huge window


class NumericError(RuntimeError):
    """An iterate became non-finite (overflow or NaN)."""


class FejerViolation(RuntimeError):
    """A projection step failed the error-reduction check in debug mode."""


@dataclass(frozen=True)
class StoppingRule:
    """When to halt a run.

    ``step_window`` is the number of trailing projections whose steps must
    all be shorter than ``step_tolerance`` for the step criterion to fire;
    ``None`` means twice the number of sets, a full-recurrence window, so a
    run cannot stop merely because one transition stalled.  The residual
    criterion needs a known feasible point and fires when the distance to
    it drops below ``residual_tolerance``.
    """

    max_iterations: int
    step_window: int | None = None
    step_tolerance: float = 1e-12
    residual_tolerance: float | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.step_window is not None and self.step_window < 1:
            raise ValueError("step_window must be at least 1")
        if not self.step_tolerance > 0.0:
            raise ValueError("step_tolerance must be > 0")
        if self.residual_tolerance is not None and not self.residual_tolerance > 0.0:
            raise ValueError("residual_tolerance must be > 0")

    @classmethod
    def exact_budget(cls, n_projections: int) -> "StoppingRule":
        """Run for exactly ``n_projections`` unless steps hit exact zero."""
        return cls(max_iterations=n_projections, step_tolerance=_NEVER)


@dataclass
class RunTrace:
    """Everything recorded during one run.

    ``set_indices[k]``, ``step_lengths[k]`` and ``residuals[k]`` describe
    projection k (0-based); ``residuals`` is present only when a known
    point was supplied.  ``iterates`` (optional) holds the start point
    followed by the iterate after each projection, so it has one more row
    than there were projections.  For the memory strategy ``final_matrix``
    is the memory after its last update and ``matrix_snapshots`` holds
    (projection_count, matrix) pairs taken every snapshot interval.
    """

    set_indices: np.ndarray
    step_lengths: np.ndarray
    status: str
    n_sets: int
    x0: np.ndarray
    x_final: np.ndarray
    residuals: np.ndarray | None = None
    known_point: np.ndarray | None = None
    iterates: np.ndarray | None = None
    final_matrix: np.ndarray | None = None
    matrix_snapshots: list = field(default_factory=list)

    @property
    def n_projections(self) -> int:
        return int(self.set_indices.shape[0])

    def transition_counts(self) -> np.ndarray:
        return transition_counts(self.set_indices, self.n_sets)


def _check_fejer(x_prev, x_next, z, step, k):
    d_prev = _distance(x_prev, z)
    d_next = _distance(x_next, z)
    # rounding in the projection and in the three distances is bounded by a
    # multiple of machine epsilon times the magnitudes involved, so the
    # slack scales with them and the check means the same at every scale
    scale = _distance(x_prev, 0.0) + _distance(x_next, 0.0) + _distance(z, 0.0)
    slack = _FEJER_ULPS * _EPS * scale
    if d_next * d_next > d_prev * d_prev - step * step + slack * scale:
        raise FejerViolation(
            f"projection {k}: squared distance to the reference point fell "
            f"by less than the squared step ({d_prev:.17g} -> {d_next:.17g}, "
            f"step {step:.17g}); is the reference point feasible?"
        )
    if d_next > d_prev + slack:
        raise FejerViolation(
            f"projection {k}: distance to the reference point increased "
            f"({d_prev:.17g} -> {d_next:.17g}); is the reference point feasible?"
        )


def _checked_inputs(sets: list, strategy: Strategy, x0, stop: StoppingRule, known_point):
    """Validate one run's inputs; return (x0, known point, memory matrix, window).

    ``x0`` and the known point come back as fresh float arrays, the known
    point and the memory matrix as None when there is none.
    """
    n = len(sets)
    if n < 2:
        raise ValueError("need at least 2 sets")
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError("x0 must be a 1-D vector")
    d = x.shape[0]
    for i, s in enumerate(sets):
        if s.dim != d:
            raise ValueError(f"set {i} has dimension {s.dim}, expected {d}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must have finite entries")
    if strategy.n_sets != n:
        raise ValueError(
            f"strategy was built for {strategy.n_sets} sets, got {n}"
        )
    z = None
    if known_point is not None:
        z = np.array(known_point, dtype=float)
        if z.shape != (d,):
            raise ValueError("known_point dimension mismatch")
    # a Memory checked its matrix when it was built, and n_sets is its size
    memory_matrix = getattr(strategy, "matrix", None)
    window = stop.step_window if stop.step_window is not None else 2 * n
    if window < n:
        raise ValueError("step_window must cover at least one full sweep (>= N)")
    return x, z, memory_matrix, window


# _distance rescales an overflowing sum of squares; a non-finite iterate raises
@np.errstate(over="ignore", invalid="ignore")
def run(
    sets,
    strategy: Strategy,
    x0,
    stop: StoppingRule,
    known_point=None,
    *,
    debug_asserts: bool = False,
    store_iterates: bool = False,
    matrix_snapshot_interval: int | None = None,
) -> RunTrace:
    """Drive ``strategy`` over ``sets`` from ``x0`` until ``stop`` fires.

    All sets must share the dimension of ``x0`` and there must be at least
    two of them.  For the memory strategy the start point is first moved
    into the strategy's starting set (that projection is part of the run
    and of its cost); its matrix was checked when the strategy was built.
    """
    sets = list(sets)
    n = len(sets)
    x, z, memory_matrix, window = _checked_inputs(sets, strategy, x0, stop, known_point)

    indices: list[int] = []
    steps: list[float] = []
    residuals: list[float] | None = [] if z is not None else None
    iterates = [x.copy()] if store_iterates else None
    snapshots: list = []
    x_start = x.copy()
    status = STATUS_MAX_ITERATIONS
    check_fejer = debug_asserts and z is not None
    step_tolerance = stop.step_tolerance
    residual_tolerance = stop.residual_tolerance if z is not None else None
    snapshot_interval = matrix_snapshot_interval if memory_matrix is not None else None
    # the step rule fires once the last ``window`` steps are all below the
    # tolerance, i.e. once the latest step at or above it is ``window``
    # projections back; -1 stands for "before the first projection"
    last_big = -1
    # iterates whose residuals nothing reads during the run, measured in array
    # passes; None: each residual is measured at its projection
    deferred = z is not None and residual_tolerance is None and not check_fejer
    unmeasured = [] if deferred else None

    def measure():
        residuals.extend(_row_lengths(np.array(unmeasured) - z).tolist())
        unmeasured.clear()

    def record(j: int, x_prev: np.ndarray, x_next: np.ndarray) -> tuple[float, str | None]:
        """Append projection ``len(indices)``; return its step and the stop verdict."""
        nonlocal last_big
        k = len(indices)
        step = _distance(x_next, x_prev)
        # a finite step from a finite iterate implies a finite next iterate
        if not step < math.inf and not np.all(np.isfinite(x_next)):
            raise NumericError(f"non-finite iterate after projection {k}")
        if check_fejer:
            _check_fejer(x_prev, x_next, z, step, k)
        indices.append(j)
        steps.append(step)
        if not step < step_tolerance:
            last_big = k
        verdict = None
        if unmeasured is not None:
            unmeasured.append(x_next)
            if len(unmeasured) == _STRETCH:
                measure()
        elif z is not None:
            res = _distance(x_next, z)
            residuals.append(res)
            if residual_tolerance is not None and res < residual_tolerance:
                verdict = STATUS_RESIDUAL
        if iterates is not None:
            iterates.append(x_next.copy())
        if verdict is None and k - last_big >= window:
            verdict = STATUS_STEP
        return step, verdict

    if strategy.needs_start_projection:
        j0 = int(getattr(strategy, "current_index", 0))
        x_next = sets[j0].project(x)
        _, verdict = record(j0, x, x_next)
        x = x_next
        if verdict is not None:
            status = verdict

    last_step = None
    next_index = strategy.next_index
    max_iterations = stop.max_iterations
    # a chooser blind to the steps, stopped by the step rule alone: project up to
    # the first projection that rule could stop at, then record the whole stretch
    stretched = (type(strategy) in (Cyclic, RandomizedCycles)
                 and residual_tolerance is None and not debug_asserts)
    while stretched and status == STATUS_MAX_ITERATIONS and len(indices) < max_iterations:
        k = len(indices)
        js, xs, error = [], [x], None
        try:
            for _ in range(min(last_big + window + 1 - k, max_iterations - k, _STRETCH)):
                js.append(j := next_index())
                xs.append(x := sets[j].project(x))
        except Exception as exc:  # raised below, unless an earlier iterate is non-finite
            error = exc
        if len(xs) > 1:
            X = np.array(xs)
            diffs = [X[1:] - X[:-1]] if z is None else [X[1:] - X[:-1], X[1:] - z]
            lengths = _row_lengths(np.concatenate(diffs))  # the steps, then the residuals
            new_steps = lengths[:len(X) - 1]
            for p in np.flatnonzero(~(new_steps < math.inf)).tolist():
                if not np.all(np.isfinite(X[p + 1])):
                    raise NumericError(f"non-finite iterate after projection {k + p}")
        if error is not None:
            raise error
        indices.extend(js)
        steps.extend(new_steps.tolist())
        if z is not None:
            residuals.extend(lengths[len(new_steps):].tolist())
        if iterates is not None:
            iterates.extend(X[1:])
        last_step = steps[-1]
        big = np.flatnonzero(~(new_steps < step_tolerance))
        if big.size:
            last_big = k + int(big[-1])
        if len(indices) - 1 - last_big >= window:
            status = STATUS_STEP

    while status == STATUS_MAX_ITERATIONS and len(indices) < max_iterations:
        j = next_index(last_step)
        x_next = sets[j].project(x)
        last_step, verdict = record(j, x, x_next)
        x = x_next
        if snapshot_interval is not None and len(indices) % snapshot_interval == 0:
            snapshots.append((len(indices), strategy.matrix.to_array()))
        if verdict is not None:
            status = verdict
    if unmeasured:
        measure()

    strategy.finish(last_step)
    final_matrix = None
    if memory_matrix is not None:
        final_matrix = strategy.matrix.to_array()

    return RunTrace(
        set_indices=np.asarray(indices, dtype=int),
        step_lengths=np.asarray(steps, dtype=float),
        status=status,
        n_sets=n,
        x0=x_start,
        x_final=x,
        residuals=None if residuals is None else np.asarray(residuals, dtype=float),
        known_point=z,
        iterates=None if iterates is None else np.asarray(iterates, dtype=float),
        final_matrix=final_matrix,
        matrix_snapshots=snapshots,
    )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of the matching rows of two (S, d) arrays.

    A stacked (1, d) @ (d, 1) matmul makes the same dot call per row as
    ``a[i] @ b[i]``, so every entry has the bits a single run computes;
    ``einsum``, ``(a * b).sum(1)`` and a matrix-vector product sum in other
    orders and do not.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_lengths(v: np.ndarray) -> np.ndarray:
    """``_distance(v[i], 0.0)`` for every row of an (S, d) array, bit for bit."""
    d = _row_dots(v, v)
    out = np.sqrt(d)
    if not (d.min() >= _SMALLEST_NORMAL and d.max() <= _LARGEST):
        for p in np.flatnonzero(~((d >= _SMALLEST_NORMAL) & (d <= _LARGEST))):
            out[p] = _distance(v[p], 0.0)
    return out


@np.errstate(over="ignore")  # as for run()
def run_lockstep(
    sets,
    strategies,
    x0,
    stop: StoppingRule,
    known_point=None,
    *,
    store_iterates: bool = False,
) -> list[RunTrace]:
    """Run every strategy over the same lines from ``x0``, all together.

    Returns ``[run(sets, s, x0, stop, known_point,
    store_iterates=store_iterates) for s in strategies]`` bit for bit, and
    raises what that raises.  The iterates of the runs form one (S, d)
    array, so one projection of all S runs costs the NumPy calls of one
    projection of one run.  Plain ``Memory`` strategies pick together in a
    ``MemoryStack``, each from its own random stream.  Every set must
    be a ``LineThroughOrigin`` and every strategy a distinct object.
    """
    sets = list(sets)
    strategies = list(strategies)
    if not strategies:
        return []
    inputs = [_checked_inputs(sets, s, x0, stop, known_point) for s in strategies]
    for i, s in enumerate(sets):
        if not isinstance(s, LineThroughOrigin):
            raise TypeError(
                f"set {i} is a {type(s).__name__}; run_lockstep projects onto "
                "LineThroughOrigin sets only"
            )
    if len({id(s) for s in strategies}) < len(strategies):
        raise ValueError("every run needs its own strategy object")

    n = len(sets)
    x, z, _, window = inputs[0]
    directions = np.array([s.direction for s in sets])
    vv = np.array([s._vv for s in sets])
    step_tolerance = stop.step_tolerance
    residual_tolerance = stop.residual_tolerance if z is not None else None
    start = [
        int(getattr(s, "current_index", 0)) if s.needs_start_projection else None
        for s in strategies
    ]

    # plain Memory strategies pick through one MemoryStack (a subclass keeps
    # its own next_index); slot[p] is row p's strategy in the stack, or -1
    batched = [i for i, s in enumerate(strategies) if type(s) is Memory
               and s._pending is None and s.needs_start_projection]
    stack = MemoryStack([strategies[i] for i in batched]) if batched else None
    slot = np.full(len(strategies), -1)
    slot[batched] = range(len(batched))

    # row p of the stacked state belongs to run rows[p]; a run leaves the
    # rows when it stops or raises
    rows = list(range(len(strategies)))
    X = np.tile(x, (len(rows), 1))
    lasts = [None] * len(rows)
    last_big = np.full(len(rows), -1)
    # per projection since the rows last changed: indices, steps,
    # residuals and iterates, one entry per row
    segment: list[tuple] = []
    chunks: list[list[tuple]] = [[] for _ in strategies]
    traces: list[RunTrace | None] = [None] * len(strategies)
    errors: dict[int, Exception] = {}

    def close_segment():
        columns = [None if c[0] is None else np.array(c) for c in zip(*segment)]
        for p, i in enumerate(rows):
            chunks[i].append(tuple(None if c is None else c[:, p] for c in columns))
        segment.clear()

    def finish(p: int, i: int, status: str):
        strategy = strategies[i]
        try:
            strategy.finish(lasts[p])
        except Exception as exc:  # run() would raise it; so does the caller, later
            errors[i] = exc
            return
        x_i, z_i, matrix_i, _ = inputs[i]
        j_parts, step_parts, res_parts, x_parts = zip(*chunks[i])
        traces[i] = RunTrace(
            set_indices=np.concatenate(j_parts),
            step_lengths=np.concatenate(step_parts),
            status=status,
            n_sets=n,
            x0=x_i,
            x_final=X[p].copy(),
            residuals=None if z is None else np.concatenate(res_parts),
            known_point=z_i,
            iterates=np.concatenate([x_i[None, :], *x_parts]) if store_iterates else None,
            final_matrix=None if matrix_i is None else strategy.matrix.to_array(),
        )

    for k in range(stop.max_iterations):
        # row -> stop status, or None for a run that raised
        leaving: dict[int, str | None] = {}
        picked = {}
        pos = (slot >= 0).nonzero()[0] if k else ()
        if len(pos):  # every batched run made a start projection at k = 0
            picks = stack.next_indices(slot[pos], steps[pos] if k > 1 else None)
            picked = dict(zip(pos.tolist(), picks.tolist())) if len(pos) < len(rows) else None
        if picked is None:
            ja = picks  # the stack picked for every row
        else:
            js = []
            for p, i in enumerate(rows):
                if k == 0 and start[i] is not None:
                    js.append(start[i])
                elif p in picked:
                    js.append(picked[p])
                else:
                    try:
                        js.append(strategies[i].next_index(lasts[p]))
                    except Exception as exc:  # one run's error must not stop the others
                        errors[i] = exc
                        leaving[p] = None
                        js.append(0)  # a stand-in; the row leaves after this projection
            ja = np.array(js)
        d_rows = directions[ja]
        # the order of run(): ((d . x) / (d . d)) d, then the differences
        x_next = (_row_dots(d_rows, X) / vv[ja])[:, None] * d_rows
        diffs = [x_next - X] if z is None else [x_next - X, x_next - z]
        lengths = _row_lengths(np.concatenate(diffs))  # the steps, then the residuals
        steps, res = lengths[:len(rows)], None if z is None else lengths[len(rows):]
        segment.append((ja, steps, res, x_next if store_iterates else None))
        X = x_next
        lasts = steps.tolist()
        if k == 0:
            lasts = [None if start[i] is not None else s for i, s in zip(rows, lasts)]
        last_big = np.where(steps < step_tolerance, last_big, k)

        # a finite step from a finite iterate implies a finite next iterate
        if not steps.max() < math.inf:
            for p in np.flatnonzero(~(steps < math.inf)).tolist():
                if p not in leaving and not np.all(np.isfinite(x_next[p])):
                    errors[rows[p]] = NumericError(f"non-finite iterate after projection {k}")
                    leaving[p] = None
                elif slot[p] >= 0:  # Memory rejects an overflowed step itself
                    stack.write_back(slot[p])
                    slot[p] = -1
        if last_big.min() <= k - window or (
            residual_tolerance is not None and (res < residual_tolerance).any()
        ):
            for p in range(len(rows)):
                if p in leaving:
                    continue
                if residual_tolerance is not None and res[p] < residual_tolerance:
                    leaving[p] = STATUS_RESIDUAL
                elif last_big[p] <= k - window:
                    leaving[p] = STATUS_STEP
        if k + 1 == stop.max_iterations:
            for p in range(len(rows)):
                leaving.setdefault(p, STATUS_MAX_ITERATIONS)
        if not leaving:
            continue

        if errors:
            # only the lowest-numbered failing run's error is raised, so the
            # runs after it need not go on
            first_error = min(errors)
            for p, i in enumerate(rows):
                if i > first_error:
                    leaving.setdefault(p, None)
        close_segment()
        for p, status in leaving.items():
            if slot[p] >= 0:
                stack.write_back(slot[p])
            if status is not None:
                finish(p, rows[p], status)
        keep = [p for p in range(len(rows)) if p not in leaving]
        if not keep:
            break
        rows = [rows[p] for p in keep]
        lasts = [lasts[p] for p in keep]
        X, steps, last_big, slot = X[keep], steps[keep], last_big[keep], slot[keep]

    if errors:
        raise errors[min(errors)]
    return traces


@np.errstate(over="ignore")  # as for run()
def residual_series(trace: RunTrace, z) -> np.ndarray:
    """Distances to ``z`` along the run: entry i is after i projections.

    Works from stored iterates when available, otherwise from the residual
    column when ``z`` equals the run's known point.
    """
    zv = np.asarray(z, dtype=float)
    if zv.shape != trace.x0.shape:
        raise ValueError("z dimension mismatch")
    if trace.iterates is not None:
        # row by row with the distance helper the recorder used, so the
        # series matches stored residuals bit for bit
        return np.array([_distance(row, zv) for row in trace.iterates])
    if trace.residuals is not None and trace.known_point is not None and np.array_equal(
        zv, trace.known_point
    ):
        first = _distance(trace.x0, zv)
        return np.concatenate([[first], trace.residuals])
    raise ValueError(
        "iterates were not stored; rerun with store_iterates=True or pass "
        "the run's known point"
    )
