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

``run`` projects in stretches of at most 1024 projections and measures in
one array pass per stretch what no chooser or stop rule read during it, with
the bits of one distance per step and per residual; the checks then run in
projection order, so the chooser may have moved past the projection that
raises ``NumericError`` or ``FejerViolation``.  A chooser blind to the steps
(exactly ``Cyclic`` or ``RandomizedCycles``, no residual stop) draws each
stretch's picks before it projects, and runs stretches at least as long as
the run before them; where the step rule fired inside one, the stretch is cut
there and the chooser rewound to that projection.

``run_lockstep`` drives several strategies of one class over the same lines
through the origin at once, one row of a stacked iterate array per run, and
returns the traces ``run`` would give each of them; each row picks through
its own strategy's ``next_index``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .memory import _check_integer
from .sets import _LARGEST, _SMALLEST_SUM, LineThroughOrigin, _distance
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

_STRETCH = 1024  # most projections in one stretch: bounds its memory under a huge window


class NumericError(RuntimeError):
    """An iterate became non-finite (overflow or NaN)."""


class FejerViolation(RuntimeError):
    """A projection step failed the error-reduction check in debug mode."""


@dataclass(frozen=True)
class StoppingRule:
    """When to halt a run.

    ``step_window`` is the number of trailing projections whose steps must
    all be shorter than ``step_tolerance`` for the step criterion to fire;
    ``None`` means twice the number of sets.  Under ``Cyclic`` and
    ``RandomizedCycles`` such a window holds a projection onto every set, so
    their runs cannot stop merely because one transition stalled; a
    ``Memory`` run may cycle among some of the sets for the whole window and
    stop while another set is still far away.  The residual
    criterion needs a known feasible point and fires when the distance to
    it drops below ``residual_tolerance``.
    """

    max_iterations: int
    step_window: int | None = None
    step_tolerance: float = 1e-12
    residual_tolerance: float | None = None

    def __post_init__(self):
        _check_integer("max_iterations", self.max_iterations, 1)
        if self.step_window is not None:
            _check_integer("step_window", self.step_window, 1)
        for name in ("step_tolerance", "residual_tolerance"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not {getattr(self, name)!r}")
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
    # multiple of machine epsilon times the magnitudes involved, plus as many
    # smallest subnormals (among subnormals rounding is absolute), so the
    # slack scales with them and the check means the same at every scale
    scale = _distance(x_prev, 0.0) + _distance(x_next, 0.0) + _distance(z, 0.0)
    slack = _FEJER_ULPS * (_EPS * scale + math.ulp(0.0))
    # squared, the quantities are first scaled by the power of two that brings
    # scale into [0.5, 1): exact, and no square that matters under- or overflows
    e = -math.frexp(scale)[1]
    p, q, s, t = (math.ldexp(v, e) for v in (d_prev, d_next, step, slack))
    if q * q > p * p - s * s + t * math.ldexp(scale, e):
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
        raise ValueError(f"strategy was built for {strategy.n_sets} sets, got {n}")
    z = None
    if known_point is not None:
        z = np.array(known_point, dtype=float)
        if z.shape != (d,):
            raise ValueError("known_point dimension mismatch")
        if not np.all(np.isfinite(z)):
            raise ValueError("known_point must have finite entries")
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
    if matrix_snapshot_interval is not None:
        _check_integer("matrix_snapshot_interval", matrix_snapshot_interval, 1)

    indices, steps, snapshots = [], [], []
    residuals = [] if z is not None else None
    iterates = [x.copy()] if store_iterates else None
    x_start = x.copy()
    status = STATUS_MAX_ITERATIONS
    check_fejer = debug_asserts and z is not None
    step_tolerance = stop.step_tolerance
    residual_tolerance = stop.residual_tolerance if z is not None else None
    deferred = z is not None and residual_tolerance is None  # residuals no rule reads
    snapshot_interval = matrix_snapshot_interval if memory_matrix is not None else None
    # projection 0 goes onto the current set of a chooser that needs it, unpicked
    start = (int(getattr(strategy, "current_index", 0))
             if strategy.needs_start_projection else None)
    # a chooser that reads the steps, or a residual stop, sees each projection:
    # it is measured and checked as it is made; any other run is blind
    sees_each = (type(strategy) not in (Cyclic, RandomizedCycles)
                 or residual_tolerance is not None)
    # a stretch keeps its iterates for an array pass, a Fejer check or the store only
    lean = sees_each and not (deferred or check_fejer or store_iterates)
    # the step rule fires once the last ``window`` steps are all below the
    # tolerance, i.e. once the latest step at or above it is ``window``
    # projections back; -1 stands for "before the first projection"
    last_big = -1
    last_step = None
    next_index = strategy.next_index
    project = [s.project for s in sets]
    while status == STATUS_MAX_ITERATIONS and len(indices) < stop.max_iterations:
        k0 = len(indices)
        size = min(stop.max_iterations - k0, _STRETCH)
        if not sees_each:
            # to where the step rule could first fire, or as long as the run so far
            size = min(size, max(k0, last_big + window + 1 - k0))
            saved = strategy._state()
        js, xs, seen, seen_residuals, error = [], [x], [], [], None
        try:
            if not sees_each:  # a blind chooser picks the whole stretch first
                js = [next_index() for _ in range(size)]
                for j in js:
                    xs.append(x := project[j](x))
            else:
                for k in range(k0, k0 + size):
                    js.append(j := next_index(last_step) if k or start is None else start)
                    xs.append(x := project[j](x))
                    step = _distance(x, xs[-2])
                    # a finite step from a finite iterate implies a finite next iterate
                    if not step < math.inf and not np.all(np.isfinite(x)):
                        raise NumericError(f"non-finite iterate after projection {k}")
                    seen.append(step)
                    if lean:
                        del xs[0]
                    if not step < step_tolerance:
                        last_big = k
                    if residual_tolerance is not None:
                        seen_residuals.append(res := _distance(x, z))
                        if res < residual_tolerance:
                            status = STATUS_RESIDUAL
                    if k or start is None:
                        last_step = step
                        if snapshot_interval is not None and (k + 1) % snapshot_interval == 0:
                            snapshots.append((k + 1, strategy.matrix.to_array()))
                    if status != STATUS_MAX_ITERATIONS or k - last_big >= window:
                        break
        except Exception as exc:  # raised below, unless an earlier projection fails a check
            if len(xs) == 1:
                raise
            error = exc

        # one array pass measures what the loop did not; the checks then run
        # in projection order
        if deferred or not sees_each:
            X = np.array(xs)
            parts = [] if sees_each else [X[1:] - X[:-1]]
            if deferred:
                parts.append(X[1:] - z)
            lengths = _row_lengths(np.concatenate(parts))
        new_steps = np.array(seen) if sees_each else lengths[:len(xs) - 1]
        m = len(new_steps)
        new_residuals = lengths[-m:].tolist() if deferred else seen_residuals
        if not sees_each:
            # the rule fires ``window`` projections after a big step with none between
            big = np.r_[last_big, k0 + np.flatnonzero(~(new_steps < step_tolerance))]
            fired = np.flatnonzero(np.diff(big, append=k0 + m) > window)
            last_big = int(big[fired[0] if fired.size else -1])
            if fired.size:  # rewind the chooser; what came later never happened
                m = last_big + window + 1 - k0
                strategy._restore(saved, m)
                del js[m:], xs[m + 1:]
                new_steps, new_residuals, error = new_steps[:m], new_residuals[:m], None
                x = xs[-1]
        bad = m if sees_each else next(  # a loop that sees each step raises itself
            (p for p in np.flatnonzero(~(new_steps < math.inf)).tolist()
             if not np.all(np.isfinite(xs[p + 1]))), m)
        for p in range(bad) if check_fejer else ():
            _check_fejer(xs[p], xs[p + 1], z, float(new_steps[p]), k0 + p)
        if bad < m:
            raise NumericError(f"non-finite iterate after projection {k0 + bad}")
        if error is not None:
            raise error
        indices.extend(js)
        steps.extend(new_steps.tolist())
        if residuals is not None:
            residuals.extend(new_residuals)
        if iterates is not None:
            iterates.extend(xs[1:])
        if status == STATUS_MAX_ITERATIONS and len(indices) - 1 - last_big >= window:
            status = STATUS_STEP

    strategy.finish(last_step)
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
        final_matrix=None if memory_matrix is None else strategy.matrix.to_array(),
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
    if not (d.min() >= _SMALLEST_SUM and d.max() <= _LARGEST):
        for p in np.flatnonzero(~((d >= _SMALLEST_SUM) & (d <= _LARGEST))):
            out[p] = _distance(v[p], 0.0)
    return out


@np.errstate(over="ignore")  # as for run()
def run_lockstep(
    sets,
    strategies,
    x0,
    stop: StoppingRule,
    known_point=None,
) -> list[RunTrace]:
    """Run every strategy over the same lines from ``x0``, all together.

    Returns ``[run(sets, s, x0, stop, known_point) for s in strategies]`` bit
    for bit, and raises what that raises, for the lowest-numbered failing
    run.  The iterates of the runs form one (S, d) array, so one projection
    of all S runs costs the NumPy calls of one projection of one run.  Every
    set must be a ``LineThroughOrigin``, and the strategies distinct objects
    of one class, ``Cyclic``, ``RandomizedCycles`` or ``Memory``, the
    ``Memory`` ones with no pending pick; each picks through its own
    ``next_index``.  Any other list raises an error naming the first strategy
    that does not fit.
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
    kind = type(strategies[0])
    for i, s in enumerate(strategies):
        if type(s) is not kind or kind not in (Cyclic, RandomizedCycles, Memory):
            raise TypeError(
                f"strategy {i} is a {type(s).__name__}; run_lockstep takes all Cyclic, "
                "all RandomizedCycles or all Memory strategies"
            )
    memory = kind is Memory
    for i, s in enumerate(strategies):
        if memory and s._pending is not None:
            raise ValueError(f"strategy {i} has a pending pick; run_lockstep starts "
                             "every Memory at its current set")

    n = len(sets)
    x, z, _, window = inputs[0]
    directions = np.array([s.direction for s in sets])
    vv = np.array([s._vv for s in sets])
    step_tolerance = stop.step_tolerance
    residual_tolerance = stop.residual_tolerance if z is not None else None

    # row p of the stacked state belongs to run rows[p], whose strategy is
    # live[p]; a run leaves the rows when it stops or raises
    rows = np.arange(len(strategies))
    live = strategies
    X = np.tile(x, (len(rows), 1))
    last_big = np.full(len(rows), -1)
    # per projection since the rows last changed: indices, steps and
    # residuals, one entry per row
    segment: list[tuple] = []
    chunks: list[list[tuple]] = [[] for _ in strategies]
    traces: list[RunTrace | None] = [None] * len(strategies)
    errors: dict[int, Exception] = {}

    def close_segment():
        columns = [None if c[0] is None else np.array(c) for c in zip(*segment)]
        for p, i in enumerate(rows.tolist()):
            chunks[i].append(tuple(None if c is None else c[:, p] for c in columns))
        segment.clear()

    def finish(p: int, i: int, status: str):
        strategy = strategies[i]
        try:
            # a Memory's first step is its start projection's, which run() never
            # passes on; it has no pending pick then, so finish ignores the step
            strategy.finish(float(steps[p]))
        except ValueError as exc:  # run() would raise it; so does the caller, later
            errors[i] = exc
            return
        x_i, z_i, matrix_i, _ = inputs[i]
        j_parts, step_parts, res_parts = zip(*chunks[i])
        traces[i] = RunTrace(
            set_indices=np.concatenate(j_parts),
            step_lengths=np.concatenate(step_parts),
            status=status,
            n_sets=n,
            x0=x_i,
            x_final=X[p].copy(),
            residuals=None if z is None else np.concatenate(res_parts),
            known_point=z_i,
            final_matrix=None if matrix_i is None else strategy.matrix.to_array(),
        )

    for k in range(stop.max_iterations):
        # row -> stop status, or None for a run that raised
        leaving: dict[int, str | None] = {}
        if memory and k == 0:  # the start projections, onto each Memory's current set
            ja = np.array([s.current_index for s in live])
        elif memory and k > 1:
            ja = np.array([s.next_index(step) for s, step in zip(live, steps.tolist())])
        else:  # as in run(), a Memory's start projection step is not recorded
            ja = np.array([s.next_index() for s in live])
        d_rows = directions[ja]
        # the order of run(): ((d . x) / (d . d)) d, then the differences
        x_next = (_row_dots(d_rows, X) / vv[ja])[:, None] * d_rows
        diffs = [x_next - X] if z is None else [x_next - X, x_next - z]
        lengths = _row_lengths(np.concatenate(diffs))  # the steps, then the residuals
        steps, res = lengths[:len(rows)], None if z is None else lengths[len(rows):]
        segment.append((ja, steps, res))
        X = x_next
        last_big = np.where(steps < step_tolerance, last_big, k)

        # a finite step from a finite iterate implies a finite next iterate
        if not steps.max() < math.inf:
            for p in np.flatnonzero(~(steps < math.inf)).tolist():
                if not np.all(np.isfinite(x_next[p])):
                    errors[int(rows[p])] = NumericError(
                        f"non-finite iterate after projection {k}")
                    leaving[p] = None
                elif memory and k:
                    # the run leaves now: its Memory's finish rejects the step, as in run()
                    leaving[p] = STATUS_MAX_ITERATIONS
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
            for p, i in enumerate(rows.tolist()):
                if i > first_error:
                    leaving.setdefault(p, None)
        close_segment()
        for p, status in leaving.items():
            if status is not None:
                finish(p, int(rows[p]), status)
        keep = [p for p in range(len(rows)) if p not in leaving]
        if not keep:
            break
        rows, X, steps, last_big = rows[keep], X[keep], steps[keep], last_big[keep]
        live = [live[p] for p in keep]

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
