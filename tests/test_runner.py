"""The iteration engine: tracing, stopping, debug checks, error paths."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memproj import (
    STATUS_MAX_ITERATIONS,
    STATUS_RESIDUAL,
    STATUS_STEP,
    AffineSubspace,
    Ball,
    Box,
    Cyclic,
    FejerViolation,
    Halfspace,
    Hyperplane,
    InvariantViolation,
    LineThroughOrigin,
    Memory,
    NumericError,
    Policy,
    RandomizedCycles,
    StoppingRule,
    ToyConfig,
    build_dense,
    make_toy_problem,
    residual_series,
    run,
)
from memproj.memory import (
    build_banded_bidirectional,
    build_banded_forward,
    build_prior_matrix,
)
from memproj.runner import _distance, _row_lengths, run_lockstep

from conftest import (SET_FAMILIES, SubCyclic, assert_same_trace, memory_state,
                      reference_run, sample_set, sets_through_origin)

TOY = ToyConfig(9, 0.05)


def toy():
    return make_toy_problem(TOY)


def pam_strategy(seed=0, scale=1.0, beta=0.01):
    return Memory(build_dense(9, scale), Policy("min", beta), seed=seed)


class TestBasicRuns:
    def test_mcp_residual_nonincreasing_and_slower_than_mrp(self):
        sets, x0, sol = toy()
        budget = StoppingRule.exact_budget(315)
        t_mcp = run(sets, Cyclic(9), x0, budget, known_point=sol)
        t_mrp = run(sets, RandomizedCycles(9, seed=0), x0, budget, known_point=sol)
        assert t_mcp.n_projections == 315
        series = residual_series(t_mcp, sol)
        assert np.all(np.diff(series) <= 1e-12)
        assert t_mcp.residuals[-1] > t_mrp.residuals[-1]

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: Cyclic(9),
            lambda: RandomizedCycles(9, seed=2),
            lambda: pam_strategy(seed=2),
        ],
    )
    def test_start_in_intersection_stops_by_step_rule(self, strategy_factory):
        sets, _, sol = toy()
        rule = StoppingRule(max_iterations=1000, step_tolerance=1e-12)
        trace = run(sets, strategy_factory(), sol, rule, known_point=sol)
        assert trace.status == STATUS_STEP
        assert np.all(trace.step_lengths == 0.0)
        assert trace.n_projections <= 2 * 9

    def test_residual_stopping(self):
        sets, x0, sol = toy()
        rule = StoppingRule(
            max_iterations=100_000, step_tolerance=5e-324, residual_tolerance=1e-6
        )
        trace = run(sets, pam_strategy(), x0, rule, known_point=sol)
        assert trace.status == STATUS_RESIDUAL
        assert trace.residuals[-1] < 1e-6

    def test_budget_exhaustion_status(self):
        sets, x0, sol = toy()
        trace = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(10), known_point=sol)
        assert trace.status == STATUS_MAX_ITERATIONS
        assert trace.n_projections == 10

    def test_memory_run_opens_with_projection_onto_first_set(self):
        sets, x0, sol = toy()
        trace = run(
            sets,
            pam_strategy(seed=5),
            x0,
            StoppingRule.exact_budget(50),
            known_point=sol,
            store_iterates=True,
        )
        assert trace.set_indices[0] == 0
        np.testing.assert_array_equal(trace.iterates[0], x0)
        np.testing.assert_array_equal(trace.iterates[1], sets[0].project(x0))

    def test_memory_with_custom_start_index_projects_there_first(self):
        sets, x0, sol = toy()
        strategy = Memory(build_dense(9, 1.0), Policy("min", 0.01),
                          seed=0, start_index=4)
        trace = run(sets, strategy, x0, StoppingRule.exact_budget(20),
                    known_point=sol, store_iterates=True)
        assert trace.set_indices[0] == 4
        np.testing.assert_array_equal(trace.iterates[1], sets[4].project(x0))

    def test_iterates_recorded_only_on_request(self):
        sets, x0, sol = toy()
        trace = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(5), known_point=sol)
        assert trace.iterates is None
        assert trace.residuals is not None

    def test_bitwise_reproducibility(self):
        sets, x0, sol = toy()

        def once():
            return run(
                sets,
                pam_strategy(seed=7),
                x0,
                StoppingRule.exact_budget(400),
                known_point=sol,
                store_iterates=True,
            )

        a, b = once(), once()
        assert np.array_equal(a.set_indices, b.set_indices)
        assert np.array_equal(a.step_lengths, b.step_lengths)
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.final_matrix, b.final_matrix)

    def test_memory_final_matrix_and_snapshots(self):
        sets, x0, sol = toy()
        trace = run(
            sets,
            pam_strategy(seed=1),
            x0,
            StoppingRule.exact_budget(100),
            known_point=sol,
            matrix_snapshot_interval=25,
        )
        assert trace.final_matrix is not None
        assert [k for k, _ in trace.matrix_snapshots] == [25, 50, 75, 100]
        assert trace.final_matrix.max() < 1.0  # memory has decayed below its start
        mcp = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(10))
        assert mcp.final_matrix is None

    # 2.5 once took snapshots at projections 5, 10, 15, ... and True was taken as 1
    @pytest.mark.parametrize("interval", [0, -3, 2.5, 2.0, True, "2", np.float64(5.0)])
    def test_snapshot_interval_must_be_a_positive_integer(self, interval):
        sets, x0, sol = toy()
        strategy = pam_strategy(seed=1)
        before = memory_state(strategy)
        with pytest.raises(ValueError) as exc:
            run(sets, strategy, x0, StoppingRule.exact_budget(10), known_point=sol,
                matrix_snapshot_interval=interval)
        assert str(exc.value) == (
            "matrix_snapshot_interval must be at least 1" if type(interval) is int
            else f"matrix_snapshot_interval must be an integer, not {interval!r}")
        assert memory_state(strategy) == before  # rejected before any projection
        numpy_int = run(sets, pam_strategy(seed=1), x0, StoppingRule.exact_budget(10),
                        matrix_snapshot_interval=np.int64(5))
        assert [count for count, _ in numpy_int.matrix_snapshots] == [5, 10]


class TestErrorReduction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_squared_error_drops_by_squared_step(self, seed):
        sets, x0, sol = toy()
        trace = run(
            sets,
            RandomizedCycles(9, seed=seed),
            x0,
            StoppingRule.exact_budget(300),
            known_point=sol,
            store_iterates=True,
        )
        d = np.linalg.norm(trace.iterates - sol, axis=1)
        steps = trace.step_lengths
        assert np.all(d[1:] ** 2 + steps**2 <= d[:-1] ** 2 + 1e-9)

    def test_step_lengths_are_square_summable(self):
        sets, x0, sol = toy()
        trace = run(
            sets,
            pam_strategy(seed=9),
            x0,
            StoppingRule.exact_budget(5000),
            known_point=sol,
        )
        total = float(np.sum(trace.step_lengths**2))
        assert total <= np.linalg.norm(x0 - sol) ** 2 + 1e-6

    def test_debug_asserts_pass_on_honest_projections(self):
        sets, x0, sol = toy()
        trace = run(
            sets,
            Cyclic(9),
            x0,
            StoppingRule.exact_budget(200),
            known_point=sol,
            debug_asserts=True,
        )
        assert trace.n_projections == 200


class _Overshooting:
    """Fake set: reflects across a hyperplane instead of projecting."""

    dim = 2

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([-x[0], x[1]])


class _NanProducing:
    dim = 2

    def project(self, x):
        return np.array([np.nan, np.nan])


class TestGuards:
    def test_debug_asserts_flag_violations(self):
        sets = [_Overshooting(), _Overshooting()]
        rule = StoppingRule.exact_budget(10)
        with pytest.raises(FejerViolation, match="projection"):
            run(sets, Cyclic(2), np.array([3.0, 0.0]), rule,
                known_point=np.array([0.0, 1.0]), debug_asserts=True)

    def test_nonfinite_iterate_raises_numeric_error(self):
        sets = [_NanProducing(), _NanProducing()]
        with pytest.raises(NumericError, match="non-finite"):
            run(sets, Cyclic(2), np.array([1.0, 1.0]), StoppingRule.exact_budget(5))

    def test_needs_two_sets(self):
        sets, x0, _ = toy()
        with pytest.raises(ValueError, match="2 sets"):
            run(sets[:1], Cyclic(1), x0, StoppingRule.exact_budget(5))

    def test_dimension_mismatch(self):
        sets, _, _ = toy()
        with pytest.raises(ValueError):
            run(sets, Cyclic(9), np.array([1.0, 2.0]), StoppingRule.exact_budget(5))

    def test_strategy_size_mismatch(self):
        sets, x0, _ = toy()
        with pytest.raises(ValueError, match="strategy"):
            run(sets, Cyclic(5), x0, StoppingRule.exact_budget(5))

    def test_window_must_cover_a_sweep(self):
        sets, x0, _ = toy()
        rule = StoppingRule(max_iterations=100, step_window=4)
        with pytest.raises(ValueError, match="step_window"):
            run(sets, Cyclic(9), x0, rule)

    def test_corrupted_memory_matrix_rejected(self):
        # the matrix was checked when the Memory was built; a row emptied
        # afterwards is caught by the selection that reads it
        sets, x0, _ = toy()
        strategy = pam_strategy()
        strategy.matrix._a[0] = 0.0
        strategy.matrix._rebuild_row_stats()
        with pytest.raises(InvariantViolation, match="row 0 has no positive entry"):
            run(sets, strategy, x0, StoppingRule.exact_budget(5))

    def test_stopping_rule_validation(self):
        with pytest.raises(ValueError):
            StoppingRule(max_iterations=0)
        with pytest.raises(ValueError):
            StoppingRule(max_iterations=10, step_tolerance=0.0)
        with pytest.raises(ValueError):
            StoppingRule(max_iterations=10, residual_tolerance=-1.0)

    @pytest.mark.parametrize("field", ["max_iterations", "step_window"])
    @pytest.mark.parametrize("value", [100.0, 18.5, True, False, "20", np.float64(30.0)])
    def test_stopping_rule_counts_must_be_integers(self, field, value):
        # a float once built and then failed inside range(); True ran one projection
        fields = {"max_iterations": 100, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            StoppingRule(**fields)

    @pytest.mark.parametrize("field", ["step_tolerance", "residual_tolerance"])
    @pytest.mark.parametrize("value", [True, False])
    def test_stopping_rule_tolerances_must_not_be_booleans(self, field, value):
        # True was once taken as a tolerance of 1
        with pytest.raises(ValueError, match=f"^{field} must be a number, not {value}$"):
            StoppingRule(max_iterations=5, **{field: value})

    def test_stopping_rule_takes_numpy_integers(self):
        stop = StoppingRule(max_iterations=np.int64(50), step_window=np.int32(18))
        sets, x0, _ = toy()
        assert run(sets, Cyclic(9), x0, stop).n_projections <= 50

    @pytest.mark.parametrize("engine", ["run", "run_lockstep"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_known_point_is_rejected(self, engine, bad):
        # it once gave NaN residuals and a max_iterations status
        sets, x0, _ = toy()
        stop = StoppingRule(50, residual_tolerance=1e-3)
        point = [0.0, bad, 0.0]
        with pytest.raises(ValueError, match="known_point must have finite entries"):
            if engine == "run":
                run(sets, Cyclic(9), x0, stop, known_point=point)
            else:
                run_lockstep(sets, [Cyclic(9)], x0, stop, known_point=point)


class TestResidualSeries:
    def test_constant_trace_at_solution_gives_zeros(self):
        sets, _, sol = toy()
        trace = run(sets, Cyclic(9), sol, StoppingRule.exact_budget(20),
                    known_point=sol, store_iterates=True)
        # exact-zero steps satisfy even the never-fire tolerance, so the
        # run stops once the step window fills
        series = residual_series(trace, sol)
        np.testing.assert_array_equal(series, np.zeros(trace.n_projections + 1))

    def test_entry_i_is_after_i_projections(self):
        sets, x0, sol = toy()
        trace = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(30),
                    known_point=sol, store_iterates=True)
        series = residual_series(trace, sol)
        assert series.shape == (31,)
        assert series[0] == np.linalg.norm(x0 - sol)
        np.testing.assert_array_equal(series[1:], trace.residuals)

    def test_series_from_residual_column_when_iterates_absent(self):
        sets, x0, sol = toy()
        trace = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(30),
                    known_point=sol)
        series = residual_series(trace, sol)
        assert series.shape == (31,)
        with pytest.raises(ValueError, match="store_iterates"):
            residual_series(trace, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_series_whose_squares_overflow_is_quiet(self):
        sets, x0, sol = toy()
        x0, sol = np.ldexp(x0, 520), np.ldexp(sol, 520)
        trace = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(20), known_point=sol,
                    store_iterates=True)
        series = residual_series(trace, sol)
        assert series[1:].tobytes() == trace.residuals.tobytes()
        with np.errstate(over="ignore"):
            assert series[0] == _distance(x0, sol)

    def test_dimension_mismatch(self):
        sets, x0, sol = toy()
        trace = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(5),
                    known_point=sol)
        with pytest.raises(ValueError):
            residual_series(trace, np.zeros(5))


class _Scripted:
    """Fake set that moves the iterate to the next point of a shared script,
    whatever the input, so a test dictates every step length."""

    def __init__(self, script, dim):
        self.script = script
        self.dim = dim

    def project(self, x):
        return np.array(next(self.script), dtype=float)


def _scripted_pair(points, dim):
    script = iter(points)
    return [_Scripted(script, dim), _Scripted(script, dim)]


def _two_set_strategies():
    return [Cyclic(2), Memory(build_dense(2), Policy("min", 0.5), seed=0),
            RandomizedCycles(2, seed=0)]


class TestLeanLoopEquivalence:
    """The per-projection shortcuts agree with the plain definitions."""

    @pytest.mark.parametrize("d", [3, 60])
    def test_distance_is_bit_equal_to_linalg_norm(self, d):
        rng = np.random.default_rng(d)
        for exponent in range(-150, 151, 5):
            for _ in range(20):
                a = rng.standard_normal(d) * 10.0**exponent
                b = rng.standard_normal(d) * 10.0**exponent
                assert _distance(a, b) == float(np.linalg.norm(a - b))

    @given(
        steps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=40),
        window=st.integers(2, 6),
        which=st.integers(0, 2),
    )
    @settings(max_examples=300)
    def test_step_window_stops_where_the_sliding_max_rule_does(self, steps, window, which):
        # dyadic positions make every step exact; a step equal to the
        # tolerance (0.5) must count as not yet converged
        tol = 0.5
        points = np.cumsum([s * (-1) ** k for k, s in enumerate(steps)])
        expected = len(steps)
        for k in range(window, len(steps) + 1):
            if max(steps[k - window:k]) < tol:
                expected = k
                break
        rule = StoppingRule(max_iterations=len(steps), step_window=window, step_tolerance=tol)
        trace = run(_scripted_pair([[p] for p in points], 1), _two_set_strategies()[which],
                    np.zeros(1), rule)
        assert trace.n_projections == expected
        assert trace.step_lengths.tolist() == steps[:expected]
        stopped = expected >= window and max(steps[expected - window:expected]) < tol
        assert trace.status == (STATUS_STEP if stopped else STATUS_MAX_ITERATIONS)

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("at", [0, 1, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_iterate_raises_at_its_projection(self, bad, at, which):
        points = [[float(k), 1.0] for k in range(at)] + [[1.0, bad]]
        with pytest.raises(NumericError, match=f"after projection {at}$"):
            run(_scripted_pair(points, 2), _two_set_strategies()[which],
                np.zeros(2), StoppingRule.exact_budget(10))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_step_between_finite_iterates_is_recorded(self):
        # the difference of the two finite iterates is itself not finite
        # (1e308 - -1e308 overflows), so the step is a genuine inf: the full
        # finiteness scan runs and finds nothing to report
        points = [[-1e308, 0.0], [1e308, 0.0]]
        trace = run(_scripted_pair(points, 2), Cyclic(2), np.array([1e308, 0.0]),
                    StoppingRule.exact_budget(2))
        assert trace.step_lengths.tolist() == [np.inf, np.inf]
        np.testing.assert_array_equal(trace.x_final, [1e308, 0.0])


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_step_whose_squares_overflow_is_finite(self):
        # 1e200 - -1e200 is finite though its square is not: the distance
        # rescales by a power of two instead of returning inf
        points = [[-1e200, 0.0], [1e200, 0.0]]
        trace = run(_scripted_pair(points, 2), Cyclic(2), np.array([1e200, 0.0]),
                    StoppingRule.exact_budget(2))
        assert trace.step_lengths.tolist() == [2e200, 2e200]


class _FailingOnCall:
    """Fake set that moves along the first axis and raises on call ``at``."""

    dim = 2

    def __init__(self, at):
        self.calls = itertools.count()
        self.at = at

    def project(self, x):
        if next(self.calls) == self.at:
            raise RuntimeError("projection failed")
        return np.asarray(x, dtype=float) + [1.0, 0.0]


class TestStretchedRecording:
    """run() records plain Cyclic and RandomizedCycles runs stretch by stretch,
    with the bits of the textbook per-projection loop."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3, 60]),
        n=st.integers(2, 6),
        n_distinct=st.integers(1, 6),
        shuffled=st.booleans(),
        budget=st.integers(1, 2500),
        window_extra=st.one_of(st.none(), st.integers(0, 1500)),
        tol=st.sampled_from([5e-324, 1e-9, 1e-3, 0.5]),
        rtol=st.sampled_from([None, None, None, 1e-3]),
        with_point=st.booleans(),
        store_iterates=st.booleans(),
    )
    # a window over the cap of 1024 projections splits a stretch
    @example(seed=1, dim=3, n=4, n_distinct=4, shuffled=False, budget=2500,
             window_extra=1400, tol=5e-324, rtol=None, with_point=True,
             store_iterates=True)
    # one set repeated: every step after the first is an exact zero
    @example(seed=2, dim=60, n=5, n_distinct=1, shuffled=True, budget=2000,
             window_extra=None, tol=5e-324, rtol=None, with_point=False,
             store_iterates=False)
    @settings(max_examples=100, deadline=None)
    def test_equals_the_per_projection_loop(self, seed, dim, n, n_distinct, shuffled,
                                            budget, window_extra, tol, rtol,
                                            with_point, store_iterates):
        rng = np.random.default_rng(seed)
        families = rng.choice(SET_FAMILIES, n_distinct)
        distinct = [sample_set(rng, family, dim) for family in families]
        sets = [distinct[i % n_distinct] for i in range(n)]
        x0 = rng.uniform(-10.0, 10.0, dim)
        z = rng.uniform(-3.0, 3.0, dim) if with_point else None
        stop = StoppingRule(
            max_iterations=budget,
            step_window=None if window_extra is None else n + window_extra,
            step_tolerance=tol,
            residual_tolerance=rtol,
        )
        if shuffled:
            plain, one_by_one = (RandomizedCycles(n, seed=seed) for _ in range(2))
        else:
            plain, one_by_one = Cyclic(n), Cyclic(n)
        got = run(sets, plain, x0, stop, z, store_iterates=store_iterates)
        expected = reference_run(sets, one_by_one, x0, stop, z, store_iterates=store_iterates)
        assert_same_trace(got, expected)
        assert plain.next_index() == one_by_one.next_index()

    @pytest.mark.parametrize("kind", [Cyclic, SubCyclic])
    @pytest.mark.parametrize("at", [0, 1, 5])
    def test_error_inside_a_stretch_is_raised(self, kind, at):
        sets = [_FailingOnCall(at), _FailingOnCall(at)]
        with pytest.raises(RuntimeError, match="projection failed"):
            run(sets, kind(2), np.zeros(2), StoppingRule.exact_budget(20))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [Cyclic, SubCyclic])
    def test_overflow_between_two_hyperplanes_raises_numeric_error(self, kind):
        # 1.7e308 - -1.7e308 overflows, so the second projection gives
        # inf * 0 = nan: no warning escapes before the NumericError
        sets = [Hyperplane([1.0, 0.0], 1.7e308), Hyperplane([1.0, 0.0], -1.7e308)]
        with pytest.raises(NumericError, match="after projection 1$"):
            run(sets, kind(2), np.zeros(2), StoppingRule.exact_budget(10))


def _origin_run(seed, dim, kind, budget, tol, store_iterates, debug_asserts, engine=run):
    """A run over sets through the origin, with the origin as its known point."""
    rng = np.random.default_rng(seed)
    sets = sets_through_origin(rng, dim)
    x0 = rng.uniform(-10.0, 10.0, dim)
    n = len(sets)
    if kind == "mcp":
        strategy = Cyclic(n)
    elif kind == "mrp":
        strategy = RandomizedCycles(n, seed=seed)
    else:
        strategy = Memory(build_dense(n), Policy(kind, 0.01), seed=seed)
    stop = StoppingRule(max_iterations=budget, step_tolerance=tol)
    return engine(sets, strategy, x0, stop, np.zeros(dim), store_iterates=store_iterates,
                  debug_asserts=debug_asserts)


class TestDeferredResiduals:
    """With a known point and no residual stop, run() measures the residuals
    in array passes, with the bits of one distance per projection."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([3, 8, 60]),
        kind=st.sampled_from(["min", "average", "mcp", "mrp"]),
        budget=st.sampled_from([1023, 1024, 1025, 2049]),
        tol=st.sampled_from([5e-324, 1e-12, 1e-9]),
        store_iterates=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_projection_residuals(self, seed, dim, kind, budget, tol,
                                             store_iterates):
        expected = _origin_run(seed, dim, kind, budget, tol, store_iterates, False,
                               reference_run)
        for debug in (False, True):
            got = _origin_run(seed, dim, kind, budget, tol, store_iterates, debug)
            assert_same_trace(got, expected)

    @pytest.mark.parametrize("seed,dim,kind,tol,stops_at", [
        (0, 3, "min", 1e-9, 1060),
        (4, 60, "min", 1e-12, 1407),
        (0, 3, "average", 1e-9, 1110),
        (0, 8, "mcp", 1e-9, 1312),
        (6, 8, "mrp", 1e-9, 1140),
    ])
    def test_step_stop_inside_a_chunk(self, seed, dim, kind, tol, stops_at):
        expected = _origin_run(seed, dim, kind, 2049, tol, False, False, reference_run)
        assert expected.status == STATUS_STEP and expected.n_projections == stops_at
        for debug in (False, True):
            assert_same_trace(_origin_run(seed, dim, kind, 2049, tol, False, debug), expected)


def _chooser(kind, n, seed):
    """mcp, a Cyclic subclass, mrp, or pam with either policy over a dense memory."""
    if kind == "mcp":
        return Cyclic(n)
    if kind == "subclass":
        return SubCyclic(n)
    if kind == "mrp":
        return RandomizedCycles(n, seed=seed)
    return Memory(build_dense(n), Policy(kind, 0.01 if kind == "min" else 0.5), seed=seed)


def _trace_or_raised(fn):
    try:
        return fn()
    except Exception as exc:  # the test compares whatever is raised
        return type(exc), str(exc)


class TestReferenceLoop:
    """run() equals the textbook per-projection loop of ``reference_run`` bit
    for bit: trace, snapshots, the error raised and the chooser's state."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["mcp", "subclass", "mrp", "min", "average"]),
        through_origin=st.booleans(),
        dim=st.sampled_from([2, 3, 60]),
        budget=st.sampled_from([1, 2, 1023, 1024, 1025]),
        window_extra=st.one_of(st.none(), st.integers(0, 1100)),
        tol=st.sampled_from([5e-324, 1e-9, 1e-3]),
        rtol=st.sampled_from([None, None, 1e-6, 1.0, 3.0]),
        with_point=st.booleans(),
        debug_asserts=st.booleans(),
        store_iterates=st.booleans(),
        interval=st.sampled_from([None, 1, 7, 1024]),
    )
    # pam stopped by its residual at projection 1022 = 7 * 146, where a
    # snapshot is due, two projections before the first stretch ends
    @example(seed=2, kind="min", through_origin=True, dim=3, budget=1025,
             window_extra=None, tol=5e-324, rtol=0.9020989290519642, with_point=True,
             debug_asserts=True, store_iterates=True, interval=7)
    # blind runs whose step rule fires inside a grown stretch: mcp at projection
    # 70 of the stretch 48..95 (window 12), with deferred residuals and a Fejer
    # check; mrp at 1002 of the stretch 576..1024, the budget's last (window 9)
    @example(seed=0, kind="mcp", through_origin=True, dim=2, budget=1025,
             window_extra=None, tol=1e-3, rtol=None, with_point=True,
             debug_asserts=True, store_iterates=True, interval=7)
    @example(seed=0, kind="mrp", through_origin=True, dim=3, budget=1025,
             window_extra=3, tol=1e-3, rtol=None, with_point=False,
             debug_asserts=False, store_iterates=False, interval=None)
    @settings(max_examples=150, deadline=None)
    def test_run_equals_the_reference(self, seed, kind, through_origin, dim, budget,
                                      window_extra, tol, rtol, with_point, debug_asserts,
                                      store_iterates, interval):
        # sets through the origin make it a feasible known point; otherwise the
        # point is arbitrary and the debug check may fire
        rng = np.random.default_rng(seed)
        if through_origin:
            sets, z = sets_through_origin(rng, dim), np.zeros(dim)
        else:
            families = rng.choice(SET_FAMILIES, int(rng.integers(2, 7)))
            sets = [sample_set(rng, family, dim) for family in families]
            z = rng.uniform(-3.0, 3.0, dim)
        n = len(sets)
        x0 = rng.uniform(-10.0, 10.0, dim)
        stop = StoppingRule(
            max_iterations=budget,
            step_window=None if window_extra is None else n + window_extra,
            step_tolerance=tol,
            residual_tolerance=rtol,
        )
        options = dict(debug_asserts=debug_asserts, store_iterates=store_iterates,
                       matrix_snapshot_interval=interval)
        ours, theirs = _chooser(kind, n, seed), _chooser(kind, n, seed)
        point = z if with_point else None
        got = _trace_or_raised(lambda: run(sets, ours, x0, stop, point, **options))
        expected = _trace_or_raised(
            lambda: reference_run(sets, theirs, x0, stop, point, **options))
        if isinstance(expected, tuple):
            # the chooser may have moved on past the failing projection
            assert got == expected
            return
        assert_same_trace(got, expected)
        if isinstance(ours, Memory):
            assert memory_state(ours) == memory_state(theirs)
        else:
            assert ours.next_index() == theirs.next_index()


class _Counted:
    """A set that counts its projections on a shared counter and, once the
    counter passes ``limit``, raises or returns NaN instead."""

    def __init__(self, inner, counter, limit=math.inf, fault=None):
        self.inner, self.counter, self.limit, self.fault = inner, counter, limit, fault
        self.dim = inner.dim

    def project(self, x):
        self.counter[0] += 1
        if self.counter[0] > self.limit:
            if self.fault == "raise":
                raise RuntimeError("projection failed")
            return np.full(self.dim, np.nan)
        return self.inner.project(x)


def _blind_origin_run(seed, kind, window_extra, tol, budget=1025, limit=math.inf, fault=None):
    """A blind run over sets through the origin that counts its projections."""
    rng = np.random.default_rng(seed)
    counter = [0]
    sets = [_Counted(s, counter, limit, fault) for s in sets_through_origin(rng, 3)]
    x0 = rng.uniform(-10.0, 10.0, 3)
    n = len(sets)
    stop = StoppingRule(max_iterations=budget, step_tolerance=tol,
                        step_window=None if window_extra is None else n + window_extra)
    return sets, x0, stop, counter


class TestGrownStretches:
    """A blind run's stretches outgrow the step window; where the step rule
    fires inside one, the run is cut there as if it had stopped there."""

    @pytest.mark.parametrize("fault", ["raise", "nan"])
    @pytest.mark.parametrize("kind", ["mcp", "mrp"])
    def test_a_fault_after_the_stop_is_never_seen(self, kind, fault):
        def once(engine, limit=math.inf, **options):
            sets, x0, stop, counter = _blind_origin_run(0, kind, None, 1e-3,
                                                        limit=limit, fault=fault)
            chooser = _chooser(kind, 6, 0)
            trace = engine(sets, chooser, x0, stop, np.zeros(3), store_iterates=True,
                           **options)
            return trace, chooser, counter[0]

        expected, theirs, made = once(reference_run)
        assert expected.status == STATUS_STEP and made == expected.n_projections
        # every projection after the stop fails, and run() makes some of them
        got, ours, made = once(run, limit=expected.n_projections, debug_asserts=True)
        assert made > expected.n_projections
        assert_same_trace(got, expected)
        assert [ours.next_index() for _ in range(20)] == [theirs.next_index() for _ in range(20)]

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["mcp", "mrp"]),
        window_extra=st.one_of(st.none(), st.integers(0, 1100)),
        tol=st.sampled_from([1e-9, 1e-3, 0.5]),
        budget=st.sampled_from([100, 3000]),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_stopped_run_projects_at_most_twice_its_length_and_a_window(
            self, seed, kind, window_extra, tol, budget):
        sets, x0, stop, counter = _blind_origin_run(seed, kind, window_extra, tol, budget)
        trace = run(sets, _chooser(kind, 6, seed), x0, stop)
        window = stop.step_window or 12
        if trace.status == STATUS_STEP:
            assert counter[0] <= 2 * trace.n_projections + window
        else:
            assert counter[0] == trace.n_projections == budget


def _scaled_strategy(kind, k, n=9, seed=3):
    """mcp, mrp, or pam (min policy; "pam_average": average) over a dense
    memory scaled by 2^k."""
    if kind == "mcp":
        return Cyclic(n)
    if kind == "mrp":
        return RandomizedCycles(n, seed=seed)
    policy = Policy("average" if kind == "pam_average" else "min", 0.01)
    return Memory(build_dense(n, math.ldexp(1.0, k)), policy, seed=seed)


# the parameters that give a set its orientation; every other one is a length
_ORIENTATIONS = ("normal", "direction", "basis")


def _scaled_sets(sets, k):
    """``sets`` rebuilt with offsets, centres, radii, bounds and basepoints
    times 2^k."""
    return [type(s)(*(getattr(s, p) if p in _ORIENTATIONS else np.ldexp(getattr(s, p), k)
                      for p in s.params)) for s in sets]


def _assert_scaled(scaled, base, k):
    """``scaled`` is ``base`` with every length times 2^k, bit for bit."""
    assert scaled.status == base.status
    assert scaled.set_indices.tobytes() == base.set_indices.tobytes()
    for name in ("step_lengths", "residuals", "x_final", "final_matrix"):
        if getattr(base, name) is None:
            assert getattr(scaled, name) is None, name
        else:
            assert getattr(scaled, name).tobytes() == \
                np.ldexp(getattr(base, name), k).tobytes(), name


class TestExactAtEveryScale:
    """Scaling x0, the tolerance and the memory by 2^k scales the trace by 2^k."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("exponent", [-1070, -1000, -560, 0, 520, 1000])
    def test_distance_scales_exactly(self, exponent):
        rng = np.random.default_rng(exponent + 2000)
        for d in (1, 3, 60):
            for _ in range(50):
                a, b = rng.standard_normal((2, d))
                expected = math.ldexp(_distance(a, b), exponent)
                scaled = _distance(np.ldexp(a, exponent), np.ldexp(b, exponent))
                if exponent >= -1000:  # no entry is subnormal: exact
                    assert scaled == expected
                else:
                    assert scaled == pytest.approx(expected, rel=1e-10, abs=5e-324 * d)

    def test_zero_and_underflowing_vectors(self):
        # both have v . v == 0; only the exact zero has length 0
        tiny = np.array([5e-324, -5e-324, 1e-320])
        assert _distance(tiny, 0.0) == math.ldexp(_distance(np.ldexp(tiny, 1074), 0.0), -1074)
        assert _distance(tiny, 0.0) > 0.0
        assert _distance(np.array([0.0, -0.0, 0.0]), 0.0) == 0.0
        rows = np.array([tiny, np.zeros(3), [1.0, 2.0, 2.0]])
        assert _row_lengths(rows).tolist() == [_distance(r, 0.0) for r in rows]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("exponent", [-1070, -560, -400, 0, 400, 520, 1000])
    def test_row_lengths_equal_distances(self, exponent):
        rng = np.random.default_rng(exponent + 3000)
        v = np.ldexp(rng.standard_normal((40, 3)), exponent)
        v[::7] *= 2.0 ** rng.integers(-60, 60, (6, 1))
        expected = np.array([_distance(row, 0.0) for row in v])
        assert _row_lengths(v).tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("engine", ["run", "run_lockstep"])
    @pytest.mark.parametrize("kind", ["mcp", "mrp", "pam"])
    @pytest.mark.parametrize("k", [-900, -560, 520, 1000])
    def test_toy_fan_trace_scales_bit_for_bit(self, k, kind, engine):
        # before the rescaling fallback, k=-560 stopped falsely after 18
        # projections with every step 0, and k=520 recorded inf steps
        sets, x0, z = toy()

        def once(scale):
            stop = StoppingRule(max_iterations=3000, step_tolerance=math.ldexp(1e-12, scale))
            strategy, start = _scaled_strategy(kind, scale), np.ldexp(x0, scale)
            if engine == "run":
                return run(sets, strategy, start, stop, known_point=z)
            return run_lockstep(sets, [strategy], start, stop, known_point=z)[0]

        base = once(0)
        assert base.status == STATUS_MAX_ITERATIONS
        _assert_scaled(once(k), base, k)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 1000),
           kind=st.sampled_from(["mcp", "mrp", "pam", "pam_average"]))
    @example(seed=0, k=-1000, kind="pam_average")
    @example(seed=0, k=1000, kind="pam")
    # a distance whose sum of squares was normal while a square was subnormal
    # was once rounded otherwise than in the base run
    @example(seed=281591595, k=-510, kind="mcp")
    @settings(max_examples=40, deadline=None)
    def test_every_family_scales_bit_for_bit(self, seed, k, kind):
        # the six families through c, with every length scaled by 2^k: x0, c,
        # the step tolerance, the initial memory and each set's extents
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.5, 1.0, 3)
        sets = _sets_through(c, 1.0, rng)
        x0 = c + rng.uniform(-2.0, 2.0, 3)

        def once(scale):
            stop = StoppingRule(max_iterations=300, step_tolerance=math.ldexp(1.0, scale - 40))
            return run(_scaled_sets(sets, scale), _scaled_strategy(kind, scale, 6, seed),
                       np.ldexp(x0, scale), stop, known_point=np.ldexp(c, scale))

        _assert_scaled(once(k), once(0), k)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 1000),
           kind=st.sampled_from(["mcp", "mrp", "pam", "pam_average"]))
    @example(seed=0, k=-1000, kind="pam")
    @example(seed=0, k=1000, kind="pam_average")
    @settings(max_examples=25, deadline=None)
    def test_lockstep_lines_scale_bit_for_bit(self, seed, k, kind):
        # nearly parallel lines: after 300 projections the iterates are still
        # far from the origin, so none is subnormal even at k = -1000
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        sets, x0, z = make_toy_problem(ToyConfig(n, float(rng.uniform(0.02, 0.1))))

        def once(scale):
            stop = StoppingRule(max_iterations=300, step_tolerance=math.ldexp(1.0, scale - 40))
            return run_lockstep(sets, [_scaled_strategy(kind, scale, n, seed + i)
                                       for i in range(3)], np.ldexp(x0, scale), stop, z)

        for scaled, base in zip(once(k), once(0), strict=True):
            _assert_scaled(scaled, base, k)


def _sets_through(c, size, rng):
    """One set of each family, all containing ``c``, with extent ~ ``size``.

    The line through the origin and ``c`` meets the hyperplane through
    ``c`` in ``c`` alone, so the run converges to ``c``.
    """
    d = c.shape[0]
    normal = rng.standard_normal(d)
    inward = rng.standard_normal(d)
    shift = rng.uniform(-0.5, 0.5, d)
    return [
        Hyperplane(normal, normal @ c),
        Halfspace(inward, inward @ c + size * rng.uniform(0.5, 1.0)),
        Ball(c + size * shift, size * (np.linalg.norm(shift) + rng.uniform(0.5, 1.0))),
        Box(c - size * rng.uniform(0.5, 1.0, d), c + size * rng.uniform(0.5, 1.0, d)),
        LineThroughOrigin(c),
        AffineSubspace(c, rng.standard_normal((2, d))),
    ]


class TestFejerCheckAtEveryScale:
    @given(
        position=st.integers(-6, 12),
        size=st.integers(-6, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_feasible_reference_never_fires(self, position, size, seed):
        rng = np.random.default_rng(seed)
        c = 10.0**position * rng.uniform(0.5, 1.0, 3)
        sets = _sets_through(c, 10.0**size, rng)
        x0 = c + 10.0**size * rng.uniform(-2.0, 2.0, 3)
        run(sets, RandomizedCycles(len(sets), seed=seed), x0,
            StoppingRule.exact_budget(120), known_point=c, debug_asserts=True)

    def test_hyperplanes_far_from_the_origin(self):
        # the exact common point of hyperplanes at 1e8 once tripped a fixed
        # absolute slack within the first few projections
        rng = np.random.default_rng(0)
        c = np.full(3, 1e8)
        sets = [Hyperplane(n, n @ c) for n in rng.standard_normal((5, 3))]
        trace = run(sets, Cyclic(5), c + rng.standard_normal(3),
                    StoppingRule.exact_budget(200), known_point=c, debug_asserts=True)
        assert trace.n_projections > 0

    def test_feasible_reference_through_subnormal_iterates(self):
        # the iterates shrink by 2^-1/2 a projection, through the range where
        # squared distances underflow (from about projection 1070) and where
        # the iterates themselves are subnormal (from about projection 2040)
        sets = [LineThroughOrigin([1.0, 0.0]), LineThroughOrigin([1.0, 1.0])]
        trace = run(sets, Cyclic(2), np.array([1.0, 2.0]), StoppingRule.exact_budget(3000),
                    known_point=np.zeros(2), debug_asserts=True)
        assert trace.residuals[1100] < 1e-160 and trace.residuals[2100] < 1e-310

    @pytest.mark.parametrize("k", [-600, 0, 600])
    def test_infeasible_reference_fires_at_the_same_projection_at_every_scale(self, k):
        sets = [LineThroughOrigin([1.0, 0.0]), LineThroughOrigin([1.0, 1.0])]
        with pytest.raises(FejerViolation, match="^projection 0: squared distance"):
            run(sets, Cyclic(2), np.ldexp([1.0, 2.0], k), StoppingRule.exact_budget(50),
                known_point=np.ldexp([0.0, 1.0], k), debug_asserts=True)

    @pytest.mark.parametrize("exponent", [-6, -3, 0, 4, 8, 12])
    def test_infeasible_reference_still_fires(self, exponent):
        rng = np.random.default_rng(exponent + 6)
        scale = 10.0**exponent
        c = scale * rng.uniform(0.5, 1.0, 3)
        sets = _sets_through(c, scale, rng)
        z = c + 0.01 * scale * rng.standard_normal(3)
        with pytest.raises(FejerViolation, match="reference point"):
            run(sets, Cyclic(len(sets)), z, StoppingRule.exact_budget(50),
                known_point=z, debug_asserts=True)


def _strategy_lists(n, seeds=range(3)):
    """One list of strategies per class and policy, the Memory ones with a
    start projection."""
    return [
        [Cyclic(n)],
        [RandomizedCycles(n, seed=s) for s in seeds],
        [Memory(build_dense(n), Policy("min", 0.5), seed=s, start_index=s % n)
         for s in seeds],
        [Memory(build_banded_forward(n, 1), Policy("average", 0.5))],
    ]


def _lockstep_and_single(sets, make, x0, stop, known_point=None):
    """run_lockstep over ``make()`` and one run() per strategy of a second ``make()``."""
    got = run_lockstep(sets, make(), x0, stop, known_point)
    expected = [run(sets, s, x0, stop, known_point) for s in make()]
    return got, expected


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # the test compares whatever is raised
        return type(exc), str(exc)
    return None


# x0 ~ 1e100 keeps ordinary steps finite; the last line's direction makes
# its squared norm overflow to inf and its dot product with x0 too, so
# projecting onto it gives inf / inf = nan
_OVERFLOW_LINES = [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [2.0, 1.0, 3.0], [1e250, 1.0, 1.0]]


def _tie_prone_prior(n):
    """Three equal forward jumps per row, a different weight on each row."""
    w = np.zeros((n, n))
    for m in range(n):
        for jump in (1, 2, 4):
            w[m, (m + jump) % n] = 0.25 + 0.125 * (m % 3)
    return build_prior_matrix(w)


_MEMORY_PRIORS = {
    "dense": lambda n: build_dense(n),
    "forward": lambda n: build_banded_forward(n, 2),
    "bidirectional": lambda n: build_banded_bidirectional(n, 2, 0.3),
    "tie_prone_prior": _tie_prone_prior,
}


class TestLockstepEngine:
    """run_lockstep(...) equals [run(...) for each strategy], bit for bit."""

    def _assert_matches_run(self, sets, make, x0, stop, known_point=None):
        """Traces and final Memory states equal those of one run() each."""
        batched, single = make(), make()
        got = run_lockstep(sets, batched, x0, stop, known_point)
        expected = [run(sets, s, x0, stop, known_point) for s in single]
        for g, e in zip(got, expected, strict=True):
            assert_same_trace(g, e)
        for b, s in zip(batched, single):
            if isinstance(s, Memory):
                assert memory_state(b) == memory_state(s)
        return expected

    @pytest.mark.parametrize("prior", sorted(_MEMORY_PRIORS))
    @pytest.mark.parametrize("policy", [Policy("min", 0.01), Policy("average", 0.5)])
    def test_batched_memory_runs_match_run(self, prior, policy):
        sets, x0, z = toy()
        make = lambda: [Memory(_MEMORY_PRIORS[prior](9), policy, seed=s,
                               start_index=(4 * s) % 9) for s in range(6)]
        for stop in (StoppingRule.exact_budget(300),
                     StoppingRule(max_iterations=2000, residual_tolerance=0.1)):
            self._assert_matches_run(sets, make, x0, stop, z)

    @pytest.mark.parametrize("kind", ["min", "average"])
    def test_batched_runs_leave_at_different_projections(self, kind):
        sets, x0, z = toy()
        make = lambda: [Memory(build_dense(9), Policy(kind, 0.5), seed=s) for s in range(4)]
        expected = self._assert_matches_run(
            sets, make, x0, StoppingRule(max_iterations=3000, residual_tolerance=0.05), z)
        assert len({t.n_projections for t in expected}) > 2

    def test_lists_of_each_class_and_policy_match_run(self):
        sets, x0, z = toy()
        makes = [
            lambda: [Cyclic(9), Cyclic(9)],
            lambda: [RandomizedCycles(9, seed=1), RandomizedCycles(9, seed=3)],
            lambda: [Memory(build_dense(9), Policy("min", 0.5), seed=2, start_index=2),
                     Memory(_tie_prone_prior(9), Policy("min", 0.5), seed=9, start_index=5)],
            lambda: [Memory(build_banded_forward(9, 1), Policy("average", 0.5), seed=4)],
            # each Memory steps by its own policy
            lambda: [pam_strategy(0), pam_strategy(1, beta=0.5),
                     Memory(_tie_prone_prior(9), Policy("average", 0.3), seed=5)],
        ]
        for stop in (StoppingRule.exact_budget(1), StoppingRule.exact_budget(2),
                     StoppingRule.exact_budget(250),
                     StoppingRule(max_iterations=3000, residual_tolerance=5e-2)):
            for make in makes:
                self._assert_matches_run(sets, make, x0, stop, z)

    @pytest.mark.parametrize("row", [0, 1])
    @pytest.mark.parametrize("budget", [6, 20])
    def test_overflowed_step_is_rejected_by_the_memory_itself(self, budget, row, monkeypatch):
        # on lines no step after the first projection can overflow between
        # finite iterates, so one is injected at projection 5: the row goes
        # back to its own Memory, which rejects the step as under run()
        import memproj.runner as engine

        sets, x0, _ = toy()
        stop = StoppingRule.exact_budget(budget)
        real_distance, real_lengths = engine._distance, engine._row_lengths
        distances, projections = itertools.count(), itertools.count()
        monkeypatch.setattr(engine, "_distance", lambda a, b: (
            math.inf if next(distances) == 5 else real_distance(a, b)))
        alone = pam_strategy(1 + row)
        expected = _raised(lambda: run(sets, alone, x0, stop))
        monkeypatch.setattr(engine, "_distance", real_distance)

        def lengths(v):
            out = real_lengths(v)
            if next(projections) == 5:
                out[row] = math.inf
            return out

        monkeypatch.setattr(engine, "_row_lengths", lengths)
        batched = [pam_strategy(1), pam_strategy(2)]
        got = _raised(lambda: run_lockstep(sets, batched, x0, stop))
        assert got == expected == (ValueError, "step_length must be finite and >= 0")
        assert memory_state(batched[row]) == memory_state(alone)

    @pytest.mark.parametrize("kind", ["min", "average"])
    def test_clamped_floor_matches_run(self, kind):
        # subnormal iterates over a memory of smallest positive doubles: the
        # floor 0.5 * 5e-324 rounds to 0, and on an exact-zero step the
        # update stores the clamp 5e-324 instead
        sets, x0, z = toy()
        make = lambda: [Memory(build_dense(9, 5e-324), Policy(kind, 0.5), seed=s)
                        for s in range(3)]
        expected = self._assert_matches_run(
            sets, make, np.ldexp(x0, -1070), StoppingRule.exact_budget(200), z)
        for t in expected:
            assert (t.step_lengths == 0.0).any()
            assert (t.final_matrix[~np.eye(9, dtype=bool)] > 0.0).all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        dim=st.integers(2, 5),
        kind=st.sampled_from(["mcp", "mrp", "pam", "pam_avg"]),
        count=st.integers(1, 6),
        budget=st.integers(1, 80),
        tol=st.sampled_from([5e-324, 1e-6, 1e-2, 0.5]),
        window_extra=st.one_of(st.none(), st.integers(0, 6)),
        rtol=st.sampled_from([None, 1e-3, 0.3]),
        with_point=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_one_run_per_strategy(self, seed, n, dim, kind, count, budget, tol,
                                         window_extra, rtol, with_point):
        rng = np.random.default_rng(seed)
        sets = [LineThroughOrigin(rng.standard_normal(dim)) for _ in range(n)]
        x0 = rng.uniform(-3.0, 3.0, dim)

        def make():
            if kind == "mcp":
                return [Cyclic(n) for _ in range(count)]
            if kind == "mrp":
                return [RandomizedCycles(n, seed=seed + i) for i in range(count)]
            policy = Policy("min" if kind == "pam" else "average", 0.5)
            return [Memory(build_dense(n), policy, seed=seed + i, start_index=i % n)
                    for i in range(count)]

        stop = StoppingRule(
            max_iterations=budget,
            step_window=None if window_extra is None else n + window_extra,
            step_tolerance=tol,
            residual_tolerance=rtol,
        )
        z = np.zeros(dim) if with_point else None
        got, expected = _lockstep_and_single(sets, make, x0, stop, z)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_trace(g, e)

    def test_single_strategy(self):
        sets, x0, z = toy()
        for c, group in enumerate(_strategy_lists(9)):
            for i in range(len(group)):
                got, expected = _lockstep_and_single(
                    sets, lambda: [_strategy_lists(9)[c][i]], x0,
                    StoppingRule.exact_budget(200), z)
                assert len(got) == 1
                assert_same_trace(got[0], expected[0])

    def test_exact_zero_steps_stop_runs_at_different_projections(self):
        # orthogonal lines: two projections in a row onto orthogonal lines
        # land on the origin, and the zero steps after it fire the window
        sets = [LineThroughOrigin(d) for d in
                ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1])]
        for c in range(4):
            make = lambda: _strategy_lists(5, seeds=range(6))[c]
            got, expected = _lockstep_and_single(
                sets, make, np.array([1.0, 2.0, 3.0]), StoppingRule(max_iterations=300),
                np.zeros(3))
            assert {t.status for t in expected} == {STATUS_STEP}
            if len(expected) > 1:
                assert len({t.n_projections for t in expected}) > 2
            for g, e in zip(got, expected):
                assert_same_trace(g, e)

    def test_residual_stop_at_different_projections(self):
        sets, x0, z = toy()
        stop = StoppingRule(max_iterations=3000, residual_tolerance=5e-2)
        statuses = []
        for c in range(4):
            got, expected = _lockstep_and_single(
                sets, lambda: _strategy_lists(9, seeds=range(6))[c], x0, stop, z)
            statuses += [t.status for t in expected]
            if len(expected) > 1:
                assert len({t.n_projections for t in expected}) > 2
            for g, e in zip(got, expected):
                assert_same_trace(g, e)
        assert STATUS_RESIDUAL in statuses and STATUS_MAX_ITERATIONS in statuses

    def test_residual_rule_wins_a_tie_with_the_step_rule(self):
        # every step is below the tolerance, so the step rule fires at
        # projection N - 1; the residual tolerance is set to fire there too
        sets, x0, z = toy()
        probe = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(9), known_point=z)
        stop = StoppingRule(max_iterations=100, step_window=9, step_tolerance=10.0,
                            residual_tolerance=float(np.nextafter(probe.residuals[8], np.inf)))
        got, expected = _lockstep_and_single(sets, lambda: [Cyclic(9)], x0, stop, z)
        assert expected[0].status == STATUS_RESIDUAL and expected[0].n_projections == 9
        assert_same_trace(got[0], expected[0])
        got, expected = _lockstep_and_single(
            sets, lambda: [RandomizedCycles(9, seed=0)], x0, stop, z)
        assert_same_trace(got[0], expected[0])

    def test_no_strategies(self):
        sets, x0, _ = toy()
        assert run_lockstep(sets, [], x0, StoppingRule.exact_budget(5)) == []

    def test_set_that_is_not_a_line_is_named(self):
        sets, x0, _ = toy()
        sets[2] = Hyperplane([1.0, 0.0, 0.0], 0.0)
        with pytest.raises(TypeError, match="set 2 is a Hyperplane"):
            run_lockstep(sets, [Cyclic(9)], x0, StoppingRule.exact_budget(5))

    def test_shared_strategy_object_rejected(self):
        sets, x0, _ = toy()
        shared = Cyclic(9)
        with pytest.raises(ValueError, match="own strategy"):
            run_lockstep(sets, [shared, shared], x0, StoppingRule.exact_budget(5))

    def test_lists_of_more_than_one_class_rejected(self):
        class Sub(Cyclic):
            pass

        def used(seed):
            strategy = pam_strategy(seed)
            strategy.next_index()  # a pending pick no run has made
            return strategy

        sets, x0, _ = toy()
        cases = [
            ([Cyclic(9), RandomizedCycles(9, seed=1)], TypeError,
             "strategy 1 is a RandomizedCycles; run_lockstep takes all Cyclic, "
             "all RandomizedCycles or all Memory strategies"),
            ([Cyclic(9), Sub(9)], TypeError, "strategy 1 is a Sub; run_lockstep takes"),
            ([Sub(9), Sub(9)], TypeError, "strategy 0 is a Sub; run_lockstep takes"),
            ([pam_strategy(0), pam_strategy(1), used(2)], ValueError,
             "strategy 2 has a pending pick; run_lockstep starts every Memory "
             "at its current set"),
        ]
        for strategies, error, message in cases:
            with pytest.raises(error) as exc:
                run_lockstep(sets, strategies, x0, StoppingRule.exact_budget(5))
            assert str(exc.value).startswith(message)

    def _assert_same_error(self, sets, make, x0, stop, known_point=None):
        expected = _raised(lambda: [run(sets, s, x0, stop, known_point) for s in make()])
        assert expected is not None
        assert _raised(lambda: run_lockstep(sets, make(), x0, stop, known_point)) == expected

    def test_validation_errors_match_run(self):
        sets, x0, z = toy()
        budget = StoppingRule.exact_budget(5)
        cases = [
            (lambda: [Cyclic(9), Cyclic(5)], budget, z),
            (lambda: [Cyclic(9)], StoppingRule(max_iterations=100, step_window=4), z),
            (lambda: [Cyclic(9)], budget, np.zeros(2)),
        ]
        for make, stop, point in cases:
            self._assert_same_error(sets, make, x0, stop, point)
        self._assert_same_error(sets[:1], lambda: [Cyclic(1)], x0, budget)
        self._assert_same_error(sets, lambda: [Cyclic(9)], np.array([1.0, np.nan, 0.0]), budget)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_nonfinite_iterate_raises_for_the_lowest_failing_run(self):
        sets = [LineThroughOrigin(d) for d in _OVERFLOW_LINES]
        x0 = np.array([1e100, 2e100, 3e100])
        stop = StoppingRule.exact_budget(40)
        make = lambda: [RandomizedCycles(4, seed=s) for s in (1, 2, 0, 3)]
        failures = [_raised(lambda s=s: run(sets, s, x0, stop)) for s in make()]
        assert all(f is not None and f[0] is NumericError for f in failures)
        # the first run fails later than the one right after it
        assert failures[0][1].endswith("projection 3")
        assert failures[1][1].endswith("projection 0")
        self._assert_same_error(sets, make, x0, stop)
        # within a budget of 3 the first run finishes and the second fails
        assert _raised(lambda: run(sets, make()[0], x0, StoppingRule.exact_budget(3))) is None
        self._assert_same_error(sets, make, x0, StoppingRule.exact_budget(3))
        self._assert_same_error(sets, lambda: [Cyclic(4), Cyclic(4)], x0, stop)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_error_from_a_strategy_is_raised_in_order(self):
        # the batched Memory runs meet a genuinely non-finite iterate (the
        # last of _OVERFLOW_LINES maps x0 ~ 1e100 to nan) at projections of
        # their own: the first run fails later than the second, and the
        # fourth fails between them
        sets = [LineThroughOrigin(d) for d in _OVERFLOW_LINES]
        x0 = np.array([1e100, 2e100, 3e100])
        make = lambda: [Memory(build_dense(4), Policy("min", 0.5), seed=s)
                        for s in (1, 0, 6, 9)]
        stop = StoppingRule.exact_budget(40)
        failures = [_raised(lambda s=s: run(sets, s, x0, stop)) for s in make()]
        assert failures == [
            (NumericError, "non-finite iterate after projection 3"),
            (NumericError, "non-finite iterate after projection 1"),
            None,
            (NumericError, "non-finite iterate after projection 2"),
        ]
        for budget in (40, 3, 2):
            self._assert_same_error(sets, make, x0, StoppingRule.exact_budget(budget))
        self._assert_same_error(sets, lambda: make()[2:], x0, stop)
