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

from conftest import (SET_FAMILIES, assert_same_trace, memory_state, sample_set,
                      sets_through_origin)

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


class _OneByOneCyclic(Cyclic):
    """A subclass, which run() records one projection at a time."""


class _OneByOneRandomizedCycles(RandomizedCycles):
    """A subclass, which run() records one projection at a time."""


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
    with the bits of the per-projection loop their subclasses take."""

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
            plain = RandomizedCycles(n, seed=seed)
            one_by_one = _OneByOneRandomizedCycles(n, seed=seed)
        else:
            plain, one_by_one = Cyclic(n), _OneByOneCyclic(n)
        got = run(sets, plain, x0, stop, z, store_iterates=store_iterates)
        expected = run(sets, one_by_one, x0, stop, z, store_iterates=store_iterates)
        assert_same_trace(got, expected)
        assert plain.next_index() == one_by_one.next_index()

    @pytest.mark.parametrize("kind", [Cyclic, _OneByOneCyclic])
    @pytest.mark.parametrize("at", [0, 1, 5])
    def test_error_inside_a_stretch_is_raised(self, kind, at):
        sets = [_FailingOnCall(at), _FailingOnCall(at)]
        with pytest.raises(RuntimeError, match="projection failed"):
            run(sets, kind(2), np.zeros(2), StoppingRule.exact_budget(20))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [Cyclic, _OneByOneCyclic])
    def test_overflow_between_two_hyperplanes_raises_numeric_error(self, kind):
        # 1.7e308 - -1.7e308 overflows, so the second projection gives
        # inf * 0 = nan: no warning escapes before the NumericError
        sets = [Hyperplane([1.0, 0.0], 1.7e308), Hyperplane([1.0, 0.0], -1.7e308)]
        with pytest.raises(NumericError, match="after projection 1$"):
            run(sets, kind(2), np.zeros(2), StoppingRule.exact_budget(10))


def _origin_run(seed, dim, kind, budget, tol, store_iterates, debug_asserts):
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
    return run(sets, strategy, x0, stop, np.zeros(dim), store_iterates=store_iterates,
               debug_asserts=debug_asserts)


class TestDeferredResiduals:
    """With a known point and no residual stop, run() measures the residuals
    in array passes; debug_asserts measures each at its projection."""

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
        got, expected = (_origin_run(seed, dim, kind, budget, tol, store_iterates, debug)
                         for debug in (False, True))
        assert_same_trace(got, expected)

    @pytest.mark.parametrize("seed,dim,kind,tol,stops_at", [
        (0, 3, "min", 1e-9, 1060),
        (4, 60, "min", 1e-12, 1407),
        (0, 3, "average", 1e-9, 1110),
        (0, 8, "mcp", 1e-9, 1312),
        (6, 8, "mrp", 1e-9, 1140),
    ])
    def test_step_stop_inside_a_chunk(self, seed, dim, kind, tol, stops_at):
        got, expected = (_origin_run(seed, dim, kind, 2049, tol, False, debug)
                         for debug in (False, True))
        assert got.status == STATUS_STEP and got.n_projections == stops_at
        assert_same_trace(got, expected)


def _toy_strategy(kind, k):
    """mcp, mrp, or pam-min over a dense memory scaled by 2^k."""
    if kind == "mcp":
        return Cyclic(9)
    if kind == "mrp":
        return RandomizedCycles(9, seed=3)
    return Memory(build_dense(9, math.ldexp(1.0, k)), Policy("min", 0.01), seed=3)


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
            strategy, start = _toy_strategy(kind, scale), np.ldexp(x0, scale)
            if engine == "run":
                return run(sets, strategy, start, stop, known_point=z)
            return run_lockstep(sets, [strategy], start, stop, known_point=z)[0]

        base, scaled = once(0), once(k)
        assert scaled.status == base.status == STATUS_MAX_ITERATIONS
        assert scaled.set_indices.tobytes() == base.set_indices.tobytes()
        for name in ("step_lengths", "residuals", "x_final"):
            assert getattr(scaled, name).tobytes() == \
                np.ldexp(getattr(base, name), k).tobytes(), name
        if kind == "pam":
            assert scaled.final_matrix.tobytes() == \
                np.ldexp(base.final_matrix, k).tobytes()


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


def _mixed_strategies(n, seeds=range(3)):
    """Strategies of every kind, with and without a start projection."""
    out = [Cyclic(n)]
    out += [RandomizedCycles(n, seed=s) for s in seeds]
    out += [Memory(build_dense(n), Policy("min", 0.5), seed=s, start_index=s % n)
            for s in seeds]
    out.append(Memory(build_banded_forward(n, 1), Policy("average", 0.5)))
    return out


def _lockstep_and_single(sets, make, x0, stop, known_point=None, store_iterates=False):
    """run_lockstep over ``make()`` and one run() per strategy of a second ``make()``."""
    got = run_lockstep(sets, make(), x0, stop, known_point, store_iterates=store_iterates)
    expected = [run(sets, s, x0, stop, known_point, store_iterates=store_iterates)
                for s in make()]
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

    def test_batched_runs_leave_at_different_projections(self):
        sets, x0, z = toy()
        make = lambda: [Memory(build_dense(9), Policy(kind, 0.5), seed=s)
                        for s in range(4) for kind in ("min", "average")]
        expected = self._assert_matches_run(
            sets, make, x0, StoppingRule(max_iterations=3000, residual_tolerance=0.05), z)
        assert len({t.n_projections for t in expected}) > 2

    def test_mixed_lists_match_run(self):
        sets, x0, z = toy()
        make = lambda: [
            Cyclic(9), RandomizedCycles(9, seed=1),
            Memory(build_dense(9), Policy("min", 0.5), seed=2, start_index=2),
            RandomizedCycles(9, seed=3),
            Memory(build_banded_forward(9, 1), Policy("average", 0.5), seed=4),
            Memory(_tie_prone_prior(9), Policy("min", 0.5), seed=9, start_index=5),
            Cyclic(9),
        ]
        for stop in (StoppingRule.exact_budget(1), StoppingRule.exact_budget(2),
                     StoppingRule.exact_budget(250),
                     StoppingRule(max_iterations=3000, residual_tolerance=5e-2)):
            self._assert_matches_run(sets, make, x0, stop, z)

    def test_memory_subclass_keeps_its_own_next_index(self):
        class Counting(Memory):
            def next_index(self, last_step_length=None):
                self.calls = getattr(self, "calls", 0) + 1
                return super().next_index(last_step_length)

        sets, x0, z = toy()
        make = lambda: [Counting(build_dense(9), Policy("min", 0.01), seed=s) for s in range(3)]
        batched, single = make(), make()
        got = run_lockstep(sets, batched, x0, StoppingRule.exact_budget(50), z)
        for g, b, s in zip(got, batched, single):
            assert_same_trace(g, run(sets, s, x0, StoppingRule.exact_budget(50), z))
            assert b.calls == s.calls == 49
            assert memory_state(b) == memory_state(s)

    @pytest.mark.parametrize("budget", [6, 20])
    def test_overflowed_step_is_rejected_by_the_memory_itself(self, budget, monkeypatch):
        # on lines no step after the first projection can overflow between
        # finite iterates, so one is injected at projection 5: the batched
        # row goes back to its own Memory, which rejects the step as under run()
        import memproj.runner as engine

        sets, x0, _ = toy()
        stop = StoppingRule.exact_budget(budget)
        real_distance, real_lengths = engine._distance, engine._row_lengths
        distances, projections = itertools.count(), itertools.count()
        monkeypatch.setattr(engine, "_distance", lambda a, b: (
            math.inf if next(distances) == 5 else real_distance(a, b)))
        alone = pam_strategy(1)
        expected = _raised(lambda: run(sets, alone, x0, stop))
        monkeypatch.setattr(engine, "_distance", real_distance)

        def lengths(v):
            out = real_lengths(v)
            if next(projections) == 5:
                out[1] = math.inf
            return out

        monkeypatch.setattr(engine, "_row_lengths", lengths)
        batched = [Cyclic(9), pam_strategy(1), pam_strategy(2)]
        got = _raised(lambda: run_lockstep(sets, batched, x0, stop))
        assert got == expected == (ValueError, "step_length must be finite and >= 0")
        assert memory_state(batched[1]) == memory_state(alone)

    def test_clamped_floor_matches_run(self):
        # subnormal iterates over a memory of smallest positive doubles: the
        # floor 0.5 * 5e-324 rounds to 0, and on an exact-zero step the
        # update stores the clamp 5e-324 instead
        sets, x0, z = toy()
        make = lambda: [Memory(build_dense(9, 5e-324), Policy(kind, 0.5), seed=s)
                        for s in range(3) for kind in ("min", "average")]
        expected = self._assert_matches_run(
            sets, make, np.ldexp(x0, -1070), StoppingRule.exact_budget(200), z)
        for t in expected:
            assert (t.step_lengths == 0.0).any()
            assert (t.final_matrix[~np.eye(9, dtype=bool)] > 0.0).all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        dim=st.integers(2, 5),
        kinds=st.lists(st.sampled_from(["mcp", "mrp", "pam", "pam_avg"]),
                       min_size=1, max_size=6),
        budget=st.integers(1, 80),
        tol=st.sampled_from([5e-324, 1e-6, 1e-2, 0.5]),
        window_extra=st.one_of(st.none(), st.integers(0, 6)),
        rtol=st.sampled_from([None, 1e-3, 0.3]),
        with_point=st.booleans(),
        store_iterates=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_one_run_per_strategy(self, seed, n, dim, kinds, budget, tol,
                                         window_extra, rtol, with_point, store_iterates):
        rng = np.random.default_rng(seed)
        sets = [LineThroughOrigin(rng.standard_normal(dim)) for _ in range(n)]
        x0 = rng.uniform(-3.0, 3.0, dim)

        def make():
            out = []
            for i, kind in enumerate(kinds):
                if kind == "mcp":
                    out.append(Cyclic(n))
                elif kind == "mrp":
                    out.append(RandomizedCycles(n, seed=seed + i))
                else:
                    policy = Policy("min" if kind == "pam" else "average", 0.5)
                    out.append(Memory(build_dense(n), policy, seed=seed + i,
                                      start_index=i % n))
            return out

        stop = StoppingRule(
            max_iterations=budget,
            step_window=None if window_extra is None else n + window_extra,
            step_tolerance=tol,
            residual_tolerance=rtol,
        )
        z = np.zeros(dim) if with_point else None
        got, expected = _lockstep_and_single(sets, make, x0, stop, z, store_iterates)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_trace(g, e)

    def test_single_strategy(self):
        sets, x0, z = toy()
        for i in range(len(_mixed_strategies(9))):
            got, expected = _lockstep_and_single(
                sets, lambda: [_mixed_strategies(9)[i]], x0,
                StoppingRule.exact_budget(200), z, store_iterates=True)
            assert len(got) == 1
            assert_same_trace(got[0], expected[0])

    def test_exact_zero_steps_stop_runs_at_different_projections(self):
        # orthogonal lines: two projections in a row onto orthogonal lines
        # land on the origin, and the zero steps after it fire the window
        sets = [LineThroughOrigin(d) for d in
                ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1])]
        make = lambda: _mixed_strategies(5, seeds=range(6))
        got, expected = _lockstep_and_single(
            sets, make, np.array([1.0, 2.0, 3.0]), StoppingRule(max_iterations=300),
            np.zeros(3), store_iterates=True)
        assert {t.status for t in expected} == {STATUS_STEP}
        assert len({t.n_projections for t in expected}) > 2
        for g, e in zip(got, expected):
            assert_same_trace(g, e)

    def test_residual_stop_at_different_projections(self):
        sets, x0, z = toy()
        stop = StoppingRule(max_iterations=3000, residual_tolerance=5e-2)
        got, expected = _lockstep_and_single(sets, lambda: _mixed_strategies(9), x0, stop, z)
        statuses = [t.status for t in expected]
        assert STATUS_RESIDUAL in statuses and STATUS_MAX_ITERATIONS in statuses
        assert len({t.n_projections for t in expected}) > 2
        for g, e in zip(got, expected):
            assert_same_trace(g, e)

    def test_residual_rule_wins_a_tie_with_the_step_rule(self):
        # every step is below the tolerance, so the step rule fires at
        # projection N - 1; the residual tolerance is set to fire there too
        sets, x0, z = toy()
        probe = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(9), known_point=z)
        stop = StoppingRule(max_iterations=100, step_window=9, step_tolerance=10.0,
                            residual_tolerance=float(np.nextafter(probe.residuals[8], np.inf)))
        got, expected = _lockstep_and_single(
            sets, lambda: [Cyclic(9), RandomizedCycles(9, seed=0)], x0, stop, z)
        assert expected[0].status == STATUS_RESIDUAL and expected[0].n_projections == 9
        for g, e in zip(got, expected):
            assert_same_trace(g, e)

    def test_strategies_receive_the_steps_run_passes(self):
        class Recording(Cyclic):
            needs_start_projection = True

            def __init__(self, n):
                super().__init__(n)
                self.calls = []

            def next_index(self, last_step_length=None):
                self.calls.append(("next", last_step_length))
                return super().next_index(last_step_length)

            def finish(self, last_step_length=None):
                self.calls.append(("finish", last_step_length))

        sets, x0, z = toy()
        for budget in (1, 2, 5):
            single, lockstep = Recording(9), Recording(9)
            run(sets, single, x0, StoppingRule.exact_budget(budget), z)
            run_lockstep(sets, [lockstep], x0, StoppingRule.exact_budget(budget), z)
            assert lockstep.calls == single.calls
            assert single.calls[0] == (("next", None) if budget > 1 else ("finish", None))

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

    def _assert_same_error(self, sets, make, x0, stop, known_point=None):
        expected = _raised(lambda: [run(sets, s, x0, stop, known_point) for s in make()])
        assert expected is not None
        assert _raised(lambda: run_lockstep(sets, make(), x0, stop, known_point)) == expected

    def test_validation_errors_match_run(self):
        sets, x0, z = toy()
        budget = StoppingRule.exact_budget(5)

        def used(seed):
            strategy = pam_strategy(seed)
            strategy.next_index()  # a pending transition no run has made
            return strategy

        cases = [
            (lambda: [pam_strategy(0), used(1), pam_strategy(2)], budget, z),
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
        make = lambda: [RandomizedCycles(4, seed=s) for s in (1, 2, 0, 3)] + [Cyclic(4)]
        failures = [_raised(lambda s=s: run(sets, s, x0, stop)) for s in make()]
        assert all(f is not None and f[0] is NumericError for f in failures)
        # the first run fails later than the one right after it
        assert failures[0][1].endswith("projection 3")
        assert failures[1][1].endswith("projection 0")
        self._assert_same_error(sets, make, x0, stop)
        # within a budget of 3 the first run finishes and the second fails
        assert _raised(lambda: run(sets, make()[0], x0, StoppingRule.exact_budget(3))) is None
        self._assert_same_error(sets, make, x0, StoppingRule.exact_budget(3))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_error_from_a_strategy_is_raised_in_order(self):
        # the batched Memory runs meet a genuinely non-finite iterate (the
        # last of _OVERFLOW_LINES maps x0 ~ 1e100 to nan) at projections of
        # their own: the first run fails later than the second, and a
        # strategy that raises from next_index fails between them
        class FailsOnThirdCall(Cyclic):
            def next_index(self, last_step_length=None):
                if self._k == 2:
                    raise RuntimeError("third call")
                return super().next_index(last_step_length)

        sets = [LineThroughOrigin(d) for d in _OVERFLOW_LINES]
        x0 = np.array([1e100, 2e100, 3e100])
        make = lambda: [
            *[Memory(build_dense(4), Policy("min", 0.5), seed=s) for s in (1, 0, 6)],
            FailsOnThirdCall(4), RandomizedCycles(4, seed=2),
        ]
        stop = StoppingRule.exact_budget(40)
        failures = [_raised(lambda s=s: run(sets, s, x0, stop)) for s in make()]
        assert failures[:4] == [
            (NumericError, "non-finite iterate after projection 3"),
            (NumericError, "non-finite iterate after projection 1"),
            None,
            (RuntimeError, "third call"),
        ]
        for budget in (40, 3, 2):
            self._assert_same_error(sets, make, x0, StoppingRule.exact_budget(budget))
        self._assert_same_error(sets, lambda: make()[2:], x0, stop)
