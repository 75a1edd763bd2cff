"""Memory matrices, admissibility, policies, and the select/update step."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_by_enumeration
from memproj import (
    STATUS_MAX_ITERATIONS,
    STATUS_STEP,
    DistanceMatrix,
    InvariantViolation,
    Memory,
    Policy,
    StoppingRule,
    build_banded_bidirectional,
    build_banded_forward,
    build_dense,
    build_prior_matrix,
    evaluate_policy,
    is_admissible,
    make_toy_problem,
    pam_select,
    pam_update,
    run,
    toy_directions,
    unreachable_pair,
)
from memproj.memory import _reachable_from
from memproj.runner import run_lockstep


class TestDistanceMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            DistanceMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])

    def test_rejects_single_set(self):
        with pytest.raises(ValueError):
            DistanceMatrix([[0.0]])

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            DistanceMatrix([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix([[0.0, np.inf], [1.0, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix([[0.5, 1.0], [1.0, 0.0]])

    def test_to_array_is_a_copy(self):
        d = DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])
        a = d.to_array()
        a[0, 1] = 99.0
        assert d.entry(0, 1) == 1.0


class TestBuilders:
    def test_bidirectional_n3_w1_is_dense(self):
        d = build_banded_bidirectional(3, 1).to_array()
        expected = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        np.testing.assert_array_equal(d, expected)

    def test_bidirectional_n9_w1_two_neighbours_per_row(self):
        d = build_banded_bidirectional(9, 1).to_array()
        assert ((d > 0).sum(axis=1) == 2).all()
        # wraparound pairs
        assert d[0, 8] == 1.0 and d[8, 0] == 1.0

    def test_forward_n4_w1_is_the_cycle(self):
        d = build_banded_forward(4, 1).to_array()
        expected = np.zeros((4, 4))
        for m in range(4):
            expected[m, (m + 1) % 4] = 1.0
        np.testing.assert_array_equal(d, expected)

    def test_forward_n9_w2_wraparound_rows(self):
        d = build_banded_forward(9, 2).to_array()
        np.testing.assert_array_equal(np.flatnonzero(d[7] > 0), [0, 8])
        np.testing.assert_array_equal(np.flatnonzero(d[8] > 0), [0, 1])

    @pytest.mark.parametrize("builder", [build_banded_bidirectional, build_banded_forward])
    def test_scaling_linearity(self, builder):
        base = builder(7, 2, 1.0).to_array()
        scaled = builder(7, 2, 3.5).to_array()
        np.testing.assert_array_equal(scaled, 3.5 * base)

    @pytest.mark.parametrize("builder", [build_banded_bidirectional, build_banded_forward])
    def test_bandwidth_out_of_range(self, builder):
        with pytest.raises(ValueError):
            builder(5, 5)
        with pytest.raises(ValueError):
            builder(5, 0)
        with pytest.raises(ValueError):
            builder(5, 2, scale=0.0)

    def test_builders_equal_a_loop_reference(self):
        # entry (m, n) is positive where n is 1..omega cyclic steps ahead of m
        # (the two-way band: or behind), and the dense matrix everywhere off the diagonal
        for n in range(2, 41):
            for omega in range(1, n):
                forward, both = np.zeros((n, n), bool), np.zeros((n, n), bool)
                for m in range(n):
                    for step in range(1, omega + 1):
                        forward[m, (m + step) % n] = both[m, (m + step) % n] = True
                        both[m, (m - step) % n] = True
                for scale in (1.0, 0.01, 2.5, 1e-300):
                    for builder, pattern in ((build_banded_forward, forward),
                                             (build_banded_bidirectional, both)):
                        got = builder(n, omega, scale).to_array()
                        assert got.tobytes() == np.where(pattern, scale, 0.0).tobytes(), (
                            builder.__name__, n, omega, scale)
            for scale in (1.0, 0.01, 2.5, 1e-300):
                got = build_dense(n, scale).to_array()
                assert got.tobytes() == np.where(~np.eye(n, dtype=bool), scale, 0.0).tobytes()

    @pytest.mark.parametrize("n_sets", [2.5, 9.0, True, "9", np.float64(5.0)])
    def test_non_integral_n_sets_rejected(self, n_sets):
        # 2.5 once built a 3 x 3 band, and a dense matrix failed in NumPy
        for build in (lambda: build_banded_forward(n_sets, 1),
                      lambda: build_banded_bidirectional(n_sets, 1),
                      lambda: build_dense(n_sets)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == f"n_sets must be an integer, not {n_sets!r}"
        assert build_dense(np.int64(3)) == build_dense(3)
        assert build_banded_forward(np.int32(5), 2) == build_banded_forward(5, 2)

    @pytest.mark.parametrize("omega", [1.5, 2.0, True, "1", np.float64(1.0)])
    def test_non_integral_omega_rejected(self, omega):
        # 1.5 once built the band of width 1
        for build in (build_banded_forward, build_banded_bidirectional):
            with pytest.raises(ValueError) as exc:
                build(8, omega)
            assert str(exc.value) == f"omega must be an integer, not {omega!r}"
        assert build_banded_forward(8, np.int64(2)) == build_banded_forward(8, 2)

    def test_dense_pattern(self):
        d = build_dense(4, 2.0).to_array()
        assert (np.diagonal(d) == 0).all()
        off = ~np.eye(4, dtype=bool)
        assert (d[off] == 2.0).all()

    def test_prior_all_ones_off_diagonal_is_admissible(self):
        w = np.ones((3, 3)) - np.eye(3)
        assert is_admissible(build_prior_matrix(w))

    def test_prior_wraps_weights(self):
        w = np.array([[0.0, 1.0, 2.0], [0.5, 0.0, 0.5], [1.0, 1.0, 0.0]])
        d = build_prior_matrix(w)
        np.testing.assert_array_equal(d.to_array(), w)

    def test_prior_with_zero_row_is_inadmissible(self):
        w = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        assert not is_admissible(build_prior_matrix(w))

    def test_prior_from_toy_angles_is_admissible(self):
        dirs = toy_directions(9, 0.05)
        unit = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        cos = np.clip(np.abs(unit @ unit.T), 0.0, 1.0)
        weights = np.sin(np.arccos(cos))
        np.fill_diagonal(weights, 0.0)
        assert is_admissible(build_prior_matrix(weights))


class TestAdmissibility:
    def test_two_cycle(self):
        assert is_admissible(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_missing_back_edge(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not is_admissible(a)
        assert unreachable_pair(a) == (1, 0)

    def test_forward_band_n9_w2(self):
        assert is_admissible(build_banded_forward(9, 2))

    def test_nonzero_diagonal_is_inadmissible(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert not is_admissible(a)

    def test_witness_none_for_admissible(self):
        assert unreachable_pair(build_dense(5)) is None

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_enumeration_exhaustively(self, n):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product([0.0, 1.0], repeat=len(cells)):
            a = np.zeros((n, n))
            for (i, j), b in zip(cells, bits):
                a[i, j] = b
            assert is_admissible(a) == admissible_by_enumeration(a)

    @pytest.mark.parametrize("n", [4, 5])
    def test_agrees_with_enumeration_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(2000):
            a = (rng.random((n, n)) < rng.uniform(0.1, 0.6)).astype(float)
            np.fill_diagonal(a, 0.0)
            assert is_admissible(a) == admissible_by_enumeration(a)


def _matrix_with_row(row):
    """4x4 memory whose row 0 is ``row`` (other rows dense)."""
    a = np.ones((4, 4))
    np.fill_diagonal(a, 0.0)
    a[0] = row
    return DistanceMatrix(a)


class TestPolicies:
    def test_beta_bounds(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            Policy("min", 1.0)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            Policy("min", 0.0)
        with pytest.raises(ValueError):
            Policy("median", 0.5)

    def test_min_policy_value(self):
        d = _matrix_with_row([0.0, 2.0, 4.0, 0.0])
        assert evaluate_policy(Policy("min", 0.5), 0, d) == 1.0

    def test_average_policy_value(self):
        d = _matrix_with_row([0.0, 2.0, 4.0, 0.0])
        assert evaluate_policy(Policy("average", 0.5), 0, d) == 1.5

    def test_zero_row_gives_zero(self):
        a = np.zeros((3, 3))
        a[1] = [1.0, 0.0, 1.0]
        a[2] = [1.0, 1.0, 0.0]
        d = DistanceMatrix(a)
        assert evaluate_policy(Policy("min", 0.7), 0, d) == 0.0
        assert evaluate_policy(Policy("average", 0.7), 0, d) == 0.0

    def test_index_out_of_range(self):
        d = build_dense(3)
        with pytest.raises(IndexError):
            evaluate_policy(Policy("min", 0.5), 3, d)

    # entries live above the subnormal range: at the representational
    # floor (about 5e-324) positivity and the decay bound cannot both
    # survive rounding, and the update step guards that case instead
    @given(
        row=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 100.0)),
            min_size=2, max_size=8,
        ),
        beta=st.floats(1e-6, 1.0, exclude_max=True),
        kind=st.sampled_from(["min", "average"]),
    )
    @settings(max_examples=500)
    def test_policy_bound_holds_for_arbitrary_rows(self, row, beta, kind):
        n = len(row) + 1
        a = np.ones((n, n))
        np.fill_diagonal(a, 0.0)
        a[0, 1:] = row
        d = DistanceMatrix(a)
        v = evaluate_policy(Policy(kind, beta), 0, d)
        row_max = max(row)
        assert v <= beta * row_max
        if row_max > 0:
            assert v > 0.0
        else:
            assert v == 0.0

    @pytest.mark.parametrize("kind", ["min", "average"])
    def test_subnormal_floor_is_clamped(self, kind):
        # beta * 5e-324 underflows to zero; rather than erase a positive
        # entry, the update stores the smallest positive double
        tiny = 5e-324
        a = np.array([[0.0, tiny, tiny], [tiny, 0.0, tiny], [tiny, tiny, 0.0]])
        memory = Memory(DistanceMatrix(a), Policy(kind, 0.5), seed=0)
        assert evaluate_policy(Policy(kind, 0.5), 0, DistanceMatrix(a)) == 0.0
        _record(memory, 1, 0.0)
        assert memory.matrix.to_array().tobytes() == a.tobytes()
        assert memory.matrix._minpos[0] == tiny
        assert memory.current_index == 1

    def test_average_policy_long_run_ends_by_a_stop_rule(self):
        # 300k projections on the default fan: the iterates shrink to
        # subnormal size; this run once raised InvariantViolation after
        # about 106k projections, when zero steps (squares that underflowed)
        # kept halving the floor until it reached 0
        sets, x0, sol = make_toy_problem()
        strategy = Memory(build_dense(9), Policy("average", 0.5), seed=0)
        trace = run(sets, strategy, x0, StoppingRule.exact_budget(300_000), known_point=sol)
        assert trace.status in (STATUS_MAX_ITERATIONS, STATUS_STEP)
        assert trace.residuals[-1] < 1e-300
        assert (trace.final_matrix[~np.eye(9, dtype=bool)] > 0.0).all()

    @pytest.mark.parametrize("kind", ["min", "average"])
    @pytest.mark.parametrize("beta", [0.01, 0.5, 0.99])
    def test_positive_and_bounded_on_random_matrices(self, kind, beta):
        rng = np.random.default_rng(42)
        policy = Policy(kind, beta)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
            np.fill_diagonal(a, 0.0)
            d = DistanceMatrix(a)
            for m in range(n):
                v = evaluate_policy(policy, m, d)
                row_max = a[m].max()
                if row_max > 0:
                    assert v > 0.0
                assert v <= beta * row_max


class TestAdmissibilityCheckedOnce:
    """Building a Memory is the one admissibility check; runs rely on it."""

    @pytest.fixture
    def traversals(self, monkeypatch):
        calls = []

        def counted(pattern, start):
            calls.append(start)
            return _reachable_from(pattern, start)

        monkeypatch.setattr("memproj.memory._reachable_from", counted)
        return calls

    def test_construction_traverses_forward_and_backward(self, traversals):
        Memory(build_dense(9), Policy("min", 0.01), seed=0)
        assert len(traversals) == 2

    def test_run_adds_no_traversal(self, traversals):
        sets, x0, z = make_toy_problem()
        memory = Memory(build_dense(9), Policy("min", 0.01), seed=0)
        run(sets, memory, x0, StoppingRule.exact_budget(300), known_point=z)
        assert len(traversals) == 2

    def test_run_lockstep_adds_no_traversal(self, traversals):
        sets, x0, z = make_toy_problem()
        many = [Memory(build_dense(9), Policy("min", 0.01), seed=s) for s in range(20)]
        run_lockstep(sets, many, x0, StoppingRule.exact_budget(300), z)
        assert len(traversals) == 2 * 20


def _record(memory, col, step):
    """Record ``step`` for the transition to ``col``, as if selection picked it.

    The average policy reads the row maximum from the pending entry, so there
    ``col`` must hold a maximum of its row, as every pick does.
    """
    memory._pending = col
    pam_update(memory, step)


class TestMemoryConstruction:
    def test_rejects_inadmissible_matrix(self):
        with pytest.raises(ValueError, match="matrix is not admissible: no positive-entry "
                                             "chain from set 1 to set 0"):
            Memory(DistanceMatrix([[0.0, 1.0], [0.0, 0.0]]), Policy("min", 0.5))

    def test_copies_the_matrix(self):
        d = build_dense(3)
        memory = Memory(d, Policy("min", 0.5), seed=0)
        _record(memory, 1, 0.5)
        assert d.entry(0, 1) == 1.0  # caller's matrix untouched

    def test_start_index_range(self):
        with pytest.raises(ValueError):
            Memory(build_dense(3), Policy("min", 0.5), start_index=3)

    @pytest.mark.parametrize("start_index", [1.7, 1.0, True, False, "1", np.float64(2.0)])
    def test_non_integral_start_index_rejected(self, start_index):
        # 1.7 and True once started at set 1
        with pytest.raises(ValueError) as exc:
            Memory(build_dense(3), Policy("min", 0.5), start_index=start_index)
        assert str(exc.value) == f"start_index must be an integer, not {start_index!r}"
        memory = Memory(build_dense(3), Policy("min", 0.5), start_index=np.int64(2))
        assert memory.current_index == 2


class TestSelect:
    def test_unique_argmax(self):
        a = np.ones((4, 4))
        np.fill_diagonal(a, 0.0)
        a[0] = [0.0, 5.0, 1.0, 1.0]
        memory = Memory(DistanceMatrix(a), Policy("min", 0.5), seed=0)
        for _ in range(20):
            memory.current_index = 0
            assert pam_select(memory) == 1

    def test_pick_is_pending_until_recorded(self):
        memory = Memory(build_banded_forward(4, 1), Policy("min", 0.5), seed=0)
        assert memory._pending is None
        assert pam_select(memory) == 1
        assert (memory._pending, memory.current_index) == (1, 0)
        pam_update(memory, 0.25)
        assert (memory._pending, memory.current_index) == (None, 1)
        assert memory.matrix.entry(0, 1) == 0.5  # max(0.25, 0.5 * 1.0)

    def test_tie_sampling_is_uniform(self):
        a = np.ones((4, 4))
        np.fill_diagonal(a, 0.0)
        a[0] = [0.0, 3.0, 3.0, 1.0]
        memory = Memory(DistanceMatrix(a), Policy("min", 0.5), seed=2024)
        draws = np.array([pam_select(memory) for _ in range(10_000)])
        assert set(draws) == {1, 2}
        freq = (draws == 1).mean()
        assert abs(freq - 0.5) < 0.02

    def test_never_returns_current_index(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            memory = Memory(build_dense(n), Policy("min", 0.5), seed=int(rng.integers(1 << 30)))
            memory.current_index = int(rng.integers(n))
            assert pam_select(memory) != memory.current_index

    def test_forward_band_forces_cycle(self):
        n = 9
        memory = Memory(build_banded_forward(n, 1), Policy("min", 0.5), seed=5)
        for m in range(n):
            memory.current_index = m
            assert pam_select(memory) == (m + 1) % n

    def test_zero_row_guard(self):
        memory = Memory(build_dense(3), Policy("min", 0.5), seed=0)
        memory.matrix._a[0] = 0.0  # simulate a corrupted state
        memory.matrix._rebuild_row_stats()
        with pytest.raises(InvariantViolation, match="row 0"):
            pam_select(memory)

    def test_argmax_set_invariant_under_scaling(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.8)
            np.fill_diagonal(a, 0.0)
            if not is_admissible(a):
                continue
            c = float(rng.choice([0.5, 2.0, 2.0**10, 2.0**-7, 3.7, 0.001]))
            m = int(rng.integers(n))
            row = a[m].copy()
            row[m] = -np.inf
            scaled = c * row
            np.testing.assert_array_equal(
                np.flatnonzero(row == row.max()),
                np.flatnonzero(scaled == scaled.max()),
            )

    def test_same_seed_same_selection_sequence(self):
        def run_selections(seed):
            memory = Memory(build_dense(6), Policy("min", 0.5), seed=seed)
            rng = np.random.default_rng(99)
            out = []
            for _ in range(200):
                out.append(pam_select(memory))
                pam_update(memory, float(rng.random()))
            return out

        assert run_selections(31) == run_selections(31)


class TestUpdate:
    def test_step_beats_small_floor(self):
        a = np.ones((4, 4))
        np.fill_diagonal(a, 0.0)
        a[0] = [0.0, 0.2, 0.2, 0.2]  # min policy floor = 0.1 at beta 0.5
        memory = Memory(DistanceMatrix(a), Policy("min", 0.5), seed=0)
        _record(memory, 1, 0.7)
        assert memory.matrix.entry(0, 1) == 0.7
        assert memory.current_index == 1

    def test_floor_keeps_entry_positive_on_zero_step(self):
        a = np.ones((4, 4))
        np.fill_diagonal(a, 0.0)
        a[0] = [0.0, 2.0, 4.0, 0.0]
        memory = Memory(DistanceMatrix(a), Policy("min", 0.01), seed=0)
        _record(memory, 1, 0.0)
        assert memory.matrix.entry(0, 1) == pytest.approx(0.02)
        assert memory.matrix.entry(0, 1) > 0.0

    def test_floor_uses_matrix_before_the_write(self):
        a = np.ones((4, 4))
        np.fill_diagonal(a, 0.0)
        a[0] = [0.0, 2.0, 4.0, 0.0]
        memory = Memory(DistanceMatrix(a), Policy("min", 0.5), seed=0)
        _record(memory, 1, 0.0)
        assert memory.matrix.entry(0, 1) == 1.0  # 0.5 * min(2, 4)
        memory.current_index = 0
        _record(memory, 1, 0.0)
        assert memory.matrix.entry(0, 1) == 0.5  # 0.5 * min(1, 4)

    def test_rejects_bad_step(self):
        memory = Memory(build_dense(3), Policy("min", 0.5), seed=0)
        pam_select(memory)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and >= 0"):
                pam_update(memory, bad)
        # a rejected step leaves the pending transition unrecorded
        assert memory._pending is not None and memory.current_index == 0
        assert memory.matrix == build_dense(3)

    def test_update_without_a_pick_names_the_missing_select(self):
        memory = Memory(build_dense(3), Policy("min", 0.5))
        with pytest.raises(InvariantViolation, match="call pam_select first"):
            pam_update(memory, 0.5)
        assert memory.matrix == build_dense(3) and memory.current_index == 0

    def test_pattern_preserved_under_random_updates(self):
        rng = np.random.default_rng(17)
        memory = Memory(build_banded_bidirectional(7, 2), Policy("average", 0.3), seed=8)
        pattern0 = memory.matrix.positive_pattern()
        for _ in range(3000):
            pam_select(memory)
            pam_update(memory, float(rng.random() * 0.1))
            assert np.array_equal(memory.matrix.positive_pattern(), pattern0)

    def test_row_aggregates_match_fresh_rebuild(self):
        rng = np.random.default_rng(23)
        policy_min = Policy("min", 0.4)
        policy_avg = Policy("average", 0.4)
        memory = Memory(build_dense(5, 2.0), policy_min, seed=1)
        for _ in range(1500):
            pam_select(memory)
            pam_update(memory, float(rng.random() * 3.0))
            fresh = DistanceMatrix(memory.matrix.to_array())
            for m in range(5):
                assert evaluate_policy(policy_min, m, memory.matrix) == pytest.approx(
                    evaluate_policy(policy_min, m, fresh), rel=1e-12
                )
                assert evaluate_policy(policy_avg, m, memory.matrix) == pytest.approx(
                    evaluate_policy(policy_avg, m, fresh), rel=1e-12
                )


# Plain definitions of the lean memory layer's parts, kept as references.

def _pam_select_reference(memory):
    j = memory.current_index
    row = memory.matrix._a[j]
    best = row.max()
    if not best > 0.0:
        raise InvariantViolation(f"row {j} has no positive entry")
    ties = (row == best).nonzero()[0]
    if ties.size == 1:
        return int(ties[0])
    return int(ties[memory.rng.integers(ties.size)])


def _evaluate_policy_reference(policy, m, matrix):
    count = int(matrix._count[m])
    if count == 0:
        return 0.0
    if policy.kind == "min":
        return policy.beta * float(matrix._minpos[m])
    avg = float(matrix._sum[m]) / count
    return min(policy.beta * avg, policy.beta * float(matrix._a[m].max()))


def _reachable_from_reference(pattern, start):
    seen = np.zeros(pattern.shape[0], dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        v = stack.pop()
        for w in np.flatnonzero(pattern[v]):
            if not seen[w]:
                seen[w] = True
                stack.append(int(w))
    return seen


_TIE_PRONE_VALUES = st.sampled_from([0.0, 0.5, 1.0, 2.0, 5e-324])


def _kept_ties_checked(matrix):
    """Assert that each row's kept ties are None or the ties of a rescan; count the kept."""
    kept = 0
    for m, top in enumerate(matrix._top):
        row = matrix._a[m]
        ties = (row == row.max()).nonzero()[0].tolist()
        assert top is None or (len(ties) > 1 and top == ties), (m, top, ties)
        kept += top is not None
    return kept


class TestLeanMemoryEquivalence:
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 11),
                      st.lists(_TIE_PRONE_VALUES, min_size=11, max_size=11)),
            min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_select_matches_plain_definition(self, rows, seed):
        lean = Memory(build_dense(12), Policy("min", 0.5), seed=seed)
        plain = Memory(build_dense(12), Policy("min", 0.5), seed=seed)
        for j, values in rows:
            row = np.insert(values, j, 0.0)
            for memory in (lean, plain):
                memory.current_index = j
                memory.matrix._a[j] = row
                memory.matrix._top[j] = None  # the row's kept ties are stale now
            try:
                expected = _pam_select_reference(plain)
            except InvariantViolation:
                with pytest.raises(InvariantViolation):
                    pam_select(lean)
                continue
            assert pam_select(lean) == expected
            assert lean.rng.bit_generator.state == plain.rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["min", "average"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_dense(6, 2.0),
            lambda: build_dense(12, 8.0),  # above every step: ties shrink one by one
            lambda: build_banded_forward(8, 2),
            lambda: build_banded_forward(5, 1),
            lambda: build_banded_bidirectional(7, 1),
            lambda: build_prior_matrix(np.array(
                [[0.0, 3.0, 0.5, 0.0], [1.0, 0.0, 0.0, 2.0],
                 [0.0, 0.25, 0.0, 4.0], [7.0, 0.0, 1.0, 0.0]])),
        ],
    )
    def test_aggregates_match_rebuild_after_random_overwrites(self, build, kind):
        rng = np.random.default_rng(41)
        policy = Policy(kind, 0.5)
        memory = Memory(build(), policy, seed=3)
        matrix = memory.matrix
        rows, cols = np.nonzero(matrix.positive_pattern())
        # a few repeated values make writes that land exactly on the row
        # minimum, which exercises the rescan branch; a write of the row
        # maximum itself ties the written column with the held ones
        values = [0.0, 0.25, 0.5, 1.0, 3.0]
        a = matrix.to_array()
        tied_at_start = ((a == a.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        kept = 0
        for i in range(3000):
            step = (float(rng.choice(values)) if rng.random() < 0.5
                    else float(rng.random() * 4.0))
            on_max = rng.random() < 0.2
            if i % 2:
                row = matrix._a[memory.current_index]
                ties = (row == row.max()).nonzero()[0]
                plain = np.random.default_rng()
                plain.bit_generator.state = memory.rng.bit_generator.state
                expected = ties[plain.integers(ties.size)] if ties.size > 1 else ties[0]
                assert pam_select(memory) == expected  # from a kept list or a rescan
                assert memory.rng.bit_generator.state == plain.bit_generator.state
                kept += _kept_ties_checked(matrix)
                pam_update(memory, float(row.max()) if on_max else step)
            else:  # any positive entry, not only the row argmax pam writes
                e = int(rng.integers(rows.size))
                memory.current_index = int(rows[e])
                _record(memory, int(cols[e]),
                        float(matrix._a[rows[e]].max()) if on_max else step + 0.125)
            fresh = matrix.copy()
            fresh._rebuild_row_stats()
            assert list(matrix._count) == list(fresh._count)
            assert list(matrix._minpos) == list(fresh._minpos)
            kept += _kept_ties_checked(matrix)
            for m in range(memory.n_sets):
                for p in (Policy("min", 0.5), Policy("average", 0.5)):
                    assert evaluate_policy(p, m, matrix) == \
                        _evaluate_policy_reference(p, m, matrix)
        assert kept or not tied_at_start

    def test_copy_and_evaluate_policy_leave_kept_ties_alone(self):
        memory = Memory(build_dense(5), Policy("min", 0.5), seed=0)
        pam_select(memory)
        assert memory.matrix._top == [[1, 2, 3, 4], None, None, None, None]
        assert memory.matrix.copy()._top == [None] * 5
        evaluate_policy(Policy("min", 0.5), 0, memory.matrix)  # writes row 0 of a copy
        assert memory.matrix._top == [[1, 2, 3, 4], None, None, None, None]

    def test_reachability_matches_plain_traversal(self):
        rng = np.random.default_rng(5)
        patterns = [build_banded_forward(256, 1).positive_pattern(),
                    np.zeros((5, 5), dtype=bool)]
        # dense patterns, and patterns where the last vertex is found while
        # unexpanded vertices are still waiting (a star into a sparse rest)
        patterns += [build_dense(n).positive_pattern() for n in (2, 3, 64)]
        for n in (4, 9, 40):
            star = np.zeros((n, n), dtype=bool)
            star[0, 1:] = True
            star[1:, 0] = True
            star[n - 1, 1] = True
            patterns.append(star)
            tail = np.zeros((n, n), dtype=bool)
            tail[0, 1] = tail[1, 2:] = True  # vertex 1 finds the rest at once
            patterns.append(tail)
        for _ in range(300):
            n = int(rng.integers(2, 16))
            p = rng.random((n, n)) < rng.choice([0.05, 0.15, 0.3, 0.7])
            p[rng.random(n) < 0.2] = False  # some empty rows
            patterns.append(p)
        for p in patterns:
            for q in (p, p.T):
                starts = range(q.shape[0]) if q.shape[0] <= 16 else (0, 17, q.shape[0] - 1)
                for s in starts:
                    np.testing.assert_array_equal(
                        _reachable_from(q, s), _reachable_from_reference(q, s))
