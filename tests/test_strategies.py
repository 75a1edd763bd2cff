"""Index choosers: cyclic order, shuffled cycles, memory-driven selection."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memproj import (
    Cyclic,
    Memory,
    Policy,
    RandomizedCycles,
    build_banded_forward,
    build_dense,
    transition_counts,
)


class TestCyclic:
    def test_sequence_wraps(self):
        s = Cyclic(3)
        assert [s.next_index() for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_each_index_appears_k_times_in_kn_window(self):
        n, k = 7, 5
        s = Cyclic(n)
        seq = np.array([s.next_index() for _ in range(k * n)])
        for m in range(n):
            assert (seq == m).sum() == k

    def test_ignores_step_length(self):
        s = Cyclic(4)
        assert s.next_index(123.0) == 0
        assert s.next_index(None) == 1


@pytest.mark.parametrize("build", [Cyclic, RandomizedCycles])
class TestSetCount:
    @pytest.mark.parametrize("n_sets", [3.9, 3.0, True, "3", np.float64(3.0)])
    def test_non_integral_n_sets_rejected(self, build, n_sets):
        # 3.9 once built a 3-set chooser and True a 1-set one
        with pytest.raises(ValueError) as exc:
            build(n_sets)
        assert str(exc.value) == f"n_sets must be an integer, not {n_sets!r}"

    def test_numpy_integer_accepted_and_zero_rejected(self, build):
        assert build(np.int64(3)).n_sets == 3
        with pytest.raises(ValueError, match="^n_sets must be at least 1$"):
            build(0)


class TestRandomizedCycles:
    def test_every_cycle_is_a_permutation(self):
        n = 9
        s = RandomizedCycles(n, seed=3)
        seq = [s.next_index() for _ in range(n * 50)]
        for c in range(50):
            window = seq[c * n : (c + 1) * n]
            assert sorted(window) == list(range(n))

    def test_deterministic_given_seed(self):
        a = RandomizedCycles(9, seed=11)
        b = RandomizedCycles(9, seed=11)
        seq_a = [a.next_index() for _ in range(100)]
        seq_b = [b.next_index() for _ in range(100)]
        assert seq_a == seq_b

    def test_cycles_actually_reshuffle(self):
        n = 9
        s = RandomizedCycles(n, seed=0)
        cycles = [tuple(s.next_index() for _ in range(n)) for _ in range(20)]
        assert len(set(cycles)) > 1

    @pytest.mark.parametrize("seed", range(5))
    def test_cycles_are_the_generator_permutations_as_python_ints(self, seed):
        n = 7
        s = RandomizedCycles(n, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            cycle = [s.next_index() for _ in range(n)]
            assert all(type(j) is int for j in cycle)
            assert cycle == rng.permutation(n).tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_rewind_across_a_refill_replays_the_picks(self, seed):
        # the state taken just before a refill holds the finished cycle's list:
        # a refill that reshuffled that list in place would change the replay
        s = RandomizedCycles(9, seed=seed)
        for _ in range(18):
            s.next_index()
        assert s._pos == s.n_sets
        state = s._state()
        picks = [s.next_index() for _ in range(30)]
        s._restore(state, 5)
        assert [s.next_index() for _ in range(25)] == picks[5:]

    def test_long_run_transition_frequencies_roughly_uniform(self):
        n = 9
        s = RandomizedCycles(n, seed=1234)
        seq = np.array([s.next_index() for _ in range(10_000)])
        counts = transition_counts(seq, n)
        off = ~np.eye(n, dtype=bool)
        uniform = counts[off].mean()
        assert np.all(np.abs(counts[off] - uniform) <= 0.25 * uniform)


class TestGeneratorPathsAgree:
    """The cheaper generator calls of the choosers draw what the plain ones do.

    ``Memory`` draws a tie as an int32 and ``RandomizedCycles`` shuffles a
    list; these pin both to NumPy's default draws, value and state, so a
    NumPy release that splits the paths fails here rather than in a trace.
    """

    @pytest.mark.parametrize("n", [2, 3, 9, 255, 256, 65537, 2**31 - 1])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_int32_draw_is_the_int64_draw(self, n, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(100):
            assert a.integers(n, dtype=np.int32) == b.integers(n)
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_shuffled_list_is_the_permutation(self, n, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            perm = list(range(n))
            a.shuffle(perm)
            assert perm == b.permutation(n).tolist()
            assert a.bit_generator.state == b.bit_generator.state


class TestMemory:
    def _memory(self, seed=0, beta=0.01):
        return Memory(build_banded_forward(9, 1), Policy("min", beta), seed=seed)

    def test_first_call_selects_without_step(self):
        s = self._memory()
        assert s.next_index(None) == 1  # from set 0, the band points at set 1

    def test_missing_step_after_first_call_raises(self):
        s = self._memory()
        s.next_index(None)
        with pytest.raises(ValueError, match="required"):
            s.next_index(None)

    def test_forward_band_forces_cyclic_order_for_any_steps(self):
        rng = np.random.default_rng(4)
        s = self._memory(seed=77)
        seq = [s.next_index(None)]
        for _ in range(40):
            seq.append(s.next_index(float(rng.random())))
        shifted = Cyclic(9)
        shifted.next_index()  # drop the leading 0
        expected = [shifted.next_index() for _ in range(41)]
        assert seq == expected

    def test_first_update_lands_in_first_transition_cell(self):
        s = self._memory(beta=0.5)
        j = s.next_index(None)
        assert j == 1
        s.next_index(0.25)  # records the 0 -> 1 step
        assert s.matrix.to_array()[0, 1] == 0.5  # max(0.25, 0.5 * 1.0)

    def test_tie_draws_pick_python_ints(self):
        # a tie is drawn as an int32 index into a list of Python ints, after a
        # rescan and from a kept list alike (steps below the floor keep lists)
        s = Memory(build_dense(5), Policy("min", 0.5), seed=3)
        picks = [s.next_index(None)] + [s.next_index(0.1) for _ in range(40)]
        assert all(type(k) is int for k in picks)

    def test_finish_applies_the_pending_update(self):
        s = self._memory(beta=0.5)
        s.next_index(None)
        s.finish(2.5)
        assert s.matrix.to_array()[0, 1] == 2.5
        # a second finish must not change anything
        s.finish(9.9)
        assert s.matrix.to_array()[0, 1] == 2.5

    def test_deterministic_given_seed(self):
        def sequence(seed):
            s = Memory(build_dense(9), Policy("min", 0.01), seed=seed)
            rng = np.random.default_rng(0)
            out = [s.next_index(None)]
            for _ in range(200):
                out.append(s.next_index(float(rng.random())))
            return out

        assert sequence(42) == sequence(42)
        assert sequence(42) != sequence(43)

    @pytest.mark.parametrize("policy", ["min", None, ("min", 0.01), 0.01])
    def test_policy_must_be_a_policy(self, policy):
        # "min" once built, and the first step then failed on policy.beta
        with pytest.raises(ValueError, match=r"^policy must be a Policy, not "):
            Memory(build_dense(3), policy)

    def test_matrix_size_must_match(self):
        s = self._memory()
        assert s.n_sets == 9


class TestTransitionCounts:
    def test_cyclic_trace_counts_sit_on_the_cycle(self):
        n = 9
        s = Cyclic(n)
        seq = np.array([s.next_index() for _ in range(3 * n)])
        counts = transition_counts(seq, n)
        assert counts.sum() == 3 * n - 1
        for m in range(n):
            nxt = (m + 1) % n
            assert counts[m, nxt] in (2, 3)
            row = counts[m].copy()
            row[nxt] = 0
            assert row.sum() == 0

    def test_single_entry_gives_zero_matrix(self):
        counts = transition_counts([4], 9)
        assert counts.sum() == 0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            transition_counts([], 9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            transition_counts([0, 9], 9)

    def test_mass_conservation_random_sequences(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            length = int(rng.integers(1, 500))
            seq = rng.integers(n, size=length)
            assert transition_counts(seq, n).sum() == length - 1


def _transition_counts_reference(indices, n_sets):
    """The counts as first written, one unbuffered add per pair."""
    idx = np.asarray(indices, dtype=int)
    counts = np.zeros((n_sets, n_sets), dtype=np.int64)
    np.add.at(counts, (idx[:-1], idx[1:]), 1)
    return counts


class TestTransitionCountsMatchReference:
    @given(n=st.integers(1, 70), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_add_at(self, n, data):
        seq = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=400))
        counts = transition_counts(seq, n)
        expected = _transition_counts_reference(seq, n)
        assert counts.dtype == np.int64 and counts.shape == (n, n)
        assert counts.tobytes() == expected.tobytes()
        if len(seq) == 1:
            assert not counts.any()
