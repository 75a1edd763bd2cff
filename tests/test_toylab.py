"""The fan-of-lines problem and the canned studies built on it."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memproj import (
    PRESETS,
    Cyclic,
    Memory,
    Policy,
    StoppingRule,
    ToyConfig,
    build_banded_forward,
    build_dense,
    concentration_step,
    distance,
    make_toy_problem,
    run,
    run_preset,
    toy_directions,
)
from memproj.toylab import _method_lineup

from conftest import assert_same_trace


class TestProblemGeneration:
    def test_last_direction_is_the_known_one(self):
        sets, _, _ = make_toy_problem(ToyConfig(9, 0.05))
        # angle of line 9 is pi: direction (-r, 0, 1) up to float trig
        np.testing.assert_allclose(
            sets[8].direction, [-0.05, 0.0, 1.0], atol=1e-15
        )

    def test_directions_match_the_trig_formula(self):
        n, r = 9, 0.05
        dirs = toy_directions(n, r)
        for j in range(1, n + 1):
            angle = j * np.pi / n
            np.testing.assert_array_equal(
                dirs[j - 1], [r * np.cos(angle), r * np.sin(angle), 1.0]
            )

    def test_start_point(self):
        _, x0, _ = make_toy_problem(ToyConfig(9, 0.05))
        np.testing.assert_array_equal(
            x0, [np.cos(np.pi / 9), np.sin(np.pi / 9), 1.0]
        )

    def test_solution_lies_on_every_line(self):
        sets, _, solution = make_toy_problem(ToyConfig(9, 0.05))
        np.testing.assert_array_equal(solution, np.zeros(3))
        for s in sets:
            assert distance(solution, s) == 0.0

    @pytest.mark.parametrize("n,r", [(2, 0.5), (5, 0.1), (9, 0.05), (17, 1.3)])
    def test_direction_shape_invariants(self, n, r):
        dirs = toy_directions(n, r)
        assert np.all(dirs[:, 2] == 1.0)
        xy = np.hypot(dirs[:, 0], dirs[:, 1])
        np.testing.assert_allclose(xy, r, atol=1e-15, rtol=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ToyConfig(1, 0.05)
        with pytest.raises(ValueError):
            ToyConfig(9, 0.0)
        with pytest.raises(ValueError):
            ToyConfig(9, -1.0)

    def test_config_types_are_checked_at_construction(self):
        # each is a ValueError naming its field, where NumPy raised a TypeError
        # at construction or later, or 9.0 and 9.5 were accepted
        for n in (9.0, 9.5, True, np.float64(9.0), "9"):
            with pytest.raises(ValueError, match=r"^n_sets must be an integer, not "):
                ToyConfig(n)
        for r in ("0.05", None, True, [0.05], 0.05j):
            with pytest.raises(ValueError, match=r"^r must be a real number, not "):
                ToyConfig(9, r)
        for r in (10**400, np.nan, np.inf, -0.0):
            with pytest.raises(ValueError, match=r"^r must be finite and > 0$"):
                ToyConfig(9, r)
        # a NumPy scalar is taken as the Python number it holds, so a report can encode it
        config = ToyConfig(np.int64(9), np.float64(0.05))
        assert type(config.n_sets) is int and type(config.r) is float
        assert config == ToyConfig(9, 0.05)
        config = ToyConfig(np.int32(2), np.float32(0.5))
        assert (type(config.n_sets), type(config.r)) == (int, float)
        assert ToyConfig(9, 1).r == 1 and type(ToyConfig(9, 1).r) is int

    def test_more_lines_than_max_lines_rejected_at_construction(self):
        # a fan of 10**12 lines once failed allocating 7.28 TiB in toy_directions
        with pytest.raises(ValueError, match=r"^need at most 2300000 lines; "):
            ToyConfig(10**12)
        assert ToyConfig(ToyConfig.max_lines).n_sets == ToyConfig.max_lines

    def test_numerically_parallel_lines_rejected(self):
        # at tiny r the lines cannot be told apart in double precision
        with pytest.raises(ValueError, match="parallel"):
            make_toy_problem(ToyConfig(9, 1e-8))

    def test_start_point_is_on_no_line(self):
        sets, x0, _ = make_toy_problem(ToyConfig(9, 0.05))
        assert all(distance(x0, s) > 1e-3 for s in sets)


def _pair_cosines_reference(dirs):
    """The pair loop the parallel-line check once ran: |cos| of every pair
    a < b, in row-major upper-triangle order."""
    norms = np.linalg.norm(dirs, axis=1)
    n = dirs.shape[0]
    return [((a, b), abs(dirs[a] @ dirs[b]) / (norms[a] * norms[b]))
            for a in range(n) for b in range(a + 1, n)]


def _first_parallel_reference(cfg):
    for (a, b), cosang in _pair_cosines_reference(toy_directions(cfg.n_sets, cfg.r)):
        if cosang >= 1.0 - 1e-12:
            return (f"lines {a} and {b} are parallel; their intersection is "
                    "not a single point")
    return None


class TestParallelCheckMatchesPairLoop:
    # the pair loop takes seconds at N=1000, so that size runs at one r
    @pytest.mark.parametrize("n, r", [
        *[(n, r) for n in (2, 3, 9, 64, 256) for r in (1e-3, 0.05, 3.0)],
        (1000, 0.05),
    ])
    def test_cosines_are_bit_equal(self, n, r):
        dirs = toy_directions(n, r)
        norms = np.linalg.norm(dirs, axis=1)
        cosines = np.abs(dirs @ dirs.T) / np.outer(norms, norms)
        pairs, expected = zip(*_pair_cosines_reference(dirs))
        got = cosines[tuple(np.array(pairs).T)]
        assert got.tobytes() == np.array(expected).tobytes()
        assert max(expected) < 1.0 - 1e-12
        make_toy_problem(ToyConfig(n, r))

    @pytest.mark.parametrize("n", [2, 9, 64])
    @pytest.mark.parametrize("r", [1e-7, 1e-8])
    def test_near_parallel_fan_names_the_same_pair(self, n, r):
        message = _first_parallel_reference(ToyConfig(n, r))
        assert message is not None
        with pytest.raises(ValueError) as info:
            make_toy_problem(ToyConfig(n, r))
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [2, 3, 9, 64, 256])
    @pytest.mark.parametrize("r", [1e-8, 1e-7, 1e-3, 0.05, 3.0, 1e6, 1e9])
    def test_check_without_the_sets_names_the_same_pair(self, n, r):
        message = _first_parallel_reference(ToyConfig(n, r))
        if message is None:
            assert ToyConfig(n, r).directions().tobytes() == toy_directions(n, r).tobytes()
            return
        with pytest.raises(ValueError) as info:
            ToyConfig(n, r).directions()
        assert str(info.value) == message

    def test_check_takes_memory_linear_in_the_lines(self):
        # an N x N cosine matrix would take 74.5 GiB here
        ToyConfig(10**5, 1.0).directions()


class TestMemoryEqualsCyclicWithTrivialBand:
    def test_iterates_match_bitwise(self):
        sets, x0, sol = make_toy_problem(ToyConfig(9, 0.05))
        pam = Memory(build_banded_forward(9, 1), Policy("min", 0.01), seed=2)
        t_pam = run(sets, pam, x0, StoppingRule.exact_budget(101),
                    known_point=sol, store_iterates=True)
        t_mcp = run(sets, Cyclic(9), sets[0].project(x0),
                    StoppingRule.exact_budget(101), known_point=sol,
                    store_iterates=True)
        assert np.array_equal(t_pam.set_indices, t_mcp.set_indices)
        assert np.array_equal(t_pam.iterates[1:], t_mcp.iterates[1:])
        assert np.array_equal(t_mcp.iterates[0], t_pam.iterates[1])


class TestConcentration:
    def test_pure_cycle_concentrates_immediately(self):
        idx = np.tile(np.arange(4), 30)
        assert concentration_step(idx, 4) == 0

    def test_spread_then_cycle(self):
        rng = np.random.default_rng(0)
        explore = rng.integers(6, size=200)
        cycle = np.tile(np.arange(6), 200)
        t = concentration_step(np.concatenate([explore, cycle]), 6)
        assert 200 < t < 700

    def test_trivial_sequences(self):
        assert concentration_step([3], 5) == 0
        assert concentration_step([], 5) == 0

    @given(
        data=st.data(),
        n_sets=st.integers(1, 7),
        threshold=st.sampled_from([0.1, 0.5, 0.75, 0.9, 1.0]),
    )
    @settings(max_examples=400)
    def test_matches_full_partition_reference(self, data, n_sets, threshold):
        # a random stretch spreads mass; repeating its first indices then
        # makes a short cycle whose cells pull ahead, so the top-N share
        # both dips and settles
        idx = data.draw(st.lists(st.integers(0, n_sets - 1), max_size=150))
        idx = idx + data.draw(st.sampled_from([0, 2, 5])) * idx[:4]
        assert concentration_step(idx, n_sets, threshold) == \
            _concentration_step_reference(idx, n_sets, threshold)

    def test_matches_reference_on_pam_traces(self):
        sets, x0, sol = make_toy_problem(ToyConfig(16, 0.05))
        for seed in range(3):
            strategy = Memory(build_dense(16), Policy("min", 0.01), seed=seed)
            trace = run(sets, strategy, x0, StoppingRule.exact_budget(1500))
            assert concentration_step(trace.set_indices, 16) == \
                _concentration_step_reference(trace.set_indices, 16)


def _concentration_step_reference(indices, n_sets, threshold=0.75):
    """The original definition: a full partition of all N^2 counts per step."""
    idx = np.asarray(indices, dtype=int)
    total = idx.size - 1
    if total < 1:
        return 0
    counts = np.zeros(n_sets * n_sets, dtype=np.int64)
    shares = np.empty(total)
    for t in range(total):
        counts[idx[t] * n_sets + idx[t + 1]] += 1
        top = np.partition(counts, counts.size - n_sets)[-n_sets:]
        shares[t] = top.sum() / (t + 1)
    below = np.flatnonzero(shares < threshold)
    if below.size == 0:
        return 0
    return int(below[-1]) + 1


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            run_preset("nonsense", seeds=[0])

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_preset("benchmark", seeds=[])

    def test_benchmark_structure(self):
        rep = run_preset("benchmark", seeds=range(3), iterations=60)
        assert [m.label for m in rep.methods] == ["mcp", "mrp", "pam"]
        for m in rep.methods:
            assert len(m.traces) == 3
            for t in m.traces:
                assert t.n_projections == 60
                assert t.transition_counts().sum() == 59

    def test_benchmark_mcp_frequencies_sit_on_the_cycle(self):
        rep = run_preset("benchmark", seeds=[0], iterations=90)
        counts = rep.method("mcp").frequency_matrices()[0]
        cycle = np.zeros_like(counts, dtype=bool)
        for m in range(9):
            cycle[m, (m + 1) % 9] = True
        assert counts[~cycle].sum() == 0
        assert counts[cycle].sum() == 89

    def test_summary_statistics_shape(self):
        rep = run_preset("benchmark", seeds=range(4), iterations=45)
        s = rep.summary()
        assert s["iterations"] == 45
        assert set(s["methods"]) == {"mcp", "mrp", "pam"}
        block = s["methods"]["pam"]["residual_at_budget"]
        assert len(block["per_seed"]) == 4
        assert block["min"] <= block["median"] <= block["max"]
        assert "concentration_step" in s["methods"]["pam"]

    def test_sparse_forward_label_follows_omega(self):
        rep = run_preset("sparse_forward", seeds=[0], iterations=30, omega=4)
        assert [m.label for m in rep.methods] == ["mcp", "pam_omega4"]

    def test_bandwidth_sweep_lineup_for_nine_sets(self):
        rep = run_preset("bandwidth_sweep", seeds=[0], iterations=30)
        labels = [m.label for m in rep.methods]
        assert labels == ["mcp", "mrp", "pam_omega2", "pam_omega4", "pam_omega8"]

    def test_default_budgets(self):
        rep = run_preset("benchmark", seeds=[0])
        assert rep.iterations == 315
        rep = run_preset("sparse_forward", seeds=[0], omega=2)
        assert rep.iterations == 432

    def test_scaling_small_shows_underperformance_for_some_seed(self):
        rep = run_preset("scaling_small", seeds=range(20))
        mrp_median = np.median(rep.method("mrp").residuals_at_budget())
        pam = rep.method("pam").residuals_at_budget()
        assert np.any(pam > mrp_median)

    def test_scaling_large_tracks_or_beats_mrp(self):
        rep = run_preset("scaling_large", seeds=range(10))
        mrp_median = np.median(rep.method("mrp").residuals_at_budget())
        pam_median = np.median(rep.method("pam").residuals_at_budget())
        assert pam_median <= mrp_median

    @pytest.mark.parametrize("preset", PRESETS)
    def test_traces_equal_one_run_per_seed(self, preset):
        seeds = range(5)
        rep = run_preset(preset, seeds=seeds)
        sets, x0, solution = make_toy_problem(rep.config)
        rule = StoppingRule.exact_budget(rep.iterations)
        lineup = _method_lineup(preset, rep.config.n_sets, None, 0.01)
        assert [m.label for m in rep.methods] == [label for label, _ in lineup]
        for m, (_, factory) in zip(rep.methods, lineup):
            assert len(m.traces) == len(seeds)
            for seed, trace in zip(seeds, m.traces):
                expected = run(sets, factory(seed), x0, rule, known_point=solution)
                assert_same_trace(trace, expected)

    @pytest.mark.parametrize("preset", ["benchmark", "sparse_forward"])
    def test_each_seed_of_a_cyclic_method_has_its_own_arrays(self, preset):
        rep = run_preset(preset, seeds=range(3), iterations=40)
        first, second, _ = rep.method("mcp").traces
        kept = second.step_lengths.copy()
        first.step_lengths[:] = -1.0
        assert second.step_lengths.tobytes() == kept.tobytes()
        for name in ("set_indices", "residuals", "x0", "x_final", "known_point"):
            assert not np.shares_memory(getattr(first, name), getattr(second, name)), name

    def test_method_lookup(self):
        rep = run_preset("benchmark", seeds=[0], iterations=20)
        assert rep.method("mcp").label == "mcp"
        with pytest.raises(KeyError):
            rep.method("missing")
