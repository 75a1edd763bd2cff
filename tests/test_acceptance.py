"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  Budgets, tolerances and seed counts are fixed here; nothing is
calibrated at run time.
"""
from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest

from conftest import SET_FAMILIES, admissible_by_enumeration, sample_member, sample_set
from memproj import (
    Cyclic,
    DistanceMatrix,
    Memory,
    Policy,
    RandomizedCycles,
    StoppingRule,
    ToyConfig,
    build_banded_bidirectional,
    build_banded_forward,
    build_dense,
    concentration_step,
    distance,
    evaluate_policy,
    is_admissible,
    make_toy_problem,
    pam_select,
    pam_update,
    run,
)
from memproj.cli import main as cli_main

TOY = ToyConfig(9, 0.05)


def _ok(criterion: int, text: str) -> None:
    print(f"[AC{criterion:02d}] PASS: {text}")


def toy():
    return make_toy_problem(TOY)


def test_ac01_projection_correctness():
    """Idempotence, membership and the obtuse-angle inequality on 1000
    randomized (point, set) pairs per set family."""
    rng = np.random.default_rng(20260808)
    for family in SET_FAMILIES:
        for _ in range(1000):
            dim = int(rng.integers(1, 7))
            s = sample_set(rng, family, dim)
            x = rng.uniform(-8, 8, size=dim)
            p = s.project(x)
            assert np.linalg.norm(s.project(p) - p) <= 1e-12, family
            assert distance(p, s) <= 1e-12, family
            z = sample_member(rng, s)
            assert (x - p) @ (z - p) <= 1e-9, family
    _ok(1, "6000 randomized projections: idempotent, member, variational")


def test_ac02_error_reduction_suite():
    """On 100 randomized toy runs across the three strategies, every step
    satisfies the squared-error-reduction inequality (slack 1e-9) and the
    residual to the origin never increases (slack 1e-12)."""
    sets, _, sol = toy()
    rng = np.random.default_rng(7)
    budget = StoppingRule.exact_budget(250)

    def strategies():
        while True:
            yield Cyclic(9)
            yield RandomizedCycles(9, seed=int(rng.integers(1 << 30)))
            yield Memory(build_dense(9), Policy("min", 0.01),
                         seed=int(rng.integers(1 << 30)))

    gen = strategies()
    for _ in range(100):
        x0 = rng.uniform(-2, 2, size=3)
        trace = run(sets, next(gen), x0, budget, known_point=sol,
                    store_iterates=True)
        d = np.linalg.norm(trace.iterates - sol, axis=1)
        steps = trace.step_lengths
        assert np.all(d[1:] ** 2 <= d[:-1] ** 2 - steps**2 + 1e-9)
        assert np.all(d[1:] <= d[:-1] + 1e-12)
    _ok(2, "100 randomized runs: error reduction holds at every step")


def test_ac03_memory_with_trivial_band_reproduces_cyclic_method():
    """With the forward band of width 1 the memory method must follow the
    cyclic method started from the projected start point, bit for bit,
    for 500 iterations."""
    sets, x0, sol = toy()
    pam = Memory(build_banded_forward(9, 1), Policy("min", 0.01), seed=99)
    t_pam = run(sets, pam, x0, StoppingRule.exact_budget(501),
                known_point=sol, store_iterates=True)
    start = sets[0].project(x0)
    t_mcp = run(sets, Cyclic(9), start, StoppingRule.exact_budget(501),
                known_point=sol, store_iterates=True)
    assert np.array_equal(t_pam.set_indices, t_mcp.set_indices)
    assert np.array_equal(t_pam.iterates[1], t_mcp.iterates[0])
    assert np.array_equal(t_pam.iterates[1:], t_mcp.iterates[1:])
    assert np.array_equal(t_pam.step_lengths[1:], t_mcp.step_lengths[1:])
    _ok(3, "memory method with width-1 band equals cyclic method bitwise "
           "over 500 iterations")


@pytest.mark.parametrize("policy_kind", ["min", "average"])
@pytest.mark.parametrize(
    "builder_label,builder",
    [
        ("dense", lambda: build_dense(9)),
        ("bidirectional_w2", lambda: build_banded_bidirectional(9, 2)),
        ("bidirectional_w4", lambda: build_banded_bidirectional(9, 4)),
        ("forward_w1", lambda: build_banded_forward(9, 1)),
        ("forward_w2", lambda: build_banded_forward(9, 2)),
        ("forward_w6", lambda: build_banded_forward(9, 6)),
    ],
)
def test_ac04_sparsity_pattern_preserved(policy_kind, builder_label, builder):
    """Over 10^4 memory steps the strict-positivity pattern never changes
    and the matrix stays admissible at every step."""
    sets, x0, _ = toy()
    matrix = builder()
    pattern0 = matrix.to_array() > 0.0
    memory = Memory(matrix, Policy(policy_kind, 0.01), seed=31)
    x = sets[0].project(x0)
    for _ in range(10_000):
        j = pam_select(memory)
        x_next = sets[j].project(x)
        pam_update(memory, float(np.linalg.norm(x_next - x)))
        x = x_next
        assert np.array_equal(memory.matrix.to_array() > 0.0, pattern0)
        assert is_admissible(memory.matrix)
    _ok(4, f"pattern preserved for 10^4 steps ({builder_label}, {policy_kind})")


def test_ac05_recurrence_and_memory_decay():
    """In a 10^4-step toy run every set index shows up in every trailing
    window of 2000 steps, and the memory has decayed by at least 1e3."""
    sets, x0, sol = toy()
    matrix = build_dense(9, 1.0)
    initial_max = matrix.max_entry()
    pam = Memory(matrix, Policy("min", 0.01), seed=12)
    trace = run(sets, pam, x0, StoppingRule.exact_budget(10_001),
                known_point=sol)
    idx = trace.set_indices
    worst_gap = 0
    for m in range(9):
        occ = np.flatnonzero(idx == m)
        assert occ.size > 0
        padded = np.concatenate([[-1], occ, [idx.size]])
        worst_gap = max(worst_gap, int(np.diff(padded).max()))
    assert worst_gap <= 2000
    final_max = trace.final_matrix.max()
    assert final_max <= 1e-3 * initial_max
    _ok(5, f"recurrence gap {worst_gap} <= 2000; memory decayed to "
           f"{final_max:.2e} of {initial_max:g}")


@pytest.mark.parametrize(
    "label,factory",
    [
        ("mcp", lambda: Cyclic(9)),
        ("mrp", lambda: RandomizedCycles(9, seed=0)),
        ("pam", lambda: Memory(build_dense(9, 1.0), Policy("min", 0.01), seed=0)),
    ],
)
def test_ac06_convergence_within_budget(label, factory):
    """Each strategy drives the toy residual below 1e-6 within 1e5
    projections, in under 10 seconds."""
    sets, x0, sol = toy()
    rule = StoppingRule(max_iterations=100_000, step_tolerance=5e-324,
                        residual_tolerance=1e-6)
    t0 = time.perf_counter()
    trace = run(sets, factory(), x0, rule, known_point=sol)
    elapsed = time.perf_counter() - t0
    assert trace.status == "converged_by_residual"
    assert trace.residuals[-1] < 1e-6
    assert trace.n_projections <= 100_000
    assert elapsed < 10.0
    _ok(6, f"{label} reached 1e-6 in {trace.n_projections} projections "
           f"({elapsed:.2f}s)")


def _median_residuals_at(budget, n_seeds, make_strategy):
    sets, x0, sol = toy()
    rule = StoppingRule.exact_budget(budget)
    out = []
    for seed in range(n_seeds):
        trace = run(sets, make_strategy(seed), x0, rule, known_point=sol)
        out.append(float(trace.residuals[-1]))
    return np.asarray(out)


def test_ac07_all_transitions_memory_never_worse_than_shuffled_cycles():
    """With every transition admissible, the memory method's median
    residual at 315 iterations must not exceed the shuffled-cycle method's,
    and the fixed cycle must not beat the shuffled one.  Margins under 5%
    widen the comparison to 50 seeds before judging."""
    def pam_full(seed):
        return Memory(build_banded_forward(9, 8), Policy("min", 0.01), seed=seed)

    def comparison(n_seeds):
        pam = np.median(_median_residuals_at(315, n_seeds, pam_full))
        mrp = np.median(_median_residuals_at(
            315, n_seeds, lambda s: RandomizedCycles(9, seed=s)))
        mcp = _median_residuals_at(315, 1, lambda s: Cyclic(9))[0]
        return pam, mrp, mcp

    pam, mrp, mcp = comparison(20)
    margin = abs(pam - mrp) / max(pam, mrp)
    if pam > mrp or margin < 0.05:
        pam, mrp, mcp = comparison(50)
    assert pam <= mrp
    assert mcp >= mrp
    _ok(7, f"medians at 315: memory {pam:.3f} <= shuffled {mrp:.3f} "
           f"<= fixed cycle {mcp:.3f}")


def test_ac08_bandwidth_tradeoff():
    """At 432 iterations a wide forward band must end lower while the
    narrow band must concentrate its transitions earlier (20 seeds)."""
    sets, x0, sol = toy()
    rule = StoppingRule.exact_budget(432)
    residuals = {}
    concentration = {}
    for omega in (2, 6):
        res, conc = [], []
        for seed in range(20):
            strategy = Memory(build_banded_forward(9, omega),
                              Policy("min", 0.01), seed=seed)
            trace = run(sets, strategy, x0, rule, known_point=sol)
            res.append(float(trace.residuals[-1]))
            conc.append(concentration_step(trace.set_indices, 9))
        residuals[omega] = float(np.median(res))
        concentration[omega] = float(np.median(conc))
    assert residuals[6] < residuals[2]
    assert concentration[2] < concentration[6]
    _ok(8, f"width 6 residual {residuals[6]:.3f} < width 2 {residuals[2]:.3f}; "
           f"width 2 concentrates at {concentration[2]:.0f} < "
           f"{concentration[6]:.0f} transitions")


def test_ac09_policy_admissibility_bulk():
    """Both policies stay strictly positive on rows with a positive entry
    and never exceed beta times the row maximum, over 10^4 random
    matrices and beta in {0.01, 0.5, 0.99}."""
    rng = np.random.default_rng(2718)
    policies = [Policy(kind, beta)
                for kind in ("min", "average")
                for beta in (0.01, 0.5, 0.99)]
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        a = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 0.9))
        np.fill_diagonal(a, 0.0)
        d = DistanceMatrix(a)
        row_max = a.max(axis=1)
        for policy in policies:
            for m in range(n):
                v = evaluate_policy(policy, m, d)
                if row_max[m] > 0.0:
                    assert v > 0.0
                else:
                    assert v == 0.0
                assert v <= policy.beta * row_max[m]
    _ok(9, "policy positivity and decay bound hold on 10^4 random matrices")


def test_ac10_admissibility_checker_vs_enumeration():
    """Exact agreement with the path-enumeration oracle: exhaustively for
    up to 4 sets, on 10^4 random patterns for 5 sets."""
    checked = 0
    for n in (2, 3, 4):
        cells = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product([0.0, 1.0], repeat=len(cells)):
            a = np.zeros((n, n))
            for (i, j), b in zip(cells, bits):
                a[i, j] = b
            assert is_admissible(a) == admissible_by_enumeration(a)
            checked += 1
    rng = np.random.default_rng(31337)
    for _ in range(10_000):
        a = (rng.random((5, 5)) < rng.uniform(0.05, 0.95)).astype(float)
        np.fill_diagonal(a, 0.0)
        assert is_admissible(a) == admissible_by_enumeration(a)
        checked += 1
    _ok(10, f"checker agrees with enumeration on {checked} patterns")


def test_ac11_byte_identical_traces_across_invocations(tmp_path):
    """The CLI writes byte-identical trace CSVs when rerun with the same
    config and seeds."""
    doc = {
        "problem": {"kind": "toy", "n_sets": 9, "r": 0.05},
        "strategy": {
            "kind": "pam",
            "matrix": {"kind": "banded_bidirectional", "omega": 4, "scale": 1.0},
            "policy": {"kind": "average", "beta": 0.5},
        },
        "stop": {"max_iterations": 315},
        "seeds": [0, 1, 2],
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["run", str(cfg), "--out", str(out2)]) == 0
    compared = 0
    for seed in (0, 1, 2):
        name = f"trace_seed{seed}.csv"
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
        assert len(b1) > 0
        compared += 1
    assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()
    _ok(11, f"{compared} trace CSVs byte-identical across two invocations")
