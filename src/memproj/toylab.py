"""A small feasibility problem with a known answer, plus canned studies.

The problem is a fan of N lines through the origin in R^3 with directions
(r cos(j pi / N), r sin(j pi / N), 1) for j = 1..N.  The lines intersect
only at the origin, so the origin is the unique feasible point and the
residual of an iterate is simply its norm.  Small r makes neighbouring
lines nearly parallel, which is exactly the regime where the order of
projections matters a lot.

Presets bundle the strategy line-ups and iteration budgets used in the
canned comparisons; each runs every method over a list of seeds and
collects residual series, transition-frequency matrices and summary
statistics.
"""
from __future__ import annotations

import copy
import sys
from dataclasses import dataclass

import numpy as np

from .memory import Policy, _check_integer, _check_real, build_banded_forward, build_dense
from .runner import StoppingRule, _row_dots, run, run_lockstep
from .sets import LineThroughOrigin
from .strategies import Cyclic, Memory, RandomizedCycles

__all__ = [
    "ToyConfig",
    "make_toy_problem",
    "toy_directions",
    "PRESETS",
    "MethodResult",
    "PresetReport",
    "run_preset",
    "concentration_step",
]


@dataclass(frozen=True)
class ToyConfig:
    """Fan-of-lines problem parameters: N lines, radius parameter r > 0."""

    n_sets: int = 9
    r: float = 0.05
    # neighbouring lines are pi / N apart: with more, 1 - |cos| < 1e-12 at every r
    max_lines = 2_300_000

    def __post_init__(self):
        # a NumPy scalar is kept as the Python number it holds, which a report can encode
        object.__setattr__(self, "n_sets", _check_integer("n_sets", self.n_sets, 2))
        if self.n_sets > self.max_lines:
            raise ValueError(f"n_sets must be at most {self.max_lines}; neighbouring "
                             "lines of a larger fan are parallel at every r")
        object.__setattr__(self, "r", _check_real("r", self.r))
        # compared, not converted: an integer beyond the float range is not finite
        if not 0.0 < self.r <= sys.float_info.max:
            raise ValueError("r must be finite and > 0")

    def directions(self) -> np.ndarray:
        """``toy_directions`` of the fan, or ValueError naming its first pair of
        parallel lines in row-major order.  Lines t apart in angle have |cos| =
        |r^2 cos t + 1| / (r^2 + 1), largest at the least and greatest t, so in
        O(N) memory only the pairs (0, b) and (a, a + 1) are checked."""
        dirs = toy_directions(self.n_sets, self.r)
        norms = np.linalg.norm(dirs, axis=1)
        a = np.r_[np.zeros(self.n_sets - 1, int), 1:self.n_sets - 1]
        b = np.r_[1:self.n_sets, 2:self.n_sets]
        cosines = np.abs(_row_dots(dirs[a], dirs[b])) / (norms[a] * norms[b])
        parallel = np.flatnonzero(cosines >= 1.0 - 1e-12)
        if parallel.size:
            p = parallel[0]
            raise ValueError(f"lines {a[p]} and {b[p]} are parallel; their "
                             "intersection is not a single point")
        return dirs


def toy_directions(n_sets: int, r: float) -> np.ndarray:
    """Direction vectors of the N lines, one per row."""
    j = np.arange(1, n_sets + 1)
    angles = j * np.pi / n_sets
    return np.column_stack([r * np.cos(angles), r * np.sin(angles), np.ones(n_sets)])


def make_toy_problem(cfg: ToyConfig = ToyConfig()):
    """Build the fan of lines; returns (sets, x0, solution).

    The start point is (cos(pi/N), sin(pi/N), 1) and the solution is the
    origin.  The construction verifies that distinct lines only meet at the
    origin (no two directions are parallel).
    """
    dirs = cfg.directions()
    sets = [LineThroughOrigin(dirs[i]) for i in range(cfg.n_sets)]
    x0 = np.array([np.cos(np.pi / cfg.n_sets), np.sin(np.pi / cfg.n_sets), 1.0])
    solution = np.zeros(3)
    return sets, x0, solution


@dataclass
class MethodResult:
    """All runs of one method within a preset."""

    label: str
    traces: list
    seeds: list

    def residuals_at_budget(self) -> np.ndarray:
        return np.array([t.residuals[-1] for t in self.traces])


@dataclass
class PresetReport:
    """Outcome of one preset: per-method runs plus summary statistics."""

    preset: str
    config: ToyConfig
    iterations: int
    seeds: list
    params: dict
    methods: list

    def method(self, label: str) -> MethodResult:
        for m in self.methods:
            if m.label == label:
                return m
        raise KeyError(label)

    def summary(self) -> dict:
        out = {
            "preset": self.preset,
            "n_sets": self.config.n_sets,
            "r": self.config.r,
            "iterations": self.iterations,
            "seeds": list(self.seeds),
            "params": dict(self.params),
            "methods": {},
        }
        for m in self.methods:
            res = m.residuals_at_budget()
            entry = {
                "residual_at_budget": {
                    "per_seed": [float(v) for v in res],
                    "median": float(np.median(res)),
                    "min": float(res.min()),
                    "max": float(res.max()),
                },
                "status": [t.status for t in m.traces],
            }
            if m.label.startswith("pam"):
                conc = [
                    concentration_step(t.set_indices, t.n_sets) for t in m.traces
                ]
                entry["concentration_step"] = {
                    "per_seed": conc,
                    "median": float(np.median([c for c in conc])),
                }
            out["methods"][m.label] = entry
        return out


def concentration_step(indices, n_sets: int, threshold: float = 0.75) -> int:
    """Transitions needed before the top-N cells keep ``threshold`` of the
    cumulative transition mass for the rest of the run.

    A proxy for the length of the learning phase: while the method still
    explores, mass spreads over many cells and the top-N share dips; once
    it locks onto a profitable route the share climbs and stays up.  The
    result equals the total transition count when the share never settles
    above the threshold within the trace.
    """
    idx = np.asarray(indices, dtype=int).tolist()
    total = len(idx) - 1
    if total < 1:
        return 0
    # counts only ever grow by one, so the top-N sum is tracked exactly
    # from a histogram of counts, the N-th largest count and the number of
    # cells above it: it rises by 1 exactly when the incremented cell was
    # at or above the N-th largest count
    counts = [0] * (n_sets * n_sets)
    hist = [0] * (total + 2)
    hist[0] = n_sets * n_sets
    nth = 0
    above = 0
    top = 0
    last_below = -1
    for t in range(total):
        cell = idx[t] * n_sets + idx[t + 1]
        c = counts[cell]
        counts[cell] = c + 1
        hist[c] -= 1
        hist[c + 1] += 1
        if c >= nth:
            top += 1
            if c == nth:
                above += 1
                if above == n_sets:
                    nth += 1
                    above = n_sets - hist[nth]
        if top / (t + 1) < threshold:
            last_below = t
    return last_below + 1


_DEFAULT_BUDGET = {
    "benchmark": 315,
    "scaling_large": 315,
    "scaling_small": 315,
    "sparse_forward": 432,
    "bandwidth_sweep": 315,
}
PRESETS = tuple(_DEFAULT_BUDGET)


def _method_lineup(preset: str, n_sets: int, omega, beta: float):
    """(label, strategy factory seed -> Strategy) pairs for a preset of
    ``PRESETS``, which ``run_preset`` checks first."""
    policy = Policy("min", beta)

    # each Memory copies the matrix it is given, so one serves every seed
    def pam(matrix):
        return lambda seed: Memory(matrix, policy, seed=seed)

    mcp = ("mcp", lambda seed: Cyclic(n_sets))
    mrp = ("mrp", lambda seed: RandomizedCycles(n_sets, seed=seed))

    if preset == "benchmark":
        return [mcp, mrp, ("pam", pam(build_dense(n_sets, 1.0)))]
    if preset == "scaling_large":
        return [mrp, ("pam", pam(build_dense(n_sets, 1.0)))]
    if preset == "scaling_small":
        return [mrp, ("pam", pam(build_dense(n_sets, 0.01)))]
    if preset == "sparse_forward":
        w = 2 if omega is None else omega
        return [mcp, (f"pam_omega{w}", pam(build_banded_forward(n_sets, w)))]
    # bandwidth_sweep
    quarter = max(1, round(n_sets / 4))
    half = max(1, round(n_sets / 2))
    full = n_sets - 1  # forward band of width N-1 admits every transition
    lineup = [mcp, mrp]
    for w in dict.fromkeys((quarter, half, full)):
        lineup.append((f"pam_omega{w}", pam(build_banded_forward(n_sets, w))))
    return lineup


def run_preset(
    preset: str,
    config: ToyConfig = ToyConfig(),
    seeds=range(20),
    iterations: int | None = None,
    omega: int | None = None,
    beta: float = 0.01,
) -> PresetReport:
    """Run one canned study over all seeds and collect the results.

    Every method runs once per seed with a fixed projection budget (the
    preset default unless ``iterations`` overrides it).  The seeds of a
    method advance in lockstep (``run_lockstep``); each trace is the one a
    single ``run()`` with that seed gives, bit for bit.  Deterministic
    methods run once, copied per seed: every seed still has its own trace,
    which keeps the summary statistics comparable.  ``omega`` is the band
    width of ``sparse_forward`` (2 if None), the one preset that reads it.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose one of {PRESETS}")
    if omega is not None and preset != "sparse_forward":
        raise ValueError(f"preset {preset!r} takes no omega; only sparse_forward reads it")
    seeds = [_check_integer("seeds", s, 0) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    budget = _DEFAULT_BUDGET[preset] if iterations is None else _check_integer(
        "iterations", iterations, 1)
    sets, x0, solution = make_toy_problem(config)
    rule = StoppingRule.exact_budget(budget)
    methods = []
    for label, factory in _method_lineup(preset, config.n_sets, omega, beta):
        strategies = [factory(seed) for seed in seeds]
        if strategies[0].deterministic:
            trace = run(sets, strategies[0], x0, rule, known_point=solution)
            traces = [trace, *(copy.deepcopy(trace) for _ in seeds[1:])]
        else:
            traces = run_lockstep(sets, strategies, x0, rule, known_point=solution)
        methods.append(MethodResult(label=label, traces=traces, seeds=list(seeds)))
    params = {"beta": beta}
    if omega is not None:  # an integer, which the band builder checked
        params["omega"] = int(omega)
    return PresetReport(
        preset=preset,
        config=config,
        iterations=budget,
        seeds=list(seeds),
        params=params,
        methods=methods,
    )
