"""Config parsing: validation with full error lists, emit round-trips."""
from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from memproj import (
    Ball,
    ConfigError,
    CustomProblem,
    ExperimentConfig,
    Hyperplane,
    Policy,
    StoppingRule,
    ToyProblem,
    emit_config,
    parse_config,
)
from memproj.config import (
    BandedBidirectionalSpec,
    BandedForwardSpec,
    DenseSpec,
    McpSpec,
    MrpSpec,
    PamSpec,
    PriorSpec,
)
from memproj.strategies import Cyclic, Memory, RandomizedCycles
from memproj.traceio import write_matrix_csv

TOY_PAM = {
    "problem": {"kind": "toy", "n_sets": 9, "r": 0.05},
    "strategy": {
        "kind": "pam",
        "matrix": {"kind": "dense", "scale": 1.0},
        "policy": {"kind": "min", "beta": 0.01},
        "seed": 7,
    },
    "stop": {"max_iterations": 315},
}


class TestParsing:
    def test_valid_toy_pam_config(self):
        cfg = parse_config(json.dumps(TOY_PAM))
        assert cfg.problem == ToyProblem(9, 0.05)
        assert cfg.strategy == PamSpec(DenseSpec(1.0), Policy("min", 0.01), seed=7)
        assert cfg.stop.max_iterations == 315
        assert cfg.effective_seeds() == (7,)

    def test_accepts_dict_input(self):
        cfg = parse_config(TOY_PAM)
        assert cfg.n_sets == 9

    def test_invalid_json_reported(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{nope")

    def test_beta_boundary_rejected_with_requirement(self):
        doc = json.loads(json.dumps(TOY_PAM))
        doc["strategy"]["policy"]["beta"] = 1.0
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        (msg,) = exc.value.errors
        assert msg.startswith("strategy.policy.beta")
        assert "(0, 1)" in msg

    def test_zero_normal_rejected_at_set_construction(self):
        doc = {
            "problem": {
                "kind": "custom",
                "sets": [
                    {"kind": "hyperplane", "normal": [0.0, 0.0], "offset": 0.0},
                    {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                ],
                "x0": [1.0, 1.0],
            },
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 10},
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert any(e.startswith("problem.sets[0]") and "nonzero" in e
                   for e in exc.value.errors)

    def test_all_errors_reported_not_just_first(self):
        doc = {
            "problem": {"kind": "toy", "n_sets": 1, "r": 0.05},
            "strategy": {
                "kind": "pam",
                "matrix": {"kind": "banded_forward"},  # omega missing
                "policy": {"kind": "median", "beta": 0.5},
                "seed": 0,
            },
            "stop": {"max_iterations": 0},
            "seeds": ["a"],
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        paths = {e.split(":")[0] for e in exc.value.errors}
        assert {"problem.n_sets", "strategy.matrix.omega",
                "strategy.policy.kind", "stop.max_iterations", "seeds"} <= paths

    def test_step_window_shorter_than_a_sweep_detected(self):
        doc = json.loads(json.dumps(TOY_PAM))
        doc["stop"]["step_window"] = 3
        doc["strategy"]["policy"]["beta"] = 1.5
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        paths = [e.split(":")[0] for e in exc.value.errors]
        assert "stop.step_window" in paths
        assert "strategy.policy.beta" in paths  # reported together
        assert any("full sweep" in e and "9" in e for e in exc.value.errors)

    @pytest.mark.parametrize("window", [9, 10, None])
    def test_step_window_covering_a_sweep_accepted(self, window):
        doc = json.loads(json.dumps(TOY_PAM))
        doc["stop"]["step_window"] = window
        assert parse_config(doc).stop.step_window == window

    def test_omega_out_of_range_detected(self):
        doc = json.loads(json.dumps(TOY_PAM))
        doc["strategy"]["matrix"] = {"kind": "banded_forward", "omega": 9}
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert any("strategy.matrix" in e and "omega" in e for e in exc.value.errors)

    def test_inadmissible_prior_matrix_detected(self, tmp_path):
        weights = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        write_matrix_csv(weights, tmp_path / "w.csv")
        doc = {
            "problem": {"kind": "toy", "n_sets": 3, "r": 0.5},
            "strategy": {
                "kind": "pam",
                "matrix": {"kind": "prior", "path": "w.csv"},
                "policy": {"kind": "average", "beta": 0.5},
                "seed": 1,
            },
            "stop": {"max_iterations": 10},
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(doc, base_dir=tmp_path)
        assert exc.value.errors == [
            "strategy.matrix: matrix is not admissible: no positive-entry chain "
            "from set 1 to set 0"
        ]

    def test_matrix_checked_without_building_a_generator(self):
        # a Memory's generator imports numpy.random, about 15 ms of a fresh
        # process's set-up; parsing makes Memory's check without one
        # (a NumPy that imports numpy.random eagerly leaves nothing to test)
        code = ("import json, sys, memproj; loaded = 'numpy.random' in sys.modules; "
                "memproj.parse_config(json.loads(sys.argv[1])); "
                "print(loaded, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(TOY_PAM)],
                              capture_output=True, text=True, check=True)
        loaded, after = proc.stdout.split()
        assert after == loaded

    def test_prior_matrix_size_mismatch_detected(self, tmp_path):
        write_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "w.csv")
        doc = {
            "problem": {"kind": "toy", "n_sets": 3, "r": 0.5},
            "strategy": {
                "kind": "pam",
                "matrix": {"kind": "prior", "path": "w.csv"},
                "policy": {"kind": "min", "beta": 0.5},
            },
            "stop": {"max_iterations": 10},
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(doc, base_dir=tmp_path)
        assert any("2x2" in e for e in exc.value.errors)

    def test_custom_dimension_mismatch_detected(self):
        doc = {
            "problem": {
                "kind": "custom",
                "sets": [
                    {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
                    {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
                ],
                "x0": [1.0, 1.0],
            },
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 10},
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert any("problem.sets[1]" in e and "dimension" in e
                   for e in exc.value.errors)

    def test_flags_validated(self):
        doc = json.loads(json.dumps(TOY_PAM))
        doc["flags"] = {"debug_asserts": "yes", "matrix_snapshot_interval": 0}
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        paths = {e.split(":")[0] for e in exc.value.errors}
        assert "flags.debug_asserts" in paths
        assert "flags.matrix_snapshot_interval" in paths


_CUSTOM = {
    "problem": {
        "kind": "custom",
        "sets": [
            {"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 0.0},
            {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
        ],
        "x0": [2.0, 2.0],
        "known_point": [0.0, 0.0],
    },
    "strategy": {"kind": "mcp"},
    "stop": {"max_iterations": 5},
}


def _with(base, path, value):
    """A deep copy of ``base`` with the dotted key ``path`` set to ``value``."""
    doc = json.loads(json.dumps(base))
    *parents, key = path.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value
    return doc


class TestNumbersAreNumbers:
    """A JSON boolean is not a number, and a number field takes no other value."""

    @pytest.mark.parametrize("path,value,message", [
        ("seeds", [True, False], "must be a list of integers"),
        ("stop.max_iterations", True, "must be an integer >= 1"),
        ("stop.step_window", True, "must be an integer >= 1 or null"),
        ("stop.step_tolerance", True, "must be a number > 0"),
        ("stop.residual_tolerance", True, "must be a number > 0"),
        ("problem.n_sets", True, "must be an integer >= 2"),
        ("problem.r", True, "must be a finite number > 0"),
        ("strategy.seed", True, "must be an integer"),
        ("strategy.matrix.scale", True, "must be a finite number > 0"),
        ("strategy.policy.beta", True,
         "an admissible policy requires beta in the open interval (0, 1)"),
        ("flags.matrix_snapshot_interval", True, "must be an integer >= 1 or null"),
    ])
    def test_boolean_rejected(self, path, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(TOY_PAM, path, value))
        assert exc.value.errors == [f"{path}: {message}"]

    @pytest.mark.parametrize("path,value,message", [
        ("seeds", [0, -1], "must be a list of integers >= 0"),
        ("strategy.seed", -1, "must be an integer >= 0"),
    ])
    def test_negative_seed_rejected(self, path, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(TOY_PAM, path, value))
        assert exc.value.errors == [f"{path}: {message}"]

    def test_boolean_bandwidth_rejected(self):
        doc = _with(TOY_PAM, "strategy.matrix", {"kind": "banded_forward", "omega": True})
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.errors == ["strategy.matrix.omega: must be an integer >= 1"]

    @pytest.mark.parametrize("path,value,message", [
        ("problem.x0", ["a", 1.0], "must be a nonempty list of numbers"),
        ("problem.x0", [True, 1.0], "must be a nonempty list of numbers"),
        ("problem.x0", [None, 1.0], "must be a nonempty list of numbers"),
        ("problem.known_point", [0.0, None], "must be a list of 2 numbers"),
        ("problem.known_point", [0.0, "0"], "must be a list of 2 numbers"),
        ("problem.known_point", [False, 0.0], "must be a list of 2 numbers"),
    ])
    def test_non_number_point_rejected(self, path, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(_CUSTOM, path, value))
        assert exc.value.errors == [f"{path}: {message}"]

    def test_integers_and_floats_still_accepted(self):
        doc = _with(_CUSTOM, "problem.x0", [2, 2.5])
        doc["problem"]["known_point"] = [0, 0.0]
        cfg = parse_config(doc)
        assert cfg.problem.x0 == (2.0, 2.5)
        assert cfg.problem.known_point == (0.0, 0.0)


class TestRoundTrip:
    CONFIGS = [
        ExperimentConfig(
            problem=ToyProblem(9, 0.05),
            strategy=PamSpec(DenseSpec(1.0), Policy("min", 0.01), seed=7),
            stop=StoppingRule(max_iterations=315),
            seeds=(0, 1, 2),
            output_dir="results",
        ),
        ExperimentConfig(
            problem=ToyProblem(5, 0.3),
            strategy=MrpSpec(seed=3),
            stop=StoppingRule(max_iterations=100, step_window=12,
                              step_tolerance=1e-10, residual_tolerance=1e-7),
            debug_asserts=True,
            store_iterates=True,
            matrix_snapshot_interval=10,
        ),
        ExperimentConfig(
            problem=CustomProblem(
                sets=(
                    Hyperplane([1.0, 0.5], 0.25),
                    Ball([0.0, 0.1], 2.0),
                ),
                x0=(3.0, -1.0),
                known_point=None,
            ),
            strategy=McpSpec(),
            stop=StoppingRule(max_iterations=50),
        ),
        ExperimentConfig(
            problem=ToyProblem(4, 0.7),
            strategy=PamSpec(
                BandedForwardSpec(omega=2, scale=0.125),
                Policy("average", 0.99),
            ),
            stop=StoppingRule(max_iterations=20),
            seeds=(5,),
        ),
        ExperimentConfig(
            problem=ToyProblem(9, 0.05),
            strategy=PamSpec(
                BandedBidirectionalSpec(omega=3, scale=2.0),
                Policy("min", 0.5),
                seed=11,
            ),
            stop=StoppingRule(max_iterations=40),
        ),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_parse_emit_round_trip(self, config):
        text = emit_config(config)
        assert parse_config(text) == config

    def test_prior_round_trip_keeps_path(self, tmp_path):
        write_matrix_csv(np.array([[0.0, 2.0], [1.0, 0.0]]), tmp_path / "w.csv")
        doc = {
            "problem": {"kind": "toy", "n_sets": 2, "r": 0.5},
            "strategy": {
                "kind": "pam",
                "matrix": {"kind": "prior", "path": "w.csv"},
                "policy": {"kind": "min", "beta": 0.5},
                "seed": 0,
            },
            "stop": {"max_iterations": 10},
        }
        cfg = parse_config(doc, base_dir=tmp_path)
        assert isinstance(cfg.strategy.matrix, PriorSpec)
        again = parse_config(emit_config(cfg), base_dir=tmp_path)
        assert again == cfg
        assert again.strategy.matrix.path == "w.csv"

    def test_float_values_survive_bitwise(self):
        cfg = ExperimentConfig(
            problem=ToyProblem(3, 0.1 + 2e-17),
            strategy=MrpSpec(seed=1),
            stop=StoppingRule(max_iterations=9, step_tolerance=1 / 3),
        )
        back = parse_config(emit_config(cfg))
        assert back.problem.r == cfg.problem.r
        assert back.stop.step_tolerance == cfg.stop.step_tolerance


class TestBuilding:
    def test_build_problem_and_strategies(self):
        cfg = parse_config(TOY_PAM)
        sets, x0, known = cfg.build_problem()
        assert len(sets) == 9 and x0.shape == (3,)
        np.testing.assert_array_equal(known, np.zeros(3))
        strat = cfg.build_strategy(seed=3)
        assert isinstance(strat, Memory)
        assert strat.n_sets == 9

    def test_build_mcp_and_mrp(self):
        cfg = parse_config({
            "problem": {"kind": "toy"},
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 5},
        })
        assert isinstance(cfg.build_strategy(), Cyclic)
        cfg = parse_config({
            "problem": {"kind": "toy"},
            "strategy": {"kind": "mrp", "seed": 2},
            "stop": {"max_iterations": 5},
        })
        assert isinstance(cfg.build_strategy(), RandomizedCycles)

    def test_effective_seeds_fallbacks(self):
        cfg = parse_config({
            "problem": {"kind": "toy"},
            "strategy": {"kind": "mrp", "seed": 5},
            "stop": {"max_iterations": 5},
        })
        assert cfg.effective_seeds() == (5,)
        cfg = parse_config({
            "problem": {"kind": "toy"},
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 5},
        })
        assert cfg.effective_seeds() == (0,)
        cfg = parse_config({
            "problem": {"kind": "toy"},
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 5},
            "seeds": [4, 5],
        })
        assert cfg.effective_seeds() == (4, 5)

    def test_custom_problem_build(self):
        cfg = parse_config({
            "problem": {
                "kind": "custom",
                "sets": [
                    {"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 0.0},
                    {"kind": "halfspace", "normal": [0.0, 1.0], "offset": 1.0},
                ],
                "x0": [2.0, 2.0],
                "known_point": [0.0, 0.0],
            },
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 10},
        })
        sets, x0, known = cfg.build_problem()
        assert sets[0] == Hyperplane([1.0, 0.0], 0.0)
        np.testing.assert_array_equal(known, [0.0, 0.0])
