"""Config parsing: validation with full error lists, emit round-trips."""
from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from memproj import (
    AffineSubspace,
    Ball,
    Box,
    ConfigError,
    CustomProblem,
    ExperimentConfig,
    Halfspace,
    Hyperplane,
    LineThroughOrigin,
    Policy,
    StoppingRule,
    ToyProblem,
    emit_config,
    parse_config,
    run,
    traceio,
)
from memproj.cli import execute_config
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
from memproj.traceio import write_matrix_csv, write_trace_csv

from conftest import subprocess_env

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

    def test_parallel_toy_lines_detected(self):
        # at r = 1e-9 the nine directions agree to 1e-12 in angle
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(TOY_PAM, "problem.r", 1e-9))
        assert exc.value.errors == [
            "problem: lines 0 and 1 are parallel; their intersection is not a single point"]

    def test_huge_toy_fan_is_checked_without_an_n_by_n_matrix(self):
        doc = {"problem": {"kind": "toy", "n_sets": 10**5, "r": 1.0},
               "strategy": {"kind": "mcp"}, "stop": {"max_iterations": 10}}
        assert parse_config(doc).problem.n_sets == 10**5
        doc["problem"]["n_sets"] = 10**12
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.errors == [
            "problem.n_sets: must be at most 2300000; neighbouring lines of a larger "
            "fan are parallel at every r"]

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
                              capture_output=True, text=True, check=True, env=subprocess_env())
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigError as exc:
        return exc.errors


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

    def test_null_tolerance(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(TOY_PAM, "stop.step_tolerance", None))
        assert exc.value.errors == ["stop.step_tolerance: must be a number > 0"]
        cfg = parse_config(_with(TOY_PAM, "stop.residual_tolerance", None))
        assert cfg.stop.residual_tolerance is None

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

    @pytest.mark.parametrize("descriptor,message", [
        ({"kind": "ball", "center": [0, 0], "radius": True}, "radius must be a number"),
        ({"kind": "ball", "center": [0, 0], "radius": "1"}, "radius must be a number"),
        ({"kind": "ball", "center": ["0", 0], "radius": 1}, "center must be a list of numbers"),
        ({"kind": "hyperplane", "normal": [True, 0], "offset": 0},
         "normal must be a list of numbers"),
        ({"kind": "hyperplane", "normal": [1, 0], "offset": False}, "offset must be a number"),
        ({"kind": "halfspace", "normal": [1, 0], "offset": None}, "offset must be a number"),
        ({"kind": "box", "lower": [0, 0], "upper": [1, None]}, "upper must be a list of numbers"),
        ({"kind": "line", "direction": 1.0}, "direction must be a list of numbers"),
        ({"kind": "affine", "basepoint": [0, 0], "basis": [[1, True]]},
         "basis must be a list of lists of numbers"),
        ({"kind": "affine", "basepoint": [0, 0], "basis": [1, 0]},
         "basis must be a list of lists of numbers"),
        ({"kind": "affine", "basepoint": [0, 0], "basis": [[1, 0], [0]]},
         "basis must be a list of lists of numbers of one length"),
        ("ball", "must be an object"),
        ({"kind": ["ball"]}, "unknown set kind ['ball']; choose one of ('hyperplane', "
         "'halfspace', 'ball', 'box', 'line', 'affine')"),
    ])
    def test_non_number_set_parameter_rejected(self, descriptor, message):
        doc = _with(_CUSTOM, "problem.sets", [descriptor, _CUSTOM["problem"]["sets"][1]])
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.errors == [f"problem.sets[0]: {message}"]

    @pytest.mark.parametrize("descriptor,missing,message", [
        ({"kind": "hyperplane", "normal": [1, 0], "offset": 0}, "normal", "a list of numbers"),
        ({"kind": "hyperplane", "normal": [1, 0], "offset": 0}, "offset", "a number"),
        ({"kind": "halfspace", "normal": [1, 0], "offset": 0}, "normal", "a list of numbers"),
        ({"kind": "halfspace", "normal": [1, 0], "offset": 0}, "offset", "a number"),
        ({"kind": "ball", "center": [0, 0], "radius": 1}, "center", "a list of numbers"),
        ({"kind": "ball", "center": [0, 0], "radius": 1}, "radius", "a number"),
        ({"kind": "box", "lower": [0, 0], "upper": [1, 1]}, "lower", "a list of numbers"),
        ({"kind": "box", "lower": [0, 0], "upper": [1, 1]}, "upper", "a list of numbers"),
        ({"kind": "line", "direction": [1, 0]}, "direction", "a list of numbers"),
        ({"kind": "affine", "basepoint": [0, 0], "basis": [[1, 0]]}, "basepoint",
         "a list of numbers"),
        ({"kind": "affine", "basepoint": [0, 0], "basis": [[1, 0]]}, "basis",
         "a list of lists of numbers"),
    ])
    def test_missing_set_parameter_rejected(self, descriptor, missing, message):
        # it once read as a bare KeyError: "problem.sets[0]: 'normal'"
        complete = _with(_CUSTOM, "problem.sets", [descriptor, _CUSTOM["problem"]["sets"][1]])
        parse_config(complete)
        doc = json.loads(json.dumps(complete))
        del doc["problem"]["sets"][0][missing]
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.errors == [f"problem.sets[0]: {missing} must be {message}"]

    @pytest.mark.parametrize("path,value", [
        ("problem.x0", [math.inf, 1.0]),
        ("problem.x0", [1.0, math.nan]),
        ("problem.x0", [-(10**400), 1.0]),
        ("problem.known_point", [0.0, -math.inf]),
        ("problem.known_point", [10**400, 0.0]),
    ])
    def test_non_finite_point_rejected(self, path, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(_CUSTOM, path, value))
        assert exc.value.errors == [f"{path}: must have finite entries"]

    def test_overflowing_json_number_rejected(self):
        # JSON 1e400 reads as inf
        text = json.dumps(_with(_CUSTOM, "problem.x0", [2.0, "BIG"])).replace('"BIG"', "1e400")
        text = text.replace('"known_point": [0.0, 0.0]', '"known_point": [1e400, 0.0]')
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.errors == ["problem.x0: must have finite entries",
                                    "problem.known_point: must have finite entries"]

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("base,path,value", [
        (TOY_PAM, "problem.r", "BIG"),
        (TOY_PAM, "strategy.matrix.scale", "BIG"),
        (TOY_PAM, "strategy.policy.beta", "BIG"),
        (TOY_PAM, "stop.step_tolerance", "BIG"),
        (TOY_PAM, "stop.residual_tolerance", "BIG"),
        (_CUSTOM, "problem.x0", [2.0, "BIG"]),
        (_CUSTOM, "problem.known_point", ["BIG", 0.0]),
        *((_CUSTOM, "problem.sets", [d, {"kind": "line", "direction": [1, 1]}]) for d in [
            {"kind": "hyperplane", "normal": [1, 0], "offset": "BIG"},
            {"kind": "halfspace", "normal": [1, "BIG"], "offset": 0},
            {"kind": "ball", "center": [0, 0], "radius": "BIG"},
            {"kind": "ball", "center": ["BIG", 0], "radius": 1},
            {"kind": "box", "lower": [0, 0], "upper": [1, "BIG"]},
            {"kind": "line", "direction": ["BIG", 0]},
            {"kind": "affine", "basepoint": [0, "BIG"], "basis": [[1, 0]]},
            {"kind": "affine", "basepoint": [0, 0], "basis": [[1, "BIG"]]},
        ]),
    ])
    def test_huge_integer_reads_as_json_overflow(self, base, path, value, sign):
        # an integer beyond the float range is what JSON 1e400 is: infinity
        text = json.dumps(_with(base, path, value))
        as_int = json.loads(text.replace('"BIG"', sign + str(10**400)))
        as_float = text.replace('"BIG"', sign + "1e400")
        assert _outcome(parse_config, as_int) == _outcome(parse_config, as_float)

    def test_integers_and_floats_still_accepted(self):
        doc = _with(_CUSTOM, "problem.x0", [2, 2.5])
        doc["problem"]["known_point"] = [0, 0.0]
        cfg = parse_config(doc)
        assert cfg.problem.x0 == (2.0, 2.5)
        assert cfg.problem.known_point == (0.0, 0.0)


_FULL_TOY_PAM = {
    "problem": {"kind": "toy", "n_sets": 9, "r": 0.05},
    "strategy": {
        "kind": "pam",
        "matrix": {"kind": "banded_forward", "omega": 2, "scale": 1.0},
        "policy": {"kind": "average", "beta": 0.5},
        "seed": 7,
    },
    "stop": {"max_iterations": 50, "step_window": 18, "step_tolerance": 1e-12,
             "residual_tolerance": 1e-9},
    "seeds": [0, 1],
    "output_dir": "out",
    "flags": {"debug_asserts": True, "store_iterates": False,
              "matrix_snapshot_interval": 5},
}
_FULL_CUSTOM = _with(_CUSTOM, "problem.sets", [
    {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
    {"kind": "hyperplane", "normal": [1.0, 1.0], "offset": 0.0},
    {"kind": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    {"kind": "affine", "basepoint": [0.0, 0.0], "basis": [[1.0, -1.0]]},
])


def _key_paths(node, path=()):
    """Every key of a JSON document, list positions included, as key tuples."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, path + (key,))


@pytest.mark.parametrize("base", [_FULL_TOY_PAM, _FULL_CUSTOM], ids=["toy-pam", "custom"])
def test_parse_config_raises_nothing_but_config_error(base):
    escaped = []
    for path in _key_paths(base):
        for value in (None, True, "x", [], {}, 10**400, -(10**400), math.nan, math.inf):
            doc = json.loads(json.dumps(base))
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                parse_config(doc)
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 -- any other type is the finding
                escaped.append((path, value, type(exc).__name__))
    assert escaped == []


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
        ExperimentConfig(  # every set family, each described under its own kind
            problem=CustomProblem(
                sets=(
                    Hyperplane([1.0, 0.5, 0.0], 0.25),
                    Halfspace([1.0, 0.5, 0.0], 0.25),
                    Ball([0.0, 0.1, 0.0], 2.0),
                    Box([-1.0, -2.0, -3.0], [1.0, 2.0, 3.0]),
                    LineThroughOrigin([0.0, 1.0, 1.0]),
                    AffineSubspace([1.0, 0.0, 0.0], [[0.0, 0.6, 0.8]]),
                ),
                x0=(3.0, -1.0, 2.0),
                known_point=(0.0, 0.0, 0.0),
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

    def test_prior_is_read_once_for_every_seed(self, tmp_path, monkeypatch):
        write_matrix_csv(np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [3.0, 1.0, 0.0]]),
                         tmp_path / "w.csv")
        doc = {
            "problem": {"kind": "toy", "n_sets": 3, "r": 0.5},
            "strategy": {"kind": "pam", "matrix": {"kind": "prior", "path": "w.csv"},
                         "policy": {"kind": "average", "beta": 0.5}},
            "stop": {"max_iterations": 50},
            "seeds": [0, 1, 2],
        }
        cfg = parse_config(doc, base_dir=tmp_path)
        reads = []
        read = traceio.read_matrix_csv
        monkeypatch.setattr(traceio, "read_matrix_csv", lambda p: reads.append(p) or read(p))
        execute_config(cfg, tmp_path / "out")
        assert len(reads) <= 1
        # every seed runs from the matrix as read, as if each had read it
        sets, x0, known = cfg.build_problem()
        for seed in doc["seeds"]:
            trace = run(sets, cfg.build_strategy(seed), x0, cfg.stop, known_point=known)
            write_trace_csv(trace, tmp_path / "alone.csv")
            assert (tmp_path / "out" / f"trace_seed{seed}.csv").read_bytes() == (
                tmp_path / "alone.csv").read_bytes()

    def test_replaced_matrix_is_the_one_run(self, tmp_path):
        cfg = parse_config({**TOY_PAM, "seeds": [0, 1]})
        other = replace(cfg, strategy=replace(cfg.strategy, matrix=BandedForwardSpec(2)))
        execute_config(cfg, tmp_path / "dense")
        execute_config(other, tmp_path / "replaced")
        execute_config(parse_config(emit_config(other)), tmp_path / "parsed")
        for seed in (0, 1):
            name = f"trace_seed{seed}.csv"
            replaced = (tmp_path / "replaced" / name).read_bytes()
            assert replaced == (tmp_path / "parsed" / name).read_bytes()
            assert replaced != (tmp_path / "dense" / name).read_bytes()

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
