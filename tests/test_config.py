"""Config parsing: validation with full error lists, emit round-trips."""
from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _BuiltSpec,
    set_to_descriptor,
)
from memproj.strategies import Cyclic, Memory, RandomizedCycles
from memproj.traceio import write_matrix_csv, write_trace_csv

from conftest import SET_FAMILIES, sample_set, subprocess_env

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

    @pytest.mark.parametrize("source", ["[1, 2]", "null", '"toy"', [TOY_PAM], None])
    def test_non_object_document_rejected(self, source):
        with pytest.raises(ConfigError) as exc:
            parse_config(source)
        assert exc.value.errors == ["(document): top level must be an object"]

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
        assert exc.value.errors == [
            "strategy.matrix.omega: must be smaller than the number of sets"]

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

    def test_matrix_checked_without_building_a_generator(self, tmp_path):
        # a Memory's generator imports numpy.random, about 15 ms of a fresh
        # process's set-up; parsing makes Memory's check on a prior without one
        # (a NumPy that imports numpy.random eagerly leaves nothing to test)
        write_matrix_csv(np.ones((9, 9)) - np.eye(9), tmp_path / "w.csv")
        doc = _with(TOY_PAM, "strategy.matrix", {"kind": "prior", "path": str(tmp_path / "w.csv")})
        code = ("import json, sys, memproj; loaded = 'numpy.random' in sys.modules; "
                "memproj.parse_config(json.loads(sys.argv[1])); "
                "print(loaded, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(doc)],
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

    def test_custom_point_and_set_count_checked_by_their_owner(self):
        one_set = _with(_CUSTOM, "problem.sets", _CUSTOM["problem"]["sets"][:1])
        assert _outcome(parse_config, one_set) == ["problem.sets: must hold at least 2 sets"]
        assert _outcome(parse_config, _with(_CUSTOM, "problem.sets", "ball")) == [
            "problem.sets: must be a list of set descriptors"]
        assert _outcome(parse_config, _with(_CUSTOM, "problem.x0", [])) == [
            "problem.x0: must be a 1-D vector with at least one entry"]
        assert _outcome(parse_config, _with(_CUSTOM, "problem.known_point", [0.0])) == [
            "problem.known_point: must have 2 entries, as x0 has"]

    def test_pam_with_a_bad_matrix_still_reports_a_bad_seed(self):
        doc = _with(TOY_PAM, "strategy.matrix", {"kind": "banded_forward", "omega": 0})
        assert _outcome(parse_config, _with(doc, "strategy.seed", -1)) == [
            "strategy.matrix.omega: must be at least 1", "strategy.seed: must be at least 0"]

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


def _as_raised(error: str) -> str:
    """A ``parse_config`` error as its owner raised it: ``<path>.<name>: must ...``
    reads ``<name> must ...``, and ``<path>: <message>`` reads ``<message>``."""
    path, _, message = error.partition(": ")
    return f"{path.rpartition('.')[2]} {message}" if message.startswith("must ") else message


def _document(problem, strategy, stop, **kwargs):
    """The document ``emit_config`` writes of these parts, whether or not they
    make an ``ExperimentConfig``."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}
    return ExperimentConfig.to_dict(SimpleNamespace(
        **{**defaults, **kwargs}, problem=problem, strategy=strategy, stop=stop))


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
        ("seeds", [True, False], "must be an integer, not True"),
        ("stop.max_iterations", True, "must be an integer, not True"),
        ("stop.step_window", True, "must be an integer, not True"),
        ("stop.step_tolerance", True, "must be a number, not True"),
        ("stop.residual_tolerance", True, "must be a number, not True"),
        ("problem.n_sets", True, "must be an integer, not True"),
        ("problem.r", True, "must be a number, not True"),
        ("strategy.seed", True, "must be an integer, not True"),
        ("strategy.matrix.scale", True, "must be a number, not True"),
        ("strategy.policy.beta", True, "must be a number, not True"),
        ("flags.matrix_snapshot_interval", True, "must be an integer, not True"),
    ])
    def test_boolean_rejected(self, path, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(TOY_PAM, path, value))
        assert exc.value.errors == [f"{path}: {message}"]

    def test_null_tolerance(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(TOY_PAM, "stop.step_tolerance", None))
        assert exc.value.errors == ["stop.step_tolerance: must be a number, not None"]
        cfg = parse_config(_with(TOY_PAM, "stop.residual_tolerance", None))
        assert cfg.stop.residual_tolerance is None

    @pytest.mark.parametrize("path,value,message", [
        ("seeds", [0, -1], "must be at least 0"),
        ("strategy.seed", -1, "must be at least 0"),
    ])
    def test_negative_seed_rejected(self, path, value, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with(TOY_PAM, path, value))
        assert exc.value.errors == [f"{path}: {message}"]

    def test_boolean_bandwidth_rejected(self):
        doc = _with(TOY_PAM, "strategy.matrix", {"kind": "banded_forward", "omega": True})
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.errors == ["strategy.matrix.omega: must be an integer, not True"]

    def test_numpy_integers_read_as_python_ints(self):
        # a dict config may carry NumPy integers, which the library takes too
        doc = {
            "problem": {"kind": "toy", "n_sets": np.int64(9), "r": 0.05},
            "strategy": {"kind": "pam", "seed": np.int64(7),
                         "matrix": {"kind": "banded_forward", "omega": np.int64(2)},
                         "policy": {"kind": "min", "beta": 0.01}},
            "stop": {"max_iterations": np.int64(315), "step_window": np.int64(18)},
            "seeds": [np.int64(0), np.int64(3)],
            "flags": {"matrix_snapshot_interval": np.int64(10)},
        }
        cfg = parse_config(doc)
        assert cfg == ExperimentConfig(
            problem=ToyProblem(9, 0.05),
            strategy=PamSpec(BandedForwardSpec(2), Policy("min", 0.01), seed=7),
            stop=StoppingRule(max_iterations=315, step_window=18),
            seeds=(0, 3),
            matrix_snapshot_interval=10,
        )
        ints = [cfg.problem.n_sets, cfg.strategy.seed, cfg.strategy.matrix.omega,
                cfg.stop.max_iterations, cfg.stop.step_window, *cfg.seeds,
                cfg.matrix_snapshot_interval]
        assert all(type(v) is int for v in ints)
        assert parse_config(emit_config(cfg)) == cfg

    def test_numpy_integers_built_in_code_emit_as_python_ints(self):
        # a spec built in code once kept np.int64, which emit_config cannot encode
        i = np.int64
        stop = StoppingRule(max_iterations=i(50), step_window=i(18))
        for matrix in (BandedForwardSpec(i(2)), BandedBidirectionalSpec(i(3), 0.5)):
            for strategy in (PamSpec(matrix, Policy("min", 0.5), seed=i(7)), MrpSpec(seed=i(4))):
                cfg = ExperimentConfig(ToyProblem(i(9), 0.05), strategy, stop,
                                       seeds=(i(0), i(3)), matrix_snapshot_interval=i(5))
                ints = [cfg.problem.n_sets, cfg.strategy.seed, cfg.stop.max_iterations,
                        cfg.stop.step_window, *cfg.seeds, cfg.matrix_snapshot_interval]
                if isinstance(strategy, PamSpec):
                    ints.append(cfg.strategy.matrix.omega)
                assert all(type(v) is int for v in ints)
                assert parse_config(emit_config(cfg)) == cfg

    @pytest.mark.parametrize("base,path,value,kind", [
        (base, path, value, kind)
        for base, path, value in [
            (TOY_PAM, "problem.r", 2),
            (TOY_PAM, "strategy.matrix.scale", 2),
            (TOY_PAM, "strategy.policy.beta", 0.5),
            (TOY_PAM, "stop.step_tolerance", 2),
            (TOY_PAM, "stop.residual_tolerance", 2),
            (_CUSTOM, "problem.x0", [2, 3]),
            (_CUSTOM, "problem.known_point", [0, 0]),
            (_CUSTOM, "problem.sets", [{"kind": "ball", "center": [0, 1], "radius": 5},
                                       {"kind": "affine", "basepoint": [0, 0],
                                        "basis": [[1, 1]]}]),
        ]
        for kind in (np.float32, np.float64, np.int64, np.bool_)
        if not (kind is np.int64 and path == "strategy.policy.beta")  # no integer is in (0, 1)
    ])
    def test_numpy_reals_read_as_python_floats(self, base, path, value, kind):
        # a dict config may carry NumPy reals, which the library takes too; each
        # reads as the Python number it holds, and np.bool_ as the bool it holds
        def numbers(v, as_):
            if isinstance(v, dict):
                return {k: numbers(x, as_) for k, x in v.items()}
            if isinstance(v, list):
                return [numbers(x, as_) for x in v]
            return v if isinstance(v, str) else as_(v)

        got = _outcome(parse_config, _with(base, path, numbers(value, kind)))
        held = numbers(value, lambda v: kind(v).item())
        assert got == _outcome(parse_config, _with(base, path, held))
        if kind is np.bool_:
            assert isinstance(got, list)  # rejected as True is
            return
        assert isinstance(got, ExperimentConfig)
        assert parse_config(emit_config(got)) == got
        echo, types = got.to_dict(), set()
        for key in path.split("."):
            echo = echo[key]
        numbers(echo, lambda v: types.add(type(v)))
        assert types == {float}

    @pytest.mark.parametrize("path,value,message", [
        ("problem.x0", ["a", 1.0], "must be a list of numbers"),
        ("problem.x0", [True, 1.0], "must be a list of numbers"),
        ("problem.x0", [None, 1.0], "must be a list of numbers"),
        ("problem.known_point", [0.0, None], "must be a list of numbers"),
        ("problem.known_point", [0.0, "0"], "must be a list of numbers"),
        ("problem.known_point", [False, 0.0], "must be a list of numbers"),
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
        for value in (None, True, "x", [], {}, {"extra": 1}, 10**400, -(10**400), math.nan,
                      math.inf, np.array(["toy", "x"]), np.array([1.0, 2.0])):
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


_TWO_BALLS = (Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0], 2.0))


class TestSpecsBuiltInCode:
    """A spec built in code rejects what parse_config rejects, and its message
    ``<name> must ...`` is the one parse_config reports as ``<path>.<name>: must ...``."""

    @pytest.mark.parametrize("sets,x0,known_point", [
        # an x0, a set and a known point at fault at once; it once built, and
        # parse_config rejected the config that emit_config wrote of it
        ((Ball([0, 0], 1), Ball([0, 0, 0], 1)), (math.inf, 1.0), (0.0,)),
        ((Ball([0, 0], 1), Ball([0, 0, 0], 1)), (1.0, 1.0), None),
        (_TWO_BALLS[:1], (1.0, 1.0), None),
        (_TWO_BALLS, (), None),
        (_TWO_BALLS, (1.0, math.nan), None),
        (_TWO_BALLS, (1.0, 1.0), (0.0,)),
        (_TWO_BALLS, (1.0, 1.0), (0.0, -math.inf)),
    ])
    def test_custom_problem(self, sets, x0, known_point):
        with pytest.raises(ValueError) as exc:
            CustomProblem(sets, x0, known_point)
        name, _, rest = str(exc.value).partition(" must ")
        doc = _with(_CUSTOM, "problem.sets", [set_to_descriptor(s) for s in sets])
        doc["problem"].update(x0=list(x0), known_point=known_point and list(known_point))
        assert _outcome(parse_config, doc) == [f"problem.{name}: must {rest}"]

    @pytest.mark.parametrize("path", [None, "", 3, ["w.csv"]])
    def test_prior_path(self, path):
        with pytest.raises(ValueError) as exc:
            PriorSpec(path)
        assert str(exc.value) == "path must be a nonempty string"
        doc = _with(TOY_PAM, "strategy.matrix", {"kind": "prior", "path": path})
        assert _outcome(parse_config, doc) == ["strategy.matrix.path: must be a nonempty string"]

    def test_custom_points_kept_as_tuples_of_floats(self):
        problem = CustomProblem(list(_TWO_BALLS), np.array([1, 2]), [np.float32(0.5), 0])
        assert problem == CustomProblem(_TWO_BALLS, (1.0, 2.0), (0.5, 0.0))
        assert [type(v) for v in (*problem.x0, *problem.known_point)] == [float] * 4
        assert type(problem.sets) is tuple

    @pytest.mark.parametrize("parts,errors", [
        # it once built, and parse_config rejected what emit_config wrote of it
        ((ToyProblem(9, 0.05), PamSpec(BandedForwardSpec(9), Policy("min", 0.5)),
          StoppingRule(10, step_window=3)),
         ["strategy.matrix.omega: must be smaller than the number of sets",
          "stop.step_window: must cover at least one full sweep (>= N = 9)"]),
        ((ToyProblem(9), McpSpec(), StoppingRule(10, step_window=3)),
         ["stop.step_window: must cover at least one full sweep (>= N = 9)"]),
        ((ToyProblem(3, 1e-9), McpSpec(), StoppingRule(10)),
         ["problem: lines 0 and 1 are parallel; their intersection is not a single point"]),
    ])
    def test_rules_between_parts(self, parts, errors):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(*parts)
        assert _outcome(parse_config, _document(*parts)) == errors
        assert str(exc.value) == _as_raised(errors[0])

    @pytest.mark.parametrize("text,message", [
        ("0,1\n1,0\n", "weights matrix is 2x2, problem has 3 sets"),
        ("0,1,1\n0,0,0\n1,0,0\n",
         "matrix is not admissible: no positive-entry chain from set 1 to set 0"),
        ("0,1,1\n1,0\n1,1,0\n", "{path}: line 2: 2 entries, not 3"),
        ("0,1,1\n1,0,1,\n1,1,0\n", "{path}: line 2: could not convert string to float: ''"),
    ])
    def test_prior_checked_where_its_strategy_is_built(self, tmp_path, text, message):
        # a prior's file is read by strategy_builder, never by building a config
        (tmp_path / "w.csv").write_text(text)
        message = message.format(path=tmp_path / "w.csv")
        config = ExperimentConfig(ToyProblem(3, 0.5), PamSpec(
            PriorSpec("w.csv", base_dir=str(tmp_path)), Policy("min", 0.01)), StoppingRule(9))
        with pytest.raises(ValueError) as exc:
            config.strategy_builder()
        assert str(exc.value) == message
        assert _outcome(parse_config, _document(config.problem, config.strategy, config.stop),
                        tmp_path) == [f"strategy.matrix: {message}"]

    def test_prior_checked_beside_parallel_toy_lines(self, tmp_path):
        # the prior is read wherever the problem parsed; it once hid behind the lines
        (tmp_path / "w.csv").write_text("0,1\n1,0\n")
        doc = _document(ToyProblem(9, 1e-9), PamSpec(PriorSpec("w.csv"), Policy("min", 0.01)),
                        StoppingRule(9))
        assert _outcome(parse_config, doc, tmp_path) == [
            "problem: lines 0 and 1 are parallel; their intersection is not a single point",
            "strategy.matrix: weights matrix is 2x2, problem has 9 sets"]

    @pytest.mark.parametrize("name,value,error", [
        ("debug_asserts", 1, "flags.debug_asserts: must be true or false"),
        ("store_iterates", "no", "flags.store_iterates: must be true or false"),
        ("output_dir", 5, "output_dir: must be a string or null"),
    ])
    def test_flags_and_output_dir_checked_where_built(self, name, value, error):
        # each once built, and parse_config rejected what emit_config wrote of it
        parts = ToyProblem(9), McpSpec(), StoppingRule(10)
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(*parts, **{name: value})
        assert str(exc.value) == _as_raised(error)
        assert _outcome(parse_config, _document(*parts, **{name: value})) == [error]

    def test_numpy_flags_kept_as_bools(self):
        config = ExperimentConfig(ToyProblem(9), McpSpec(), StoppingRule(10),
                                  debug_asserts=np.True_, store_iterates=np.False_)
        assert (type(config.debug_asserts), type(config.store_iterates)) == (bool, bool)
        assert parse_config(emit_config(config)) == config  # emit_config once raised TypeError

    def test_parse_config_builds_no_band_or_dense_matrix(self, monkeypatch):
        # each holds the +1 cycle, so it is admissible unbuilt; parsing a dense
        # config once allocated N x N floats
        def build(spec, n_sets):
            raise AssertionError(f"{spec.kind} built")

        monkeypatch.setattr(_BuiltSpec, "build", build)
        for matrix in ({"kind": "dense"}, {"kind": "banded_forward", "omega": 8},
                       {"kind": "banded_bidirectional", "omega": 1, "scale": 2.0}):
            config = parse_config(_with(TOY_PAM, "strategy.matrix", matrix))
            with pytest.raises(AssertionError, match=f"{matrix['kind']} built"):
                config.strategy_builder()  # the build a run makes


def _int(v, numpy):
    return np.int64(v) if numpy else int(v)


def _drawn_config(base_dir, seed, custom, strategy, matrix, numpy):
    """The parts and keyword arguments of a config drawn from ``seed``: NumPy or
    Python numbers and bools, points as lists, tuples or arrays, every set
    family, every strategy and matrix, values that break the rules between
    parts (omega up to N + 2, a window below N, parallel toy lines, a prior of
    another size or an inadmissible one), each part good on its own, and now
    and then an output_dir or a flag of another type."""
    rng = np.random.default_rng(seed)
    if custom:
        dim, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        point = rng.uniform(-5, 5, dim)
        as_ = [list, tuple, np.asarray][int(rng.integers(3))]
        problem = CustomProblem(
            [sample_set(rng, SET_FAMILIES[int(rng.integers(6))], dim) for _ in range(n)],
            as_(point), None if rng.random() < 0.5 else as_(point / 2))
    else:
        n = int(rng.integers(2, 30))
        r = rng.uniform(0.05, 2.0) if rng.random() < 0.8 else 10 ** rng.uniform(-10, -3)
        problem = ToyProblem(_int(n, numpy), float(r))
    seed_of = None if rng.random() < 0.3 else _int(rng.integers(0, 2**31), numpy)
    if strategy == "mcp":
        spec = McpSpec()
    elif strategy == "mrp":
        spec = MrpSpec(seed=seed_of)
    else:
        scale = float(rng.uniform(0.1, 4.0))
        omega = _int(rng.integers(1, n + 3), numpy)
        side = n if rng.random() < 0.7 else max(2, n + int(rng.choice([-1, 1])))
        weights = rng.uniform(0.5, 2.0, (side, side)) * (1 - np.eye(side))
        weights[0] *= rng.random() < 0.85  # a row of zeros reaches no other set
        write_matrix_csv(weights, base_dir / "w.csv")
        spec = PamSpec({"dense": DenseSpec(scale),
                        "banded_forward": BandedForwardSpec(omega, scale),
                        "banded_bidirectional": BandedBidirectionalSpec(omega, scale),
                        "prior": PriorSpec("w.csv", base_dir=str(base_dir))}[matrix],
                       Policy(["min", "average"][int(rng.integers(2))],
                              float(rng.uniform(0.01, 0.99))), seed=seed_of)
    window = None if rng.random() < 0.5 else _int(max(1, n + rng.integers(-3, 5)), numpy)
    stop = StoppingRule(_int(rng.integers(1, 500), numpy), window,
                        float(rng.uniform(1e-14, 1e-6)),
                        None if rng.random() < 0.5 else float(rng.uniform(1e-12, 1e-3)))
    wrong = rng.random(3) < 0.1  # an output_dir or a flag of another type

    def flag(bad):
        return [1, "no", None][int(rng.integers(3))] if bad else (
            np.bool_ if numpy else bool)(rng.random() < 0.5)

    return (problem, spec, stop), dict(
        seeds=tuple(_int(s, numpy) for s in rng.integers(0, 100, int(rng.integers(0, 4)))),
        output_dir=5 if wrong[0] else None if rng.random() < 0.5 else "out",
        debug_asserts=flag(wrong[1]), store_iterates=flag(wrong[2]),
        matrix_snapshot_interval=None if rng.random() < 0.5 else _int(rng.integers(1, 9), numpy))


def _found_config(base_dir):
    """A config that once built, and whose emitted form parse_config rejected."""
    return (ToyProblem(9, 0.05), PamSpec(BandedForwardSpec(9), Policy("min", 0.5)),
            StoppingRule(10, step_window=3)), {}


@settings(max_examples=60, deadline=None)
@given(make=st.builds(partial, st.just(_drawn_config), seed=st.integers(0, 2**32 - 1),
                      custom=st.booleans(), strategy=st.sampled_from(["mcp", "mrp", "pam"]),
                      matrix=st.sampled_from(["dense", "banded_forward",
                                              "banded_bidirectional", "prior"]),
                      numpy=st.booleans()))
@example(make=_found_config)
def test_emitted_config_parses_back_equal(tmp_path_factory, make):
    # a config built in code either fails to build, with a message that
    # parse_config reports for its document, or parses back equal
    base_dir = tmp_path_factory.mktemp("prior")
    parts, kwargs = make(base_dir)
    try:
        config = ExperimentConfig(*parts, **kwargs)
        config.strategy_builder()
    except ValueError as exc:
        with pytest.raises(ConfigError) as parsed:
            parse_config(_document(*parts, **kwargs), base_dir=base_dir)
        assert str(exc) in [_as_raised(e) for e in parsed.value.errors]
    else:
        assert parse_config(emit_config(config), base_dir=base_dir) == config


@pytest.mark.parametrize("path,message", [
    ("problem.kind", 'must be "toy" or "custom"'),
    ("strategy.kind", 'must be "mcp", "mrp" or "pam"'),
    ("strategy.matrix.kind",
     'must be "banded_bidirectional", "banded_forward", "dense" or "prior"'),
    ("strategy.policy.kind", 'must be "min" or "average"'),
])
def test_array_kind_is_no_kind(path, message):
    # an array compared with a string compares element-wise, and its truth is ambiguous
    with pytest.raises(ConfigError) as exc:
        parse_config(_with(TOY_PAM, path, np.array(["toy", "x"])))
    assert exc.value.errors == [f"{path}: {message}"]


_MRP = _with(TOY_PAM, "strategy", {"kind": "mrp", "seed": 3})
_MATRICES = {kind: _with(TOY_PAM, "strategy.matrix", matrix) for kind, matrix in [
    ("banded_forward", {"kind": "banded_forward", "omega": 2}),
    ("banded_bidirectional", {"kind": "banded_bidirectional", "omega": 2, "scale": 2.0}),
    ("prior", {"kind": "prior", "path": "w.csv"}),
]}


@pytest.mark.parametrize("base,node,key", [
    (TOY_PAM, (), "flag"),  # a typo of "flags" once dropped debug_asserts
    (TOY_PAM, ("problem",), "radius"),
    (_CUSTOM, ("problem",), "x1"),
    (_CUSTOM, ("problem", "sets", 1), "center"),
    (_CUSTOM, ("strategy",), "seed"),  # mcp draws nothing; its seed was read and dropped
    (_MRP, ("strategy",), "matrix"),
    (TOY_PAM, ("strategy",), "beta"),
    (TOY_PAM, ("strategy", "matrix"), "omega"),  # dense: read and dropped before
    (_MATRICES["banded_forward"], ("strategy", "matrix"), "width"),
    (_MATRICES["banded_bidirectional"], ("strategy", "matrix"), "path"),
    (_MATRICES["prior"], ("strategy", "matrix"), "scale"),
    (TOY_PAM, ("strategy", "policy"), "omega"),
    (TOY_PAM, ("stop",), "max_iteration"),  # a typo once ran the default 1000 projections
    ({**TOY_PAM, "flags": {"debug_asserts": True}}, ("flags",), "store_iterate"),
])
def test_unknown_key_rejected(tmp_path, base, node, key):
    write_matrix_csv(np.ones((9, 9)) - np.eye(9), tmp_path / "w.csv")
    doc = json.loads(json.dumps({**base, "seeds": [1, -1]}))
    parse_config({k: v for k, v in doc.items() if k != "seeds"}, base_dir=tmp_path)
    target = doc
    for part in node:
        target = target[part]
    target[key] = 1
    path = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in (*node, key))
    with pytest.raises(ConfigError) as exc:
        parse_config(doc, base_dir=tmp_path)
    assert sorted(exc.value.errors) == sorted([
        f"{path.lstrip('.')}: unknown key", "seeds: must be at least 0"])


def test_readme_config_example_parses():
    # the README documents the config contract with this example
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("`run` takes a JSON config:", 1)[1]
    example = example.split("```json\n", 1)[1].split("```", 1)[0]
    config = parse_config(example)
    assert config.strategy == PamSpec(DenseSpec(1.0), Policy("min", 0.01), seed=7)
    assert parse_config(emit_config(config)) == config


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
        sets, x0, known = cfg.problem.build()
        assert len(sets) == 9 and x0.shape == (3,)
        np.testing.assert_array_equal(known, np.zeros(3))
        strat = cfg.build_strategy(seed=3)
        assert isinstance(strat, Memory)
        assert strat.n_sets == 9

    @pytest.mark.parametrize("kind", ["mcp", "mrp", "pam-dense", "pam-prior"])
    @pytest.mark.parametrize("seed", [None, 0, 7])
    def test_one_factory_behind_both_entry_points(self, tmp_path, kind, seed):
        # a None seed is the spec's own (5) on both; strategy_builder once
        # made a pam strategy from fresh entropy there
        write_matrix_csv(np.ones((9, 9)) - np.eye(9), tmp_path / "w.csv")
        policy = Policy("average", 0.5)
        spec = {"mcp": McpSpec(), "mrp": MrpSpec(seed=5),
                "pam-dense": PamSpec(DenseSpec(), policy, seed=5),
                "pam-prior": PamSpec(PriorSpec("w.csv", str(tmp_path)), policy, seed=5)}[kind]
        cfg = ExperimentConfig(ToyProblem(9), spec, StoppingRule(10))
        runs = []
        for strategy in (cfg.strategy_builder()(seed), cfg.build_strategy(seed),
                         cfg.strategy_builder()(5 if seed is None else seed)):
            picks = [strategy.next_index(None if k == 0 else 1.0 / k) for k in range(50)]
            rng = getattr(strategy, "rng", getattr(strategy, "_rng", None))
            runs.append((picks, None if rng is None else rng.bit_generator.state))
        assert runs[0] == runs[1] == runs[2]

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
        sets, x0, known = cfg.problem.build()
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
        sets, x0, known = cfg.problem.build()
        assert sets[0] == Hyperplane([1.0, 0.0], 0.0)
        np.testing.assert_array_equal(known, [0.0, 0.0])
