"""Experiment configuration: parse, validate, emit, build.

Configs are JSON documents.  ``parse_config`` either returns a fully
validated ``ExperimentConfig`` or raises ``ConfigError`` carrying *every*
validation problem found, each prefixed with the path of the offending key.
``emit_config`` writes a config back out such that parsing the result
reproduces an equal object.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .memory import (
    DistanceMatrix,
    Policy,
    build_banded_bidirectional,
    build_banded_forward,
    build_dense,
)
from .runner import StoppingRule
from .sets import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    LineThroughOrigin,
    ProjectableSet,
)
from .strategies import Cyclic, Memory, RandomizedCycles
from .toylab import ToyConfig, make_toy_problem
from .traceio import dumps_stable, load_distance_matrix

__all__ = [
    "ConfigError",
    "ToyProblem",
    "CustomProblem",
    "McpSpec",
    "MrpSpec",
    "PamSpec",
    "BandedBidirectionalSpec",
    "BandedForwardSpec",
    "DenseSpec",
    "PriorSpec",
    "ExperimentConfig",
    "parse_config",
    "emit_config",
    "set_from_descriptor",
    "set_to_descriptor",
]


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(self.errors))


class _FlatSpec:
    """A spec whose JSON form is its ``kind`` and its compared fields."""

    def to_dict(self):
        return {"kind": self.kind,
                **{f.name: getattr(self, f.name) for f in fields(self) if f.compare}}


@dataclass(frozen=True)
class ToyProblem(ToyConfig, _FlatSpec):
    kind = "toy"

    def build(self):
        return make_toy_problem(self)


@dataclass(frozen=True)
class CustomProblem:
    sets: tuple
    x0: tuple
    known_point: tuple | None = None

    @property
    def n_sets(self):
        return len(self.sets)

    def build(self):
        x0 = np.asarray(self.x0, dtype=float)
        z = None if self.known_point is None else np.asarray(self.known_point, float)
        return list(self.sets), x0, z

    def to_dict(self):
        return {
            "kind": "custom",
            "sets": [set_to_descriptor(s) for s in self.sets],
            "x0": list(self.x0),
            "known_point": None if self.known_point is None else list(self.known_point),
        }


@dataclass(frozen=True)
class BandedBidirectionalSpec(_FlatSpec):
    kind = "banded_bidirectional"
    omega: int
    scale: float = 1.0

    def build(self, n_sets: int) -> DistanceMatrix:
        return build_banded_bidirectional(n_sets, self.omega, self.scale)


@dataclass(frozen=True)
class BandedForwardSpec(_FlatSpec):
    kind = "banded_forward"
    omega: int
    scale: float = 1.0

    def build(self, n_sets: int) -> DistanceMatrix:
        return build_banded_forward(n_sets, self.omega, self.scale)


@dataclass(frozen=True)
class DenseSpec(_FlatSpec):
    kind = "dense"
    scale: float = 1.0

    def build(self, n_sets: int) -> DistanceMatrix:
        return build_dense(n_sets, self.scale)


@dataclass(frozen=True)
class PriorSpec(_FlatSpec):
    """Weights loaded from a CSV file (path kept as written)."""

    kind = "prior"
    path: str
    base_dir: str | None = field(default=None, compare=False)

    def resolved_path(self) -> Path:
        p = Path(self.path)
        if not p.is_absolute() and self.base_dir is not None:
            p = Path(self.base_dir) / p
        return p

    def build(self, n_sets: int) -> DistanceMatrix:
        m = load_distance_matrix(self.resolved_path())
        if m.n != n_sets:
            raise ValueError(
                f"weights matrix is {m.n}x{m.n}, problem has {n_sets} sets"
            )
        return m


@dataclass(frozen=True)
class McpSpec(_FlatSpec):
    kind = "mcp"

    def build(self, n_sets: int, seed=None):
        return Cyclic(n_sets)


@dataclass(frozen=True)
class MrpSpec(_FlatSpec):
    kind = "mrp"
    seed: int | None = None

    def build(self, n_sets: int, seed=None):
        return RandomizedCycles(n_sets, seed=self.seed if seed is None else seed)


@dataclass(frozen=True)
class PamSpec:
    matrix: object
    policy: Policy
    seed: int | None = None

    def build(self, n_sets: int, seed=None):
        return Memory(
            self.matrix.build(n_sets),
            self.policy,
            seed=self.seed if seed is None else seed,
        )

    def to_dict(self):
        return {
            "kind": "pam",
            "matrix": self.matrix.to_dict(),
            "policy": {"kind": self.policy.kind, "beta": self.policy.beta},
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated, runnable experiment description."""

    problem: object
    strategy: object
    stop: StoppingRule
    seeds: tuple = ()
    output_dir: str | None = None
    debug_asserts: bool = False
    store_iterates: bool = False
    matrix_snapshot_interval: int | None = None

    @property
    def n_sets(self) -> int:
        return self.problem.n_sets

    def effective_seeds(self) -> tuple:
        """The seeds actually run: the seed list, else the strategy's own."""
        if self.seeds:
            return tuple(self.seeds)
        own = getattr(self.strategy, "seed", None)
        return (own if own is not None else 0,)

    def build_problem(self):
        return self.problem.build()

    def build_strategy(self, seed=None):
        return self.strategy.build(self.n_sets, seed=seed)

    def strategy_builder(self):
        """A function from a seed to that seed's strategy.  A pam matrix is
        built (a prior read) once, by this call; each Memory copies it."""
        spec = self.strategy
        if not isinstance(spec, PamSpec):
            return self.build_strategy
        matrix = spec.matrix.build(self.n_sets)
        return lambda seed: Memory(matrix, spec.policy, seed=seed)

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "strategy": self.strategy.to_dict(),
            "stop": {f.name: getattr(self.stop, f.name) for f in fields(self.stop)},
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
            "flags": {
                "debug_asserts": self.debug_asserts,
                "store_iterates": self.store_iterates,
                "matrix_snapshot_interval": self.matrix_snapshot_interval,
            },
        }


# set kind -> its class, and the nesting depth of each of its ``params``:
# 0 a number, 1 a vector, 2 a list of vectors
_SET_KINDS = {
    "hyperplane": (Hyperplane, (1, 0)),
    "halfspace": (Halfspace, (1, 0)),
    "ball": (Ball, (1, 0)),
    "box": (Box, (1, 1)),
    "line": (LineThroughOrigin, (1,)),
    "affine": (AffineSubspace, (1, 2)),
}
_NUMBERS = ("a number", "a list of numbers", "a list of lists of numbers")


def set_from_descriptor(d: dict) -> ProjectableSet:
    """Build a set from its config descriptor (kind + numeric parameters)."""
    if not isinstance(d, dict):
        raise ValueError("must be an object")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in _SET_KINDS:
        raise ValueError(f"unknown set kind {kind!r}; choose one of {tuple(_SET_KINDS)}")
    cls, depths = _SET_KINDS[kind]
    for name, depth in zip(cls.params, depths):
        if not _is_numbers(d.get(name), depth):
            raise ValueError(f"{name} must be {_NUMBERS[depth]}")
        if depth == 2 and len({len(row) for row in d[name]}) > 1:
            raise ValueError(f"{name} must be {_NUMBERS[depth]} of one length")
    return cls(*(_as_float(d[name]) for name in cls.params))


def set_to_descriptor(s: ProjectableSet) -> dict:
    for kind, (cls, _) in _SET_KINDS.items():
        if isinstance(s, cls):
            return {"kind": kind,
                    **{name: np.asarray(getattr(s, name)).tolist() for name in cls.params}}
    raise TypeError(f"cannot describe {type(s).__name__}")


def _is_number(v, integer=False) -> bool:
    """A JSON number (an integer if ``integer``); booleans are neither."""
    return isinstance(v, int if integer else (int, float)) and not isinstance(v, bool)


def _as_float(v):
    """A JSON number, or nested lists of them, as floats; an integer beyond
    the float range reads as +-inf, as JSON 1e400 does."""
    if isinstance(v, list):
        return [_as_float(x) for x in v]
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _is_numbers(v, depth: int) -> bool:
    """A number (depth 0), or a list of ``depth - 1``-deep numbers."""
    if depth == 0:
        return _is_number(v)
    return isinstance(v, list) and all(_is_numbers(x, depth - 1) for x in v)


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def attempt(self, path: str, fn, *args, **kwargs):
        """Run fn, recording a ValueError under ``path``; None on failure."""
        try:
            return fn(*args, **kwargs)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self.add(path, str(exc))
            return None


def _parse_problem(doc, col: _Collector):
    if not isinstance(doc, dict):
        col.add("problem", "must be an object")
        return None
    kind = doc.get("kind")
    if kind == "toy":
        n = doc.get("n_sets", ToyConfig.n_sets)
        r = doc.get("r", ToyConfig.r)
        if not (_is_number(n, integer=True) and n >= 2):
            col.add("problem.n_sets", "must be an integer >= 2")
            return None
        if n > ToyConfig.max_lines:
            col.add("problem.n_sets", f"must be at most {ToyConfig.max_lines}; "
                    "neighbouring lines of a larger fan are parallel at every r")
            return None
        if not (_is_number(r) and 0.0 < _as_float(r) < math.inf):
            col.add("problem.r", "must be a finite number > 0")
            return None
        return ToyProblem(n_sets=n, r=_as_float(r))
    if kind == "custom":
        raw_sets = doc.get("sets")
        if not isinstance(raw_sets, list) or len(raw_sets) < 2:
            col.add("problem.sets", "must be a list of at least 2 set descriptors")
            return None
        sets = []
        for i, d in enumerate(raw_sets):
            s = col.attempt(f"problem.sets[{i}]", set_from_descriptor, d)
            if s is not None:
                sets.append(s)
        x0 = doc.get("x0")
        if not isinstance(x0, list) or not x0 or not all(map(_is_number, x0)):
            col.add("problem.x0", "must be a nonempty list of numbers")
            return None
        x0 = _as_float(x0)
        if not all(map(math.isfinite, x0)):
            col.add("problem.x0", "must have finite entries")
        if len(sets) != len(raw_sets):
            return None
        dim = len(x0)
        for i, s in enumerate(sets):
            if s.dim != dim:
                col.add(
                    f"problem.sets[{i}]",
                    f"dimension {s.dim} does not match x0 dimension {dim}",
                )
        zp = doc.get("known_point")
        if zp is not None and (not isinstance(zp, list) or len(zp) != dim
                               or not all(map(_is_number, zp))):
            col.add("problem.known_point", f"must be a list of {dim} numbers")
        elif zp is not None and not all(map(math.isfinite, _as_float(zp))):
            col.add("problem.known_point", "must have finite entries")
        if col.errors:
            return None
        return CustomProblem(
            sets=tuple(sets),
            x0=tuple(x0),
            known_point=None if zp is None else tuple(_as_float(zp)),
        )
    col.add("problem.kind", 'must be "toy" or "custom"')
    return None


def _parse_matrix_spec(doc, col: _Collector, base_dir):
    if not isinstance(doc, dict):
        col.add("strategy.matrix", "must be an object")
        return None
    kind = doc.get("kind")
    if kind in ("dense", "banded_bidirectional", "banded_forward"):
        omega = doc.get("omega")
        scale = doc.get("scale", 1.0)
        if kind != "dense" and not (_is_number(omega, integer=True) and omega >= 1):
            col.add("strategy.matrix.omega", "must be an integer >= 1")
            return None
        if not (_is_number(scale) and 0.0 < _as_float(scale) < math.inf):
            col.add("strategy.matrix.scale", "must be a finite number > 0")
            return None
        if kind == "dense":
            return DenseSpec(scale=_as_float(scale))
        cls = BandedBidirectionalSpec if kind == "banded_bidirectional" else BandedForwardSpec
        return cls(omega=omega, scale=_as_float(scale))
    if kind == "prior":
        path = doc.get("path")
        if not isinstance(path, str) or not path:
            col.add("strategy.matrix.path", "must be a nonempty string")
            return None
        return PriorSpec(path=path, base_dir=base_dir)
    col.add(
        "strategy.matrix.kind",
        'must be one of "banded_bidirectional", "banded_forward", "dense", "prior"',
    )
    return None


def _parse_strategy(doc, col: _Collector, base_dir):
    if not isinstance(doc, dict):
        col.add("strategy", "must be an object")
        return None
    kind = doc.get("kind")
    seed = doc.get("seed")
    if seed is not None and not _is_number(seed, integer=True):
        col.add("strategy.seed", "must be an integer")
        return None
    if seed is not None and seed < 0:  # a generator seed is never negative
        col.add("strategy.seed", "must be an integer >= 0")
        return None
    if kind == "mcp":
        return McpSpec()
    if kind == "mrp":
        return MrpSpec(seed=seed)
    if kind == "pam":
        matrix = _parse_matrix_spec(doc.get("matrix"), col, base_dir)
        pol = doc.get("policy")
        policy = None
        if not isinstance(pol, dict):
            col.add("strategy.policy", "must be an object with kind and beta")
        else:
            pkind = pol.get("kind")
            beta = pol.get("beta")
            if pkind not in ("min", "average"):
                col.add("strategy.policy.kind", 'must be "min" or "average"')
            elif not _is_number(beta) or not (0.0 < _as_float(beta) < 1.0):
                col.add(
                    "strategy.policy.beta",
                    "an admissible policy requires beta in the open interval (0, 1)",
                )
            else:
                policy = Policy(pkind, _as_float(beta))
        if matrix is None or policy is None:
            return None
        return PamSpec(matrix=matrix, policy=policy, seed=seed)
    col.add("strategy.kind", 'must be "mcp", "mrp" or "pam"')
    return None


def _parse_stop(doc, col: _Collector):
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        col.add("stop", "must be an object")
        return None
    kwargs = {}
    max_iter = doc.get("max_iterations", 1000)
    if not (_is_number(max_iter, integer=True) and max_iter >= 1):
        col.add("stop.max_iterations", "must be an integer >= 1")
        return None
    kwargs["max_iterations"] = max_iter
    window = doc.get("step_window")
    if window is not None and not (_is_number(window, integer=True) and window >= 1):
        col.add("stop.step_window", "must be an integer >= 1 or null")
        return None
    kwargs["step_window"] = window
    for key in ("step_tolerance", "residual_tolerance"):
        default = getattr(StoppingRule, key)  # the rule's own defaults
        v = doc.get(key, default)
        # residual_tolerance alone may be null: no residual stop
        if (v is not None or default is not None) and not (_is_number(v) and v > 0):
            col.add(f"stop.{key}", "must be a number > 0")
            return None
        kwargs[key] = None if v is None else _as_float(v)
    return StoppingRule(**kwargs)


def parse_config(source, base_dir=None) -> ExperimentConfig:
    """Parse and fully validate a config document (JSON text or dict).

    Raises ``ConfigError`` listing every violation, each tagged with the
    path of the offending key.  ``base_dir`` anchors relative file paths
    (e.g. prior weight matrices); it defaults to the working directory.
    """
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"(document): not valid JSON: {exc}"]) from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError(["(document): top level must be an object"])

    col = _Collector()
    problem = _parse_problem(doc.get("problem"), col)
    strategy = _parse_strategy(doc.get("strategy"), col, base_dir)
    stop = _parse_stop(doc.get("stop"), col)

    seeds = doc.get("seeds", [])
    if seeds is None:
        seeds = []
    if not isinstance(seeds, list) or not all(_is_number(s, integer=True) for s in seeds):
        col.add("seeds", "must be a list of integers")
        seeds = []
    elif any(s < 0 for s in seeds):
        col.add("seeds", "must be a list of integers >= 0")
        seeds = []

    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        col.add("output_dir", "must be a string or null")
        output_dir = None

    flags = doc.get("flags", {}) or {}
    if not isinstance(flags, dict):
        col.add("flags", "must be an object")
        flags = {}
    debug_asserts = flags.get("debug_asserts", False)
    store_iterates = flags.get("store_iterates", False)
    interval = flags.get("matrix_snapshot_interval")
    for name, v in (("debug_asserts", debug_asserts), ("store_iterates", store_iterates)):
        if not isinstance(v, bool):
            col.add(f"flags.{name}", "must be true or false")
    if interval is not None and not (_is_number(interval, integer=True) and interval >= 1):
        col.add("flags.matrix_snapshot_interval", "must be an integer >= 1 or null")
        interval = None

    # cross-field checks need the pieces to have parsed individually first;
    # a toy problem's lines must not be parallel
    if isinstance(problem, ToyProblem):
        col.attempt("problem", problem.directions)
    # Memory's own check, without the numpy.random import a Memory's generator costs
    if problem is not None and isinstance(strategy, PamSpec):
        matrix = col.attempt("strategy.matrix", strategy.matrix.build, problem.n_sets)
        if matrix is not None:
            col.attempt("strategy.matrix", Memory.admissible, matrix)
    window = None if stop is None else stop.step_window
    if problem is not None and window is not None and window < problem.n_sets:
        col.add(
            "stop.step_window",
            f"must cover at least one full sweep (>= N = {problem.n_sets})",
        )

    if col.errors:
        raise ConfigError(col.errors)

    return ExperimentConfig(
        problem=problem,
        strategy=strategy,
        stop=stop,
        seeds=tuple(seeds),
        output_dir=output_dir,
        debug_asserts=bool(debug_asserts),
        store_iterates=bool(store_iterates),
        matrix_snapshot_interval=interval,
    )


def emit_config(config: ExperimentConfig) -> str:
    """Serialize a config to JSON; parsing the result gives an equal config."""
    return dumps_stable(config.to_dict())
