"""Experiment configuration: parse, validate, emit, build.

Configs are JSON documents.  ``parse_config`` either returns a fully
validated ``ExperimentConfig`` or raises ``ConfigError`` carrying *every*
validation problem found, each prefixed with the path of the offending key.
JSON shapes and key names are checked here, a key being known where
``emit_config`` writes it, and ``_spec`` finds the kind of each spec; values
are checked by the owner of each rule, the spec's own constructor or the
library, whose message ``<name> must ...`` reads ``<path>.<name>: must ...``.
So a config built in code rejects what parsing rejects; ``ExperimentConfig``
owns its fields' rules and those between parts, a strategy spec's ``builder``
those of a prior's file.
``emit_config`` writes a config that parses back to an equal object.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .memory import (
    DistanceMatrix,
    Policy,
    _check_builder_args,
    _check_integer,
    build_banded_bidirectional,
    build_banded_forward,
    build_dense,
)
from .runner import StoppingRule, _checked_problem, _sweep_window
from .sets import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    LineThroughOrigin,
    ProjectableSet,
    as_vector,
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
    """A spec whose JSON form is its ``kind`` and its compared fields: the keys
    its config object may have."""

    @classmethod
    def keys(cls) -> tuple:
        return ("kind", *(f.name for f in fields(cls) if f.compare))

    def to_dict(self):
        return {key: getattr(self, key) for key in self.keys()}


@dataclass(frozen=True)
class ToyProblem(ToyConfig, _FlatSpec):
    kind = "toy"

    def build(self):
        return make_toy_problem(self)


@dataclass(frozen=True)
class CustomProblem(_FlatSpec):
    kind = "custom"
    sets: tuple
    x0: tuple
    known_point: tuple | None = None

    def __post_init__(self):
        # run()'s own check; the points are kept as the Python floats they hold
        x, z = _checked_problem(self.sets, self.x0, self.known_point)
        object.__setattr__(self, "sets", tuple(self.sets))
        object.__setattr__(self, "x0", tuple(x.tolist()))
        object.__setattr__(self, "known_point", None if z is None else tuple(z.tolist()))

    @property
    def n_sets(self):
        return len(self.sets)

    def build(self):
        x0 = np.asarray(self.x0, dtype=float)
        z = None if self.known_point is None else np.asarray(self.known_point, float)
        return list(self.sets), x0, z

    def to_dict(self):
        return {**super().to_dict(), "sets": [set_to_descriptor(s) for s in self.sets],
                "x0": list(self.x0),
                "known_point": None if self.known_point is None else list(self.known_point)}


class _BuiltSpec(_FlatSpec):
    """A matrix built by ``builder`` from N and the spec's fields, which pass the
    builder's rule when the spec is made (omega < N when in an ExperimentConfig)
    and are kept as the Python numbers the rule returns."""

    def __post_init__(self):
        omega, scale = _check_builder_args(getattr(self, "omega", 1), self.scale)
        object.__setattr__(self, "scale", scale)
        if "omega" in self.keys():
            object.__setattr__(self, "omega", omega)

    def build(self, n_sets: int) -> DistanceMatrix:
        return self.builder(n_sets, *(getattr(self, key) for key in self.keys()[1:]))


@dataclass(frozen=True)
class BandedBidirectionalSpec(_BuiltSpec):
    kind = "banded_bidirectional"
    builder = staticmethod(build_banded_bidirectional)
    omega: int
    scale: float = 1.0


@dataclass(frozen=True)
class BandedForwardSpec(_BuiltSpec):
    kind = "banded_forward"
    builder = staticmethod(build_banded_forward)
    omega: int
    scale: float = 1.0


@dataclass(frozen=True)
class DenseSpec(_BuiltSpec):
    kind = "dense"
    builder = staticmethod(build_dense)
    scale: float = 1.0


@dataclass(frozen=True)
class PriorSpec(_FlatSpec):
    """Weights loaded from a CSV file (path kept as written)."""

    kind = "prior"
    path: str
    base_dir: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.path, str) or not self.path:
            raise ValueError("path must be a nonempty string")

    def resolved_path(self) -> Path:
        p = Path(self.path)
        return p if p.is_absolute() or self.base_dir is None else Path(self.base_dir) / p

    def build(self, n_sets: int) -> DistanceMatrix:
        m = load_distance_matrix(self.resolved_path())
        if m.n != n_sets:
            raise ValueError(f"weights matrix is {m.n}x{m.n}, problem has {n_sets} sets")
        return m


class _SeededSpec(_FlatSpec):
    """A strategy spec with an optional generator seed, an integer >= 0 kept
    as the Python int it holds, which its ``builder`` uses for a None seed."""

    def __post_init__(self):
        if self.seed is not None:
            object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0))


@dataclass(frozen=True)
class McpSpec(_FlatSpec):
    kind = "mcp"

    def builder(self, n_sets: int):
        return lambda seed: Cyclic(n_sets)


@dataclass(frozen=True)
class MrpSpec(_SeededSpec):
    kind = "mrp"
    seed: int | None = None

    def builder(self, n_sets: int):
        return lambda seed: RandomizedCycles(n_sets, self.seed if seed is None else seed)


@dataclass(frozen=True)
class PamSpec(_SeededSpec):
    kind = "pam"
    matrix: object
    policy: Policy
    seed: int | None = None

    def builder(self, n_sets: int):
        # the matrix is built (a prior read) and checked once; each Memory copies it
        matrix = Memory.admissible(self.matrix.build(n_sets))
        return lambda seed: Memory(matrix, self.policy, self.seed if seed is None else seed)

    def to_dict(self):
        return {**super().to_dict(), "matrix": self.matrix.to_dict(),
                "policy": asdict(self.policy)}


# the flags of an ExperimentConfig, which its JSON form groups under "flags"
_FLAGS = ("debug_asserts", "store_iterates", "matrix_snapshot_interval")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated, runnable experiment description; ``_rules`` span its parts."""

    problem: object
    strategy: object
    stop: StoppingRule
    seeds: tuple = ()
    output_dir: str | None = None
    debug_asserts: bool = False
    store_iterates: bool = False
    matrix_snapshot_interval: int | None = None

    def __post_init__(self):
        # the numbers and flags are kept as the Python values they hold, which JSON can encode
        seeds = tuple(_check_integer("seeds", s, 0) for s in self.seeds)
        object.__setattr__(self, "seeds", seeds)
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ValueError("output_dir must be a string or null")
        for name in ("debug_asserts", "store_iterates"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be true or false")
            object.__setattr__(self, name, bool(getattr(self, name)))
        if self.matrix_snapshot_interval is not None:
            object.__setattr__(self, "matrix_snapshot_interval", _check_integer(
                "matrix_snapshot_interval", self.matrix_snapshot_interval, 1))
        for _, owner, kwargs in self._rules(self.problem, self.strategy, self.stop):
            owner(**kwargs)

    @staticmethod
    def _rules(problem, strategy, stop):
        """(key path, owner, keyword arguments) of each rule between parts present."""
        n, matrix = getattr(problem, "n_sets", None), getattr(strategy, "matrix", None)
        if isinstance(problem, ToyProblem):
            yield "problem", problem.directions, {}
        if n is not None and hasattr(matrix, "omega"):
            yield "strategy.matrix", _check_builder_args, {
                "omega": matrix.omega, "scale": matrix.scale, "n_sets": n}
        if n is not None and stop is not None:
            yield "stop", _sweep_window, {"step_window": stop.step_window, "n_sets": n}

    @property
    def n_sets(self) -> int:
        return self.problem.n_sets

    def effective_seeds(self) -> tuple:
        """The seeds actually run: the seed list, else the strategy's own."""
        if self.seeds:
            return tuple(self.seeds)
        own = getattr(self.strategy, "seed", None)
        return (own if own is not None else 0,)

    def build_strategy(self, seed=None):
        return self.strategy_builder()(seed)

    def strategy_builder(self):
        """A function from a seed to that seed's strategy, a None seed the
        strategy's own.  A pam matrix is built (a prior read and checked) once,
        by this call; each Memory copies it."""
        return self.strategy.builder(self.n_sets)

    @classmethod
    def keys(cls) -> tuple:
        """The top-level keys of its JSON form."""
        return (*(f.name for f in fields(cls) if f.name not in _FLAGS), "flags")

    def to_dict(self) -> dict:
        return {
            "problem": self.problem.to_dict(),
            "strategy": self.strategy.to_dict(),
            "stop": asdict(self.stop),
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
            "flags": {name: getattr(self, name) for name in _FLAGS},
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


def _is_number(v) -> bool:
    """A JSON number; a boolean is none."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


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


def _plain(v):
    """A dict document with each NumPy scalar as the Python value it holds, so
    that a NumPy real reads as a JSON number and ``np.bool_`` as a boolean."""
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_plain(x) for x in v]
    return v.item() if isinstance(v, np.generic) else v


def _fields(cls, doc: dict) -> dict:
    """Keyword arguments for dataclass ``cls`` from the keys of ``doc`` that
    name its fields, a JSON number as a float in a field declared float; a
    missing field without a default is None, for ``cls`` to reject."""
    kwargs = {}
    for f in fields(cls):
        if f.name in doc or f.default is MISSING:
            v = doc.get(f.name)
            kwargs[f.name] = _as_float(v) if "float" in str(f.type) and _is_number(v) else v
    return kwargs


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str, key=None) -> None:
        """Record ``message`` under ``path``, or under its ``key`` if given."""
        if key is not None:
            path = f"{path}.{key}" if path else str(key)
        self.errors.append(f"{path}: {message}")

    def unknown(self, path: str, doc: dict, known) -> None:
        """Record each key of ``doc`` that is not among ``known``."""
        for key in doc:
            if key not in known:
                self.add(path, "unknown key", key)

    def attempt(self, at: str, fn, /, *args, **kwargs):
        """Run fn, recording its error under ``at``; None on failure.  A message
        ``<name> must ...`` about an argument the call names (a keyword or an
        item ``<keyword>[i]`` of one, or a string argument) is recorded as
        ``<at>.<name>: must ...``."""
        try:
            return fn(*args, **kwargs)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            name, must, rest = str(exc).partition(" must ")
            if must and (name.partition("[")[0] in kwargs
                         or name in [a for a in args if isinstance(a, str)]):
                self.add(at, "must " + rest, name)
            else:
                self.add(at, str(exc))
            return None


def _spec(col: _Collector, path: str, doc, kinds, **given):
    """The spec of ``kinds`` that ``doc`` names by its kind, made by one attempt
    from the keys of ``doc`` and the parts that ``given[kind]()`` parses, if
    given (None makes no attempt); None after an error under ``path``."""
    if not isinstance(doc, dict):
        col.add(path, "must be an object")
        return None
    kind = doc.get("kind")  # compared only as a string: an array compares element-wise
    cls = next((c for c in kinds if isinstance(kind, str) and c.kind == kind), None)
    if cls is None:
        *most, last = (f'"{c.kind}"' for c in kinds)
        col.add(f"{path}.kind", f"must be {', '.join(most)} or {last}")
        return None
    col.unknown(path, doc, cls.keys())
    errors = len(col.errors)
    parts = given[cls.kind]() if cls.kind in given else {}
    spec = None if parts is None else col.attempt(path, cls, **{**_fields(cls, doc), **parts})
    return None if len(col.errors) > errors else spec


def _record(col: _Collector, path: str, doc, cls, shape="must be an object"):
    """``cls`` made from the JSON object ``doc``, whose keys are its fields."""
    if not isinstance(doc, dict):
        col.add(path, shape)
        return None
    col.unknown(path, doc, [f.name for f in fields(cls)])
    return col.attempt(path, cls, **_fields(cls, doc))


def _custom_parts(doc: dict, col: _Collector):
    """A custom problem's sets and points, or None after an error.  Each point
    is checked on its own too, so that an error in x0 hides none in the other."""
    errors = len(col.errors)
    raw = doc.get("sets")
    if not isinstance(raw, list):
        col.add("problem.sets", "must be a list of set descriptors")
        raw = []
    sets = tuple(col.attempt(f"problem.sets[{i}]", set_from_descriptor, d)
                 for i, d in enumerate(raw))
    for i, (d, s) in enumerate(zip(raw, sets)):
        if s is not None:
            col.unknown(f"problem.sets[{i}]", d, set_to_descriptor(s))
    points = {"x0": doc.get("x0"), "known_point": doc.get("known_point")}
    for name, v in points.items():
        if v is None and name == "known_point":
            continue
        if not _is_numbers(v, 1):
            col.add(f"problem.{name}", f"must be {_NUMBERS[1]}")
        else:
            points[name] = _as_float(v)
            col.attempt("problem", as_vector, points[name], name)
    return None if len(col.errors) > errors else {"sets": sets, **points}


def _pam_parts(doc: dict, col: _Collector, base_dir):
    """A pam strategy's matrix and policy, each None after an error in it."""
    return {"matrix": _spec(col, "strategy.matrix", doc.get("matrix"),
                            (BandedBidirectionalSpec, BandedForwardSpec, DenseSpec, PriorSpec),
                            prior=lambda: {"base_dir": base_dir}),
            "policy": _record(col, "strategy.policy", doc.get("policy"), Policy,
                              "must be an object with kind and beta")}


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
        doc = _plain(source)
    if not isinstance(doc, dict):
        raise ConfigError(["(document): top level must be an object"])

    col = _Collector()
    problem = _spec(col, "problem", doc.get("problem"), (ToyProblem, CustomProblem),
                    custom=lambda: _custom_parts(doc["problem"], col))
    strategy = _spec(col, "strategy", doc.get("strategy"), (McpSpec, MrpSpec, PamSpec),
                     pam=lambda: _pam_parts(doc["strategy"], col, base_dir))
    stop = {} if doc.get("stop") is None else doc["stop"]
    if isinstance(stop, dict):
        stop = {"max_iterations": 1000, **stop}
    stop = _record(col, "stop", stop, StoppingRule)
    col.unknown("", doc, ExperimentConfig.keys())

    seeds = [] if doc.get("seeds") is None else doc["seeds"]
    if not isinstance(seeds, list):
        col.add("seeds", "must be a list of integers")
        seeds = []

    # ExperimentConfig's checks, one attempt per field given, then the rules between parts
    col.attempt("", ExperimentConfig, None, None, None, output_dir=doc.get("output_dir"))

    flags = {} if doc.get("flags") is None else doc["flags"]
    if not isinstance(flags, dict):
        col.add("flags", "must be an object")
        flags = {}
    col.unknown("flags", flags, _FLAGS)
    for name in _FLAGS:
        if name in flags:
            col.attempt("flags", ExperimentConfig, None, None, None, **{name: flags[name]})
    col.attempt("", ExperimentConfig, None, None, None, seeds=tuple(seeds))
    for at, owner, kwargs in ExperimentConfig._rules(problem, strategy, stop):
        col.attempt(at, owner, **kwargs)
    # a prior's file is read by its strategy's builder, whatever the rules
    # between parts say; a band or dense matrix holds the +1 cycle, so it is not built
    if problem is not None and isinstance(getattr(strategy, "matrix", None), PriorSpec):
        col.attempt("strategy.matrix", strategy.builder, problem.n_sets)

    if col.errors:
        raise ConfigError(col.errors)
    return ExperimentConfig(problem, strategy, stop, tuple(seeds), doc.get("output_dir"), **flags)


def emit_config(config: ExperimentConfig) -> str:
    """Serialize a config to JSON; parsing the result gives an equal config."""
    return dumps_stable(config.to_dict())
