"""Projection methods for convex feasibility problems.

Find a point in the intersection of finitely many closed convex sets by
iterated exact projections.  Three ways to order the projections are
provided: a fixed cyclic sweep, a freshly shuffled sweep per cycle, and a
learning chooser that remembers how long each transition's projection steps
have been and greedily replays the profitable ones.
"""

__version__ = "0.1.0"

from .sets import (
    AffineSubspace,
    Ball,
    Box,
    Halfspace,
    Hyperplane,
    LineThroughOrigin,
    ProjectableSet,
    distance,
    project,
)
from .memory import (
    DistanceMatrix,
    InvariantViolation,
    Policy,
    build_banded_bidirectional,
    build_banded_forward,
    build_dense,
    build_prior_matrix,
    evaluate_policy,
    is_admissible,
    pam_select,
    pam_update,
    unreachable_pair,
)
from .strategies import Cyclic, Memory, RandomizedCycles, Strategy, transition_counts
from .runner import (
    STATUS_MAX_ITERATIONS,
    STATUS_RESIDUAL,
    STATUS_STEP,
    FejerViolation,
    NumericError,
    RunTrace,
    StoppingRule,
    residual_series,
    run,
)
from .toylab import (
    PRESETS,
    MethodResult,
    PresetReport,
    ToyConfig,
    concentration_step,
    make_toy_problem,
    run_preset,
    toy_directions,
)
from .config import (
    ConfigError,
    CustomProblem,
    ExperimentConfig,
    ToyProblem,
    emit_config,
    parse_config,
)

__all__ = [
    "__version__",
    # sets
    "ProjectableSet",
    "Hyperplane",
    "Halfspace",
    "Ball",
    "Box",
    "LineThroughOrigin",
    "AffineSubspace",
    "project",
    "distance",
    # memory
    "DistanceMatrix",
    "Policy",
    "InvariantViolation",
    "is_admissible",
    "unreachable_pair",
    "build_banded_bidirectional",
    "build_banded_forward",
    "build_dense",
    "build_prior_matrix",
    "evaluate_policy",
    "pam_select",
    "pam_update",
    # strategies
    "Strategy",
    "Cyclic",
    "RandomizedCycles",
    "Memory",
    "transition_counts",
    # runner
    "StoppingRule",
    "RunTrace",
    "run",
    "residual_series",
    "NumericError",
    "FejerViolation",
    "STATUS_STEP",
    "STATUS_RESIDUAL",
    "STATUS_MAX_ITERATIONS",
    # toy lab
    "ToyConfig",
    "make_toy_problem",
    "toy_directions",
    "run_preset",
    "PresetReport",
    "MethodResult",
    "PRESETS",
    "concentration_step",
    # config
    "ExperimentConfig",
    "ToyProblem",
    "CustomProblem",
    "parse_config",
    "emit_config",
    "ConfigError",
]
