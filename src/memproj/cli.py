"""Command-line front end.

Subcommands:
  run CONFIG            execute one experiment config (all its seeds)
  preset NAME           run a canned toy study
  check-matrix CSV      report whether a memory matrix is admissible
  version               print the package version

Exit codes: 0 success, 1 validation error, 2 numeric error.  Diagnostics go
to standard error.  The default output directory can be set with the
MEMPROJ_OUTPUT_DIR environment variable.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, ExperimentConfig, emit_config, parse_config
from .memory import is_admissible, unreachable_pair
from .runner import FejerViolation, NumericError, run
from .toylab import PRESETS, ToyConfig, run_preset
from .traceio import (
    load_distance_matrix,
    write_matrix_csv,
    write_report,
    write_trace_csv,
    write_trace_json,
)

__all__ = ["main", "execute_config"]

_ENV_OUT = "MEMPROJ_OUTPUT_DIR"


def _default_out() -> str:
    return os.environ.get(_ENV_OUT, "memproj_out")


def execute_config(config: ExperimentConfig, outdir) -> Path:
    """Run a config over its seeds and write one CSV/JSON pair per run.

    If anything raises, the files written so far are deleted, and so are
    the directories this call created, before the error propagates: a
    failed run leaves no partial output behind.
    """
    outdir = Path(outdir)
    created = [p for p in (outdir, *outdir.parents) if not p.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def target(name: str) -> Path:
        path = outdir / name
        written.append(path)
        return path

    try:
        sets, x0, known_point = config.build_problem()
        echo_text = emit_config(config)
        target("config.json").write_text(echo_text)
        seeds = config.effective_seeds()
        for seed, strategy in zip(seeds, config.build_strategies(seeds)):
            trace = run(
                sets,
                strategy,
                x0,
                config.stop,
                known_point=known_point,
                debug_asserts=config.debug_asserts,
                store_iterates=config.store_iterates,
                matrix_snapshot_interval=config.matrix_snapshot_interval,
            )
            stem = f"trace_seed{seed}"
            write_trace_csv(trace, target(f"{stem}.csv"))
            write_trace_json(trace, target(f"{stem}.json"), config_echo=echo_text)
            write_matrix_csv(trace.transition_counts(), target(f"frequency_seed{seed}.csv"))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for path in created:  # innermost first
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    return outdir


def _cmd_run(args) -> int:
    path = Path(args.config)
    text = path.read_text()
    config = parse_config(text, base_dir=str(path.parent))
    out = args.out or config.output_dir or _default_out()
    execute_config(config, out)
    print(out)
    return 0


def _cmd_preset(args) -> int:
    report = run_preset(
        args.name,
        config=ToyConfig(n_sets=args.N, r=args.r),
        seeds=range(args.seeds),
        iterations=args.iters,
        omega=args.omega,
        beta=args.beta,
    )
    out = args.out or _default_out()
    write_report(report, out)
    print(out)
    return 0


def _cmd_check_matrix(args) -> int:
    matrix = load_distance_matrix(args.csv)
    if is_admissible(matrix):
        print("admissible")
    else:
        m, n = unreachable_pair(matrix)
        print("inadmissible")
        print(f"no positive-entry chain from set {m} to set {n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memproj",
        description="Projection methods for convex feasibility problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config file")
    p_run.add_argument("config", help="path to a JSON config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a canned toy study")
    p_preset.add_argument("name", choices=PRESETS)
    p_preset.add_argument("--N", type=int, default=9, help="number of lines")
    p_preset.add_argument("--r", type=float, default=0.05, help="radius parameter")
    p_preset.add_argument("--iters", type=int, default=None, help="projection budget")
    p_preset.add_argument(
        "--seeds", type=int, default=20, help="number of seeds (0..count-1)"
    )
    p_preset.add_argument(
        "--omega", type=int, default=None, help="bandwidth for sparse_forward"
    )
    p_preset.add_argument("--beta", type=float, default=0.01, help="policy decay")
    p_preset.add_argument("--out", default=None, help="output directory")
    p_preset.set_defaults(func=_cmd_preset)

    p_check = sub.add_parser(
        "check-matrix", help="verdict on a memory matrix CSV"
    )
    p_check.add_argument("csv", help="path to an N x N matrix CSV")
    p_check.set_defaults(func=_cmd_check_matrix)

    p_version = sub.add_parser("version", help="print the package version")
    p_version.set_defaults(func=lambda args: (print(__version__), 0)[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except (NumericError, FejerViolation, FloatingPointError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
