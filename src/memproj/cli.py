"""Command-line front end.

Subcommands:
  run CONFIG            execute one experiment config (all its seeds)
  preset NAME           run a canned toy study
  check-matrix CSV      report whether a memory matrix is admissible
  version               print the package version

Exit codes: 0 success, 1 validation error, 2 numeric error.  Diagnostics go
to standard error.  The default output directory can be set with the
MEMPROJ_OUTPUT_DIR environment variable.  ``run`` runs the seeds in forked
worker processes, one per CPU of the affinity mask (``taskset`` limits it)
and at most one per seed, so a profiler in this process does not see them.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
import threading
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


def _workers(n_seeds: int) -> int:
    """Processes for ``n_seeds`` seeds; 1 (inline) without fork or an affinity
    mask, or beside another thread, which could hold a lock a fork copies."""
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        return min(len(os.sched_getaffinity(0)), n_seeds)
    return 1


_worker_job = None  # the job a pool worker inherited when it was forked


def _adopt(job) -> None:
    global _worker_job
    _worker_job = job


def _run_seed(i: int, job=None) -> None:
    """Run the ``i``-th seed of ``job`` (in a pool worker, its inherited
    job) and write that seed's trace CSV, trace JSON and frequency CSV."""
    config, (sets, x0, known_point), echo_text, build, seeds, paths = job or _worker_job
    trace = run(sets, build(seeds[i]), x0, config.stop, known_point=known_point,
                debug_asserts=config.debug_asserts, store_iterates=config.store_iterates,
                matrix_snapshot_interval=config.matrix_snapshot_interval)
    csv_path, json_path, frequency_path = paths[i]
    write_trace_csv(trace, csv_path)
    write_trace_json(trace, json_path, config_echo=echo_text)
    write_matrix_csv(trace.transition_counts(), frequency_path)


def execute_config(config: ExperimentConfig, outdir) -> Path:
    """Run a config over its seeds and write one CSV/JSON pair per run.

    Worker processes write the bytes an inline run would.  If anything
    raises, the workers are stopped, every file of every seed is deleted,
    and so are the directories this call created, before the error of the
    lowest-positioned failing seed propagates: a failed run leaves no
    partial output behind.
    """
    outdir = Path(outdir)
    created = [p for p in (outdir, *outdir.parents) if not p.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    seeds = tuple(dict.fromkeys(config.effective_seeds()))  # no two workers on one file
    paths = [(outdir / f"trace_seed{s}.csv", outdir / f"trace_seed{s}.json",
              outdir / f"frequency_seed{s}.csv") for s in seeds]
    try:
        problem = config.build_problem()
        echo_text = emit_config(config)
        (outdir / "config.json").write_text(echo_text)
        job = (config, problem, echo_text, config.strategy_builder(), seeds, paths)
        if (workers := _workers(len(seeds))) < 2:
            for i in range(len(seeds)):
                _run_seed(i, job)
        else:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            pool = ProcessPoolExecutor(workers, get_context("fork"),
                                       initializer=_adopt, initargs=(job,))
            try:
                for future in [pool.submit(_run_seed, i) for i in range(len(seeds))]:
                    future.result()  # in seed order, so the first raise is the lowest
            finally:
                pool.shutdown(cancel_futures=True)
    except BaseException:
        for path in (outdir / "config.json", *sum(paths, ())):
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
    p_preset.add_argument("--N", type=int, default=ToyConfig.n_sets, help="number of lines")
    p_preset.add_argument("--r", type=float, default=ToyConfig.r, help="radius parameter")
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
