"""Bit-stable file formats: trace CSV, matrix CSV, JSON records.

Floats are written with 17 significant digits so that reading a file back
reproduces the exact double that was written.  Given the same inputs and
seeds, every writer here produces byte-identical files; the only timestamp
lives in the metadata block of a report's summary.json.
"""
from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .memory import DistanceMatrix
from .runner import RunTrace

__all__ = [
    "format_float",
    "dumps_stable",
    "write_trace_csv",
    "read_trace_csv",
    "write_matrix_csv",
    "read_matrix_csv",
    "load_distance_matrix",
    "trace_json_dict",
    "write_trace_json",
    "write_report",
]

TRACE_HEADER = ("k", "j", "step_length", "residual")


def format_float(v) -> str:
    """17 significant digits: enough for bit-exact re-ingestion."""
    return f"{float(v):.17g}"


def write_trace_csv(trace: RunTrace, path) -> None:
    """One row per projection: k, set index, step length, residual.

    The residual column is empty when the run had no known feasible point.
    """
    # no field can hold a comma, quote or newline, so plain formatting
    # gives the bytes csv.writer would
    columns = [
        range(trace.n_projections),
        trace.set_indices.tolist(),
        trace.step_lengths.tolist(),
    ]
    if trace.residuals is None:
        line = "%d,%d,%.17g,\n"
    else:
        line = "%d,%d,%.17g,%.17g\n"
        columns.append(trace.residuals.tolist())
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        fh.writelines(line % row for row in zip(*columns))


def read_trace_csv(path) -> dict:
    """Read a trace CSV back into arrays (residual is None when absent)."""
    path = Path(path)
    ks, js, steps, residuals = [], [], [], []
    any_residual = False
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header!r}")
        for row in reader:
            ks.append(int(row[0]))
            js.append(int(row[1]))
            steps.append(float(row[2]))
            if row[3] == "":
                residuals.append(np.nan)
            else:
                residuals.append(float(row[3]))
                any_residual = True
    return {
        "k": np.asarray(ks, dtype=int),
        "j": np.asarray(js, dtype=int),
        "step_length": np.asarray(steps, dtype=float),
        "residual": np.asarray(residuals, dtype=float) if any_residual else None,
    }


def write_matrix_csv(matrix, path) -> None:
    """N x N comma-separated reals, one row per line."""
    a = matrix.to_array() if isinstance(matrix, DistanceMatrix) else np.asarray(matrix)
    if np.issubdtype(a.dtype, np.integer):
        # a count matrix holds few distinct values: format each one once and
        # look the cells up (np.unique does the same several times slower)
        flat = np.sort(a, axis=None)
        values = np.concatenate((flat[:1], flat[1:][flat[1:] != flat[:-1]]))
        table = np.array([str(v) for v in values.tolist()], dtype=object)
        rows = table[np.searchsorted(values, a)].tolist()
    else:
        rows = [map(format_float, row) for row in a.tolist()]
    with Path(path).open("w", newline="") as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)


def read_matrix_csv(path) -> np.ndarray:
    """Read a square numeric CSV into a float matrix."""
    path = Path(path)
    rows = []
    with path.open(newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(v) for v in line.split(",")])
    a = np.asarray(rows, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got shape {a.shape}")
    return a


def load_distance_matrix(path) -> DistanceMatrix:
    """Read a matrix CSV and validate it as memory (zero diagonal etc.)."""
    return DistanceMatrix(read_matrix_csv(path))


def dumps_stable(obj) -> str:
    """JSON with sorted keys and a trailing newline: stable bytes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def trace_json_dict(trace: RunTrace, config_echo: dict | None = None) -> dict:
    """Full structured record of one run, JSON-ready."""
    out = {
        "status": trace.status,
        "n_sets": trace.n_sets,
        "n_projections": trace.n_projections,
        "x0": trace.x0.tolist(),
        "x_final": trace.x_final.tolist(),
        "set_indices": trace.set_indices.tolist(),
        "step_lengths": trace.step_lengths.tolist(),
        "residuals": None if trace.residuals is None else trace.residuals.tolist(),
        "transition_counts": trace.transition_counts().tolist(),
    }
    if trace.final_matrix is not None:
        out["final_matrix"] = trace.final_matrix.tolist()
    if config_echo is not None:
        out["config"] = config_echo
    return out


def write_trace_json(trace: RunTrace, path, config_echo: dict | None = None) -> None:
    Path(path).write_text(dumps_stable(trace_json_dict(trace, config_echo)))


def write_report(report, outdir, echo: dict | None = None) -> Path:
    """Write a preset report as a directory.

    Layout: config.json (byte-stable echo of what ran), summary.json
    (statistics, with the timestamp confined to its metadata block),
    traces/<label>_seed<S>.csv and frequency/<label>_seed<S>.csv.
    """
    outdir = Path(outdir)
    (outdir / "traces").mkdir(parents=True, exist_ok=True)
    (outdir / "frequency").mkdir(parents=True, exist_ok=True)

    config_echo = {
        "preset": report.preset,
        "n_sets": report.config.n_sets,
        "r": report.config.r,
        "iterations": report.iterations,
        "seeds": list(report.seeds),
        "params": dict(report.params),
        "methods": [m.label for m in report.methods],
    }
    if echo is not None:
        config_echo.update(echo)
    (outdir / "config.json").write_text(dumps_stable(config_echo))

    summary = report.summary()
    summary["metadata"] = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    (outdir / "summary.json").write_text(dumps_stable(summary))

    for m in report.methods:
        for seed, trace in zip(m.seeds, m.traces):
            stem = f"{m.label}_seed{seed}"
            write_trace_csv(trace, outdir / "traces" / f"{stem}.csv")
            write_matrix_csv(
                trace.transition_counts(), outdir / "frequency" / f"{stem}.csv"
            )
    return outdir
