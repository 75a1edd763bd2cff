"""Bit-stable file formats: trace CSV, matrix CSV, JSON records.

CSV floats are written with 17 significant digits and JSON floats as their
shortest round-trip repr, so reading a file back reproduces the exact double
that was written.  Given the same inputs and seeds, every writer here produces
byte-identical files; the only timestamp lives in the metadata block of a
report's summary.json.  JSON is ``json.dumps(obj, indent=2, sort_keys=True)``
byte for byte, but written by ``_encode``: with an indent, CPython's json
skips its C encoder for a pure-Python one, several times slower on traces.
"""
from __future__ import annotations

import csv
import json
import shutil
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _encode_str
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


def _encode(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` nested at ``indent``.

    Str-keyed dicts, lists, str, int and finite float are written here; the
    rest (NaN, tuples, subclasses, empty containers...) goes to json.dumps.
    """
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int or kind is float and "n" not in repr(obj):  # not nan or inf
        return kind.__repr__(obj)
    if obj and (kind is list or kind is dict and all(type(k) is str for k in obj)):
        inner = indent + "  "
        sep = ",\n" + inner
        if kind is dict:
            items = [_encode_str(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
            return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
        kinds, body = set(map(type, obj)), ""
        if kinds == {float} or kinds == {int}:
            body = sep.join(map(kinds.pop().__repr__, obj))
        if not body or "n" in body:  # mixed types, or a float list with nan or inf
            body = sep.join([_encode(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def dumps_stable(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline: stable bytes."""
    return _encode(obj, "") + "\n"


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


def write_trace_json(trace: RunTrace, path, config_echo: dict | str | None = None) -> None:
    """Write ``dumps_stable(trace_json_dict(trace, config_echo))``; an echo
    given as ``dumps_stable(echo)`` text is spliced in, not encoded again."""
    text = _encode(trace_json_dict(trace), "")
    if config_echo is not None:
        if not isinstance(config_echo, str):
            config_echo = dumps_stable(config_echo)
        # "config" sorts before every other key of the record
        text = '{\n  "config": ' + config_echo[:-1].replace("\n", "\n  ") + "," + text[1:]
    Path(path).write_text(text + "\n")


def write_report(report, outdir) -> Path:
    """Write a preset report as a directory.

    Layout: config.json (byte-stable echo of what ran), summary.json
    (statistics, with the timestamp confined to its metadata block),
    traces/<label>_seed<S>.csv and frequency/<label>_seed<S>.csv.  A trace
    whose recorded bits equal those of the method's previous trace gets
    copies of that trace's two files, which hold the same bytes.
    """
    outdir = Path(outdir)
    (outdir / "traces").mkdir(parents=True, exist_ok=True)
    (outdir / "frequency").mkdir(parents=True, exist_ok=True)

    summary = report.summary()
    labels = [m.label for m in report.methods]
    # the echo of what ran is the summary's header, with the methods listed
    (outdir / "config.json").write_text(dumps_stable({**summary, "methods": labels}))
    summary["metadata"] = {
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    (outdir / "summary.json").write_text(dumps_stable(summary))

    for m in report.methods:
        last_key = last_paths = None
        for seed, trace in zip(m.seeds, m.traces):
            stem = f"{m.label}_seed{seed}"
            paths = (outdir / "traces" / f"{stem}.csv", outdir / "frequency" / f"{stem}.csv")
            arrays = (trace.set_indices, trace.step_lengths, trace.residuals)
            # both files are made from these bits alone (summary() needs residuals)
            key = (trace.n_sets, *((a.dtype.str, a.tobytes()) for a in arrays))
            if key != last_key:
                write_trace_csv(trace, paths[0])
                write_matrix_csv(trace.transition_counts(), paths[1])
                last_key, last_paths = key, paths
            elif paths != last_paths:  # a repeated seed names the same files
                for src, dst in zip(last_paths, paths):
                    shutil.copyfile(src, dst)
    return outdir
