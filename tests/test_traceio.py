"""File formats: bit-exact floats, stable bytes, report layout."""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from memproj import (
    Memory,
    Policy,
    RunTrace,
    StoppingRule,
    ToyConfig,
    build_dense,
    make_toy_problem,
    run,
    run_preset,
)
from memproj.traceio import (
    dumps_stable,
    format_float,
    load_distance_matrix,
    read_matrix_csv,
    read_trace_csv,
    trace_json_dict,
    write_matrix_csv,
    write_report,
    write_trace_csv,
    write_trace_json,
)


def small_trace(seed=0, budget=40, known=True):
    sets, x0, sol = make_toy_problem(ToyConfig(9, 0.05))
    strategy = Memory(build_dense(9), Policy("min", 0.01), seed=seed)
    return run(sets, strategy, x0, StoppingRule.exact_budget(budget),
               known_point=sol if known else None)


class TestFloatFormat:
    @pytest.mark.parametrize(
        "value",
        [0.1, 1 / 3, np.pi, 1e-300, 5e-324, 123456.789, 2.0**-52, 0.0],
    )
    def test_seventeen_digit_round_trip(self, value):
        assert float(format_float(value)) == value

    def test_random_doubles_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
            assert float(format_float(v)) == v


class TestTraceCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        np.testing.assert_array_equal(back["k"], np.arange(trace.n_projections))
        np.testing.assert_array_equal(back["j"], trace.set_indices)
        assert np.array_equal(back["step_length"], trace.step_lengths)
        assert np.array_equal(back["residual"], trace.residuals)

    def test_header_is_stable(self, tmp_path):
        trace = small_trace(budget=3)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_text().splitlines()[0] == "k,j,step_length,residual"

    def test_missing_residual_column_round_trips(self, tmp_path):
        trace = small_trace(known=False)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back["residual"] is None

    def test_unexpected_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(small_trace(seed=4), a)
        write_trace_csv(small_trace(seed=4), b)
        assert a.read_bytes() == b.read_bytes()
        write_trace_csv(small_trace(seed=5), b)
        assert a.read_bytes() != b.read_bytes()


class TestMatrixCsv:
    def test_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.random((5, 5)) * 1e-7
        np.fill_diagonal(m, 0.0)
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        assert np.array_equal(read_matrix_csv(path), m)

    def test_integer_matrices_written_as_integers(self, tmp_path):
        counts = np.array([[0, 3], [2, 0]], dtype=np.int64)
        path = tmp_path / "c.csv"
        write_matrix_csv(counts, path)
        assert path.read_text() == "0,3\n2,0\n"

    def test_load_enforces_square(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,2\n3,0,4\n")
        with pytest.raises(ValueError, match="square"):
            load_distance_matrix(path)

    def test_load_enforces_zero_diagonal(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,1\n1,0\n")
        with pytest.raises(ValueError, match="diagonal"):
            load_distance_matrix(path)


class TestTraceJson:
    def test_full_record_contents(self, tmp_path):
        trace = small_trace(budget=25)
        echo = {"strategy": {"kind": "pam"}}
        d = trace_json_dict(trace, config_echo=echo)
        assert d["n_projections"] == 25
        assert d["config"] == echo
        assert np.asarray(d["transition_counts"]).sum() == 24
        assert "final_matrix" in d
        path = tmp_path / "t.json"
        write_trace_json(trace, path, config_echo=echo)
        assert json.loads(path.read_text())["status"] == trace.status


class TestReportDirectory:
    def test_layout_and_stability(self, tmp_path):
        report = run_preset("benchmark", seeds=[0, 1], iterations=30)
        out = tmp_path / "rep"
        write_report(report, out)
        assert (out / "config.json").exists()
        assert (out / "summary.json").exists()
        traces = sorted(p.name for p in (out / "traces").iterdir())
        assert traces == [
            "mcp_seed0.csv", "mcp_seed1.csv",
            "mrp_seed0.csv", "mrp_seed1.csv",
            "pam_seed0.csv", "pam_seed1.csv",
        ]
        freq = sorted(p.name for p in (out / "frequency").iterdir())
        assert len(freq) == 6

        # a second identical invocation differs only in the summary timestamp
        out2 = tmp_path / "rep2"
        write_report(run_preset("benchmark", seeds=[0, 1], iterations=30), out2)
        assert (out / "config.json").read_bytes() == (out2 / "config.json").read_bytes()
        for name in traces:
            assert (out / "traces" / name).read_bytes() == (
                out2 / "traces" / name
            ).read_bytes()
        s1 = json.loads((out / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        s1.pop("metadata"), s2.pop("metadata")
        assert s1 == s2

    def test_summary_has_per_method_stats(self, tmp_path):
        report = run_preset("benchmark", seeds=[0], iterations=20)
        out = write_report(report, tmp_path / "rep")
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["methods"]) == {"mcp", "mrp", "pam"}
        assert "generated_at" in summary["metadata"]


# The writers as first written (csv.writer and per-element numpy reads),
# kept as references for the byte-identical fast writers.

def _write_trace_csv_reference(trace, path):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("k", "j", "step_length", "residual"))
        for k in range(trace.n_projections):
            residual = (
                "" if trace.residuals is None else format_float(trace.residuals[k])
            )
            writer.writerow((str(k), str(int(trace.set_indices[k])),
                             format_float(trace.step_lengths[k]), residual))


def _write_matrix_csv_reference(a, path):
    with path.open("w", newline="") as fh:
        for row in a:
            if np.issubdtype(a.dtype, np.integer):
                fh.write(",".join(str(int(v)) for v in row) + "\n")
            else:
                fh.write(",".join(format_float(v) for v in row) + "\n")


def _trace_json_dict_reference(trace):
    out = {
        "status": trace.status,
        "n_sets": trace.n_sets,
        "n_projections": trace.n_projections,
        "x0": [float(v) for v in trace.x0],
        "x_final": [float(v) for v in trace.x_final],
        "set_indices": [int(v) for v in trace.set_indices],
        "step_lengths": [float(v) for v in trace.step_lengths],
        "residuals": None
        if trace.residuals is None
        else [float(v) for v in trace.residuals],
        "transition_counts": trace.transition_counts().tolist(),
    }
    if trace.final_matrix is not None:
        out["final_matrix"] = [[float(v) for v in row] for row in trace.final_matrix]
    return out


_SPECIALS = [-0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3, np.inf, np.nan, 2.0**-1074 * 3]


def _special_trace(with_residuals):
    steps = np.array(_SPECIALS)
    return RunTrace(
        set_indices=np.array([0, 3, 1, 2, 0, 1, 3, 2, 0]),
        step_lengths=steps,
        status="max_iterations",
        n_sets=4,
        x0=np.array([-0.0, 1e308]),
        x_final=np.array([5e-324, -1.5]),
        residuals=steps[::-1].copy() if with_residuals else None,
        final_matrix=np.array([[0.0, 1e-300, np.inf, 2.5]] * 4),
    )


class TestWritersMatchReference:
    @pytest.mark.parametrize("with_residuals", [True, False])
    def test_trace_csv_bytes(self, tmp_path, with_residuals):
        trace = _special_trace(with_residuals)
        write_trace_csv(trace, tmp_path / "fast.csv")
        _write_trace_csv_reference(trace, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("known", [True, False])
    def test_trace_csv_bytes_of_a_real_run(self, tmp_path, known):
        trace = small_trace(seed=2, budget=200, known=known)
        write_trace_csv(trace, tmp_path / "fast.csv")
        _write_trace_csv_reference(trace, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[0, 3, -2], [2, 0, 2**60 + 1], [1, 1, 0]], dtype=np.int64),
            np.array([[0, 7], [1, 0]], dtype=np.int32),
            np.array([_SPECIALS[:4], _SPECIALS[4:8], _SPECIALS[1:5], _SPECIALS[5:]]),
            np.random.default_rng(0).random((6, 6)) * 1e-7,
        ],
    )
    def test_matrix_csv_bytes(self, tmp_path, matrix):
        write_matrix_csv(matrix, tmp_path / "fast.csv")
        _write_matrix_csv_reference(matrix, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("with_residuals", [True, False])
    def test_trace_json_bytes(self, with_residuals):
        for trace in (_special_trace(with_residuals), small_trace(budget=50)):
            assert dumps_stable(trace_json_dict(trace)) == \
                dumps_stable(_trace_json_dict_reference(trace))
