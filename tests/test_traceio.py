"""File formats: bit-exact floats, stable bytes, report layout."""
from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memproj import (
    Cyclic,
    Memory,
    MethodResult,
    Policy,
    PresetReport,
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

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n0,1.5\n  \n2,0\n\n")
        np.testing.assert_array_equal(read_matrix_csv(path), [[0.0, 1.5], [2.0, 0.0]])

    def test_malformed_row_named_by_its_line_in_the_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n0,1.5\n  \n2,0,1\n")
        with pytest.raises(ValueError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path}: line 4: 3 entries, not 2"

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


def _trace_json_dict_reference(trace, config_echo=None):
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
    if config_echo is not None:
        out["config"] = config_echo
    return out


_SPECIALS = [-0.0, 0.0, 5e-324, 1e308, 0.1, 1 / 3, np.inf, np.nan, 2.0**-1074 * 3]


def _special_trace(with_residuals, with_matrix=True):
    steps = np.array(_SPECIALS)
    return RunTrace(
        set_indices=np.array([0, 3, 1, 2, 0, 1, 3, 2, 0]),
        step_lengths=steps,
        status="max_iterations",
        n_sets=4,
        x0=np.array([-0.0, 1e308]),
        x_final=np.array([5e-324, -1.5]),
        residuals=steps[::-1].copy() if with_residuals else None,
        final_matrix=np.array([[0.0, 1e-300, np.inf, 2.5]] * 4) if with_matrix else None,
    )


# a config echo as execute_config writes it, with strings json must escape
_ECHO = {
    "problem": {"kind": "toy", "n_sets": 9, "r": 0.05},
    "strategy": {"kind": "pam", "matrix": {"kind": "prior", "path": "wé\"ights\\\n.csv"},
                 "policy": {"kind": "average", "beta": 0.5}, "seed": None},
    "stop": {"max_iterations": 1000, "step_window": None, "step_tolerance": 1e-12,
             "residual_tolerance": 5e-324},
    "seeds": [0, 2**70, -3],
    "output_dir": None,
    "flags": {"debug_asserts": False, "store_iterates": True,
              "matrix_snapshot_interval": None},
}


def _bump_residual(t):
    t.residuals[4] = np.nextafter(t.residuals[4], 1.0)


def _negate_zero_step(t):
    t.step_lengths[1] = -0.0


# each turns one trace into another whose files differ; equal values with
# other bits (0.0 and -0.0) are written differently, so they count as different
_CHANGES = {
    "residual": _bump_residual,
    "signed_zero_step": _negate_zero_step,
    "set_index": lambda t: t.set_indices.__setitem__(-1, 3),
    "n_sets": lambda t: setattr(t, "n_sets", 5),
}


class TestReportRepeatedTraces:
    """write_report copies the files of a trace equal to the one before it."""

    @staticmethod
    def _write(tmp_path, traces, seeds):
        report = PresetReport(preset="benchmark", config=ToyConfig(), iterations=9,
                              seeds=seeds, params={}, methods=[MethodResult("mcp", traces, seeds)])
        return write_report(report, tmp_path / "rep")

    @pytest.mark.parametrize("change", [None, *_CHANGES], ids=str)
    def test_each_seed_gets_the_files_of_its_own_trace(self, tmp_path, change):
        traces = [_special_trace(True), _special_trace(True)]
        for t in traces:  # without NaN, equal values are equal lists
            np.nan_to_num(t.step_lengths, copy=False)
            np.nan_to_num(t.residuals, copy=False)
        if change is not None:
            _CHANGES[change](traces[1])
        out = self._write(tmp_path, traces, [0, 1])
        for seed, trace in enumerate(traces):
            write_trace_csv(trace, tmp_path / "trace.csv")
            write_matrix_csv(trace.transition_counts(), tmp_path / "freq.csv")
            assert (out / "traces" / f"mcp_seed{seed}.csv").read_bytes() == (
                tmp_path / "trace.csv").read_bytes()
            assert (out / "frequency" / f"mcp_seed{seed}.csv").read_bytes() == (
                tmp_path / "freq.csv").read_bytes()
        first, second = ((out / "traces" / f"mcp_seed{s}.csv").read_bytes() for s in (0, 1))
        assert (first == second) == (change in (None, "n_sets"))

    def test_repeated_seed(self, tmp_path):
        out = self._write(tmp_path, [_special_trace(True)] * 3, [4, 4, 2])
        names = sorted(p.name for p in (out / "traces").iterdir())
        assert names == ["mcp_seed2.csv", "mcp_seed4.csv"]
        write_trace_csv(_special_trace(True), tmp_path / "trace.csv")
        for name in names:
            assert (out / "traces" / name).read_bytes() == (tmp_path / "trace.csv").read_bytes()


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
            np.zeros((0, 0), dtype=np.int64),
            np.array([_SPECIALS[:4], _SPECIALS[4:8], _SPECIALS[1:5], _SPECIALS[5:]]),
            np.random.default_rng(0).random((6, 6)) * 1e-7,
        ],
    )
    def test_matrix_csv_bytes(self, tmp_path, matrix):
        write_matrix_csv(matrix, tmp_path / "fast.csv")
        _write_matrix_csv_reference(matrix, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @given(
        n=st.integers(1, 6),
        data=st.data(),
        dtype=st.sampled_from([np.int64, np.int32, np.uint64, np.uint8]),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_matrix_csv_bytes_equal_map_str(self, tmp_path_factory, n, data, dtype):
        info = np.iinfo(dtype)
        # a few distinct values, as in count matrices, or any values at all
        pool = data.draw(st.lists(st.integers(int(info.min), int(info.max)),
                                  min_size=1, max_size=n * n))
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))
        matrix = np.array(cells, dtype=dtype).reshape(n, n)
        path = tmp_path_factory.mktemp("m") / "m.csv"
        write_matrix_csv(matrix, path)
        expected = "".join(",".join(map(str, row)) + "\n" for row in matrix.tolist())
        assert path.read_bytes() == expected.encode()

    def test_frequency_matrix_of_a_real_run(self, tmp_path):
        counts = small_trace(seed=3, budget=400).transition_counts()
        write_matrix_csv(counts, tmp_path / "fast.csv")
        _write_matrix_csv_reference(counts, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("echo", [None, _ECHO, {}])
    @pytest.mark.parametrize("with_matrix", [True, False])
    @pytest.mark.parametrize("with_residuals", [True, False])
    def test_trace_json_bytes(self, tmp_path, with_residuals, with_matrix, echo):
        traces = [_special_trace(with_residuals, with_matrix),
                  small_trace(budget=50, known=with_residuals)]
        if not with_matrix:
            sets, x0, sol = make_toy_problem(ToyConfig(9, 0.05))
            traces[1] = run(sets, Cyclic(9), x0, StoppingRule.exact_budget(50),
                            known_point=sol if with_residuals else None)
        for trace in traces:
            assert (trace.residuals is not None) == with_residuals
            assert (trace.final_matrix is not None) == with_matrix
            expected = json.dumps(_trace_json_dict_reference(trace, echo),
                                  indent=2, sort_keys=True) + "\n"
            write_trace_json(trace, tmp_path / "t.json", config_echo=echo)
            assert (tmp_path / "t.json").read_text() == expected
            if echo is not None:  # the echo already encoded, as execute_config passes it
                write_trace_json(trace, tmp_path / "t.json", config_echo=dumps_stable(echo))
                assert (tmp_path / "t.json").read_text() == expected


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   math.nan, math.inf, -math.inf, 0.1, 1e16, 1e-7]
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_text = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200).map(lambda v: -v),
    st.integers(2**64, 2**200), _floats, _floats.map(np.float64), _text,
)
_json_like = st.recursive(
    st.one_of(
        _scalars,
        st.lists(_floats),
        st.lists(st.one_of(_floats, _floats.map(np.float64))),
        st.lists(st.integers()),
        st.lists(st.one_of(st.booleans(), st.integers())),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
    ),
    max_leaves=12,
)


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)
    return None


class TestDumpsStableMatchesJson:
    @given(_json_like)
    @settings(max_examples=500, deadline=None)
    def test_bytes_equal_json_dumps(self, obj):
        assert dumps_stable(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("obj", [
        [-0.0, 5e-324, 1.7976931348623157e308], [1.0, math.nan], [math.inf], -math.inf,
        [True, 1, False, 0], [2**64 + 1, -(2**70)], np.float64(0.1), [np.float64(1.5), 2.0],
        {"\u00e9\"\\\x01": "\n\u2028"}, (1, [2.0]), [], {}, [[], {}], {3: 1.0, 1: [True]},
        {"a": {"b": [[0.5, -0.0], [1, 2]], "c": None}}, "", 0, -0.0,
    ])
    def test_listed_values(self, obj):
        assert dumps_stable(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("obj", [
        np.int64(3), {1, 2}, [1.0, np.int64(2)], {"a": {1}}, {"a": 1, 2: "b"}, [object()],
    ])
    def test_rejected_values_raise_as_json_does(self, obj):
        expected = _raised(lambda: json.dumps(obj, indent=2, sort_keys=True))
        assert expected is not None
        assert _raised(lambda: dumps_stable(obj)) is expected
