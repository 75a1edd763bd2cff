"""Command-line interface: subcommands, exit codes, output files."""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

from memproj import __version__
from memproj.cli import main


@pytest.fixture()
def toy_pam_config(tmp_path):
    doc = {
        "problem": {"kind": "toy", "n_sets": 9, "r": 0.05},
        "strategy": {
            "kind": "pam",
            "matrix": {"kind": "dense", "scale": 1.0},
            "policy": {"kind": "min", "beta": 0.01},
            "seed": 7,
        },
        "stop": {"max_iterations": 60},
        "seeds": [0, 1],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


class TestCheckMatrix:
    def test_admissible_verdict(self, tmp_path, capsys):
        path = tmp_path / "fwd.csv"
        path.write_text("0,1,0,0\n0,0,1,0\n0,0,0,1\n1,0,0,0\n")
        assert main(["check-matrix", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "admissible"

    def test_inadmissible_verdict_names_a_witness(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n0,0\n")
        assert main(["check-matrix", str(path)]) == 0
        out = capsys.readouterr().out
        assert "inadmissible" in out
        assert "from set 1 to set 0" in out

    def test_nonzero_diagonal_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "diag.csv"
        path.write_text("0.5,1\n1,0\n")
        assert main(["check-matrix", str(path)]) == 1
        assert "diagonal" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check-matrix", str(tmp_path / "none.csv")]) == 1


class TestRun:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.cfg")]) == 1
        assert capsys.readouterr().err != ""

    def test_invalid_config_lists_all_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "problem": {"kind": "toy", "n_sets": 1},
            "strategy": {"kind": "pam", "matrix": {"kind": "dense"},
                         "policy": {"kind": "min", "beta": 2.0}},
            "stop": {"max_iterations": 10},
        }))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "problem.n_sets" in err
        assert "strategy.policy.beta" in err

    def test_executes_and_writes_outputs(self, toy_pam_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", str(toy_pam_config), "--out", str(out)]) == 0
        for seed in (0, 1):
            assert (out / f"trace_seed{seed}.csv").exists()
            assert (out / f"trace_seed{seed}.json").exists()
            assert (out / f"frequency_seed{seed}.csv").exists()
        record = json.loads((out / "trace_seed0.json").read_text())
        assert record["n_projections"] == 60
        assert record["config"]["strategy"]["kind"] == "pam"

    def test_byte_identical_outputs_across_invocations(self, toy_pam_config, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["run", str(toy_pam_config), "--out", str(out1)]) == 0
        assert main(["run", str(toy_pam_config), "--out", str(out2)]) == 0
        for seed in (0, 1):
            name = f"trace_seed{seed}.csv"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_short_step_window_rejected_before_any_output(
        self, toy_pam_config, tmp_path, capsys
    ):
        doc = json.loads(toy_pam_config.read_text())
        doc["stop"]["step_window"] = 3
        toy_pam_config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["run", str(toy_pam_config), "--out", str(out)]) == 1
        assert "error: stop.step_window:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change,error", [
        ({"seeds": [True, False], "stop": {"max_iterations": True}},
         "error: stop.max_iterations: must be an integer >= 1\n"
         "error: seeds: must be a list of integers\n"),
        ({"problem": {"kind": "custom",
                      "sets": [{"kind": "line", "direction": [1.0, 0.0]},
                               {"kind": "line", "direction": [0.0, 1.0]}],
                      "x0": [1.0, 1.0], "known_point": [0, None]}},
         "error: problem.known_point: must be a list of 2 numbers\n"),
    ])
    def test_non_number_rejected_before_any_output(
        self, toy_pam_config, tmp_path, capsys, change, error
    ):
        doc = {**json.loads(toy_pam_config.read_text()), **change}
        toy_pam_config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["run", str(toy_pam_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == error
        assert not out.exists()

    @pytest.mark.parametrize("change,error", [
        (lambda doc: doc.update(seeds=[0, -1]),
         "error: seeds: must be a list of integers >= 0\n"),
        (lambda doc: doc["strategy"].update(seed=-7),
         "error: strategy.seed: must be an integer >= 0\n"),
    ])
    def test_negative_seed_rejected_before_any_output(
        self, toy_pam_config, tmp_path, capsys, change, error
    ):
        # NumPy's generators take no negative seed; the run must not start
        doc = json.loads(toy_pam_config.read_text())
        change(doc)
        toy_pam_config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["run", str(toy_pam_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == error
        assert not out.exists()

    def test_infeasible_reference_point_is_a_numeric_error(self, tmp_path, capsys):
        # debug checks compare against a point that is not in the
        # intersection, so the monotonicity check must trip: exit code 2
        doc = {
            "problem": {
                "kind": "custom",
                "sets": [
                    {"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 0.0},
                    {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
                ],
                "x0": [2.0, 0.0],
                "known_point": [2.0, 5.0],
            },
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 10},
            "flags": {"debug_asserts": True},
        }
        path = tmp_path / "bad_ref.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "numeric error" in capsys.readouterr().err

    @staticmethod
    def _failing_config(tmp_path):
        doc = {
            "problem": {
                "kind": "custom",
                "sets": [
                    {"kind": "hyperplane", "normal": [1.0, 0.0], "offset": 0.0},
                    {"kind": "hyperplane", "normal": [0.0, 1.0], "offset": 0.0},
                ],
                "x0": [3.0, 4.0],
                "known_point": [1.0, 1.0],
            },
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 10},
            "flags": {"debug_asserts": True},
        }
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(doc))
        return path

    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "runs" / "o"
        assert main(["run", str(self._failing_config(tmp_path)), "--out", str(out)]) == 2
        assert "numeric error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_failed_run_keeps_files_already_in_the_output_directory(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        assert main(["run", str(self._failing_config(tmp_path)), "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "keep me"


class TestPreset:
    def test_benchmark_writes_report(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main([
            "preset", "benchmark", "--N", "9", "--r", "0.05",
            "--iters", "30", "--seeds", "2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "summary.json").exists()
        assert (out / "traces" / "pam_seed1.csv").exists()
        config = json.loads((out / "config.json").read_text())
        assert config["seeds"] == [0, 1]

    def test_sparse_forward_takes_omega(self, tmp_path):
        out = tmp_path / "rep"
        code = main([
            "preset", "sparse_forward", "--omega", "4", "--iters", "25",
            "--seeds", "1", "--out", str(out),
        ])
        assert code == 0
        assert (out / "traces" / "pam_omega4_seed0.csv").exists()

    def test_unknown_preset_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["preset", "nonsense"])

    def test_output_dir_env_var_default(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from_env"
        monkeypatch.setenv("MEMPROJ_OUTPUT_DIR", str(target))
        code = main(["preset", "benchmark", "--iters", "15", "--seeds", "1"])
        assert code == 0
        assert (target / "summary.json").exists()


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "memproj", "version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__
