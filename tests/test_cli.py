"""Command-line interface: subcommands, exit codes, output files."""
from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from memproj import LineThroughOrigin, __version__, cli, toylab
from memproj.cli import main
from memproj.config import ExperimentConfig

from conftest import subprocess_env
from test_golden import _run_configs


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

    @pytest.mark.parametrize("text,where", [
        ("0,1,1\n1,0\n1,1,0\n", "line 2: 2 entries, not 3"),
        ("0,1,\n1,0,1\n1,1,0\n", "line 1: could not convert string to float: ''"),
    ])
    def test_malformed_file_names_the_line(self, tmp_path, capsys, text, where):
        # NumPy's error once stood alone, naming neither the file nor the line
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert main(["check-matrix", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {where}"]


def _cpus(monkeypatch, count):
    """Let ``memproj run`` see ``count`` CPUs in its affinity mask, and
    return the list of the worker counts of the pools it makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    pools, pool = [], concurrent.futures.ProcessPoolExecutor

    def counted(workers, *args, **kwargs):
        pools.append(workers)
        return pool(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    return pools


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestRun:
    @pytest.fixture(autouse=True)
    def no_worker_outlives_the_run(self):
        yield
        assert multiprocessing.active_children() == []

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

    def test_run_stores_no_iterates_or_snapshots(self, toy_pam_config, tmp_path, monkeypatch):
        # the files hold neither, yet the two flags once made every run store them
        doc = {**json.loads(toy_pam_config.read_text()), "seeds": [0],  # one seed runs inline
               "flags": {"store_iterates": True, "matrix_snapshot_interval": 1}}
        toy_pam_config.write_text(json.dumps(doc))
        calls = []
        real = cli.run
        monkeypatch.setattr(cli, "run", lambda *args, **kw: calls.append(kw) or real(*args, **kw))
        out = tmp_path / "results"
        assert main(["run", str(toy_pam_config), "--out", str(out)]) == 0
        assert calls == [{"known_point": calls[0]["known_point"], "debug_asserts": False}]
        # the flags are still accepted and echoed
        assert json.loads((out / "config.json").read_text())["flags"] == {
            "debug_asserts": False, **doc["flags"]}

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
         "error: stop.max_iterations: must be an integer, not True\n"
         "error: seeds: must be an integer, not True\n"),
        ({"problem": {"kind": "custom",
                      "sets": [{"kind": "line", "direction": [1.0, 0.0]},
                               {"kind": "line", "direction": [0.0, 1.0]}],
                      "x0": [1.0, 1.0], "known_point": [0, None]}},
         "error: problem.known_point: must be a list of numbers\n"),
        ({"stop": {"max_iterations": 60, "step_tolerance": None}},
         "error: stop.step_tolerance: must be a number, not None\n"),
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

    def test_unknown_key_rejected_before_any_output(self, toy_pam_config, tmp_path, capsys):
        # a typo of "flags" once ran without the debug checks it asked for
        doc = json.loads(toy_pam_config.read_text())
        doc["flag"] = {"debug_asserts": True}
        toy_pam_config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["run", str(toy_pam_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: flag: unknown key\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["x0", "known_point"])
    def test_non_finite_point_rejected_before_any_output(self, tmp_path, capsys, key):
        # JSON 1e400 reads as inf, which no run can start from or measure to
        doc = {
            "problem": {"kind": "custom",
                        "sets": [{"kind": "line", "direction": [1.0, 0.0]},
                                 {"kind": "line", "direction": [0.0, 1.0]}],
                        "x0": [1.0, 1.0], "known_point": [0.0, 0.0]},
            "strategy": {"kind": "mcp"},
            "stop": {"max_iterations": 10},
        }
        doc["problem"][key] = [1.0, "BIG"]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "1e400"))
        out = tmp_path / "results"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: problem.{key}: must have finite entries\n"
        assert not out.exists()

    def test_parallel_toy_lines_rejected_before_any_output(
        self, toy_pam_config, tmp_path, capsys
    ):
        doc = json.loads(toy_pam_config.read_text())
        doc["problem"]["r"] = 1e-9
        toy_pam_config.write_text(json.dumps(doc))
        out = tmp_path / "results"
        assert main(["run", str(toy_pam_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: problem: lines 0 and 1 are parallel; "
            "their intersection is not a single point\n")
        assert not out.exists()

    def test_toy_fan_is_built_once(self, tmp_path, monkeypatch):
        built = []

        def line(direction):
            built.append(direction)
            return LineThroughOrigin(direction)

        monkeypatch.setattr(toylab, "LineThroughOrigin", line)
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"problem": {"kind": "toy", "n_sets": 9},
                                    "strategy": {"kind": "mcp"},
                                    "stop": {"max_iterations": 20}}))
        assert main(["run", str(path), "--out", str(tmp_path / "results")]) == 0
        assert len(built) == 9

    @pytest.mark.parametrize("change,error", [
        (lambda doc: doc.update(seeds=[0, -1]),
         "error: seeds: must be at least 0\n"),
        (lambda doc: doc["strategy"].update(seed=-7),
         "error: strategy.seed: must be at least 0\n"),
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

    def test_workers_write_the_bytes_of_one_worker(self, tmp_path, monkeypatch):
        configs = _run_configs(tmp_path)
        configs["pam_prior_average_custom"]["seeds"] = [3, 11, 0, 5]
        configs["mcp_toy_fan_no_known_point"]["seeds"] = [0, 1, 2]
        for name, doc in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        outputs = {}
        for cpus in (3, 1):
            pools = _cpus(monkeypatch, cpus)
            for name in configs:
                out = tmp_path / f"{name}-{cpus}"
                assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
                outputs[name, cpus] = _tree(out)
            assert pools == ([3, 3] if cpus == 3 else [])
        for name in configs:
            assert len(outputs[name, 3]) == 1 + 3 * len(configs[name]["seeds"])
            assert outputs[name, 3] == outputs[name, 1]

    def test_workers_raise_the_error_of_the_first_failing_seed(
        self, tmp_path, monkeypatch, capsys
    ):
        # the shuffles of seeds 6 and 0 trip the check at projections 1 and 0;
        # seed 1's would at projection 2, past the budget, so it writes files
        doc = {
            "problem": {
                "kind": "custom",
                "sets": [{"kind": "hyperplane", "normal": n, "offset": 0.0}
                         for n in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                   [1.0, 1.0, 1.0])],
                "x0": [3.0, 4.0, 5.0],
                "known_point": [0.0, 0.0, 0.25],
            },
            "strategy": {"kind": "mrp"},
            "stop": {"max_iterations": 2},
            "seeds": [6, 1, 0],
            "flags": {"debug_asserts": True},
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(doc))
        build = ExperimentConfig.build_strategy

        def slow_first_seed(self, seed=None):
            if seed == 6:  # the seeds after it finish first
                time.sleep(0.3)
            return build(self, seed)

        monkeypatch.setattr(ExperimentConfig, "build_strategy", slow_first_seed)
        errors = []
        for cpus in (3, 1):
            pools = _cpus(monkeypatch, cpus)
            out = tmp_path / f"runs{cpus}" / "o"
            assert main(["run", str(path), "--out", str(out)]) == 2
            assert not out.parent.exists()
            errors.append(capsys.readouterr().err)
            assert pools == ([3] if cpus == 3 else [])
        assert errors[0] == errors[1]
        assert errors[0].startswith("numeric error: projection 1: ")

    def test_without_an_affinity_mask_the_seeds_run_inline(
        self, toy_pam_config, tmp_path, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made")

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "results"
        assert main(["run", str(toy_pam_config), "--out", str(out)]) == 0
        assert len(_tree(out)) == 7

    def test_beside_another_thread_the_seeds_run_inline(
        self, toy_pam_config, tmp_path, monkeypatch
    ):
        pools = _cpus(monkeypatch, 3)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        out = tmp_path / "results"
        try:
            assert main(["run", str(toy_pam_config), "--out", str(out)]) == 0
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert pools == []
        assert len(_tree(out)) == 7


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

    def test_too_many_lines_rejected_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = main(["preset", "benchmark", "--N", str(10**12), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: n_sets must be at most 2300000; neighbouring lines of "
                       "a larger fan are parallel at every r\n")
        assert not out.exists()

    def test_omega_of_a_preset_without_a_band_rejected_before_any_output(
        self, tmp_path, capsys
    ):
        out = tmp_path / "rep"
        assert main(["preset", "benchmark", "--omega", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: preset 'benchmark' takes no omega; only sparse_forward reads it\n")
        assert not out.exists()

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
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__
