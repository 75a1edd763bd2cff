"""Golden traces: digests of seeded runs, pinned across versions.

Each case runs one fixed config and hashes, with SHA-256, the trace's
status and the bytes of its ``set_indices``, ``step_lengths`` and
``residuals``, then ``x_final`` and, for the memory strategy,
``final_matrix``.  The digests were taken from the code before the hot
loop was first optimised; any change to the loop, the memory update or the
stopping rules that moves a single bit of a trace fails here.  Re-pin only for an intended behaviour
change, and say so in the change log.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from memproj import (
    AffineSubspace,
    Ball,
    Box,
    Cyclic,
    Halfspace,
    Hyperplane,
    LineThroughOrigin,
    Memory,
    Policy,
    RandomizedCycles,
    StoppingRule,
    ToyConfig,
    build_banded_bidirectional,
    build_banded_forward,
    build_dense,
    build_prior_matrix,
    make_toy_problem,
    run,
    run_preset,
)
from memproj.cli import execute_config
from memproj.config import parse_config, set_to_descriptor
from memproj.traceio import dumps_stable, write_matrix_csv, write_report


def _toy(n):
    return make_toy_problem(ToyConfig(n, 0.05))


def _prior(n):
    """Forward cycle plus a few fixed long jumps with unequal weights."""
    w = np.zeros((n, n))
    for m in range(n):
        w[m, (m + 1) % n] = 1.0
        w[m, (m + 5) % n] = 0.5 + 0.1 * (m % 3)
        w[m, (m + n - 2) % n] = 0.25
    return build_prior_matrix(w)


def _custom_problem():
    """Twelve sets in R^6, two of each family, whose only common point is 0."""
    rng = np.random.default_rng(2024)
    d = 6
    base = np.ones(d) / np.sqrt(d)

    def tilted():
        v = base + 0.2 * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    sets = []
    for _ in range(2):
        sets.append(Hyperplane(rng.standard_normal(d), 0.0))
        sets.append(Halfspace(rng.standard_normal(d), rng.uniform(0.0, 0.5)))
        c = rng.uniform(-2.0, 2.0, size=d)
        sets.append(Ball(c, np.linalg.norm(c) * rng.uniform(1.0, 1.3)))
        sets.append(Box(-rng.uniform(0.1, 3.0, size=d), rng.uniform(0.1, 3.0, size=d)))
        sets.append(LineThroughOrigin(tilted()))
        sets.append(AffineSubspace(np.zeros(d), np.vstack([tilted(), rng.standard_normal(d)])))
    x0 = rng.uniform(-4.0, 4.0, size=d)
    return sets, x0, np.zeros(d)


def _case(problem, strategy, stop, **kwargs):
    sets, x0, sol = problem
    return lambda: run(sets, strategy(), x0, stop, known_point=sol, **kwargs)


BUDGET = StoppingRule.exact_budget(3000)
MIN = Policy("min", 0.01)
AVERAGE = Policy("average", 0.5)

CASES = {
    "mcp_n9": _case(_toy(9), lambda: Cyclic(9), BUDGET),
    "mrp_n9": _case(_toy(9), lambda: RandomizedCycles(9, seed=3), BUDGET),
    "pam_dense_min_n9": _case(_toy(9), lambda: Memory(build_dense(9), MIN, seed=1), BUDGET),
    "pam_dense_average_n9": _case(
        _toy(9), lambda: Memory(build_dense(9), AVERAGE, seed=2), BUDGET),
    "pam_dense_min_n64_ties": _case(
        _toy(64), lambda: Memory(build_dense(64), MIN, seed=0), BUDGET),
    "pam_forward_w2_min_n16": _case(
        _toy(16), lambda: Memory(build_banded_forward(16, 2), MIN, seed=4), BUDGET),
    "pam_bidirectional_w2_average_n16": _case(
        _toy(16),
        lambda: Memory(build_banded_bidirectional(16, 2, 0.3), AVERAGE, seed=5), BUDGET),
    "pam_prior_min_n12": _case(
        _toy(12), lambda: Memory(_prior(12), MIN, seed=6, start_index=3), BUDGET),
    "pam_residual_stop_n9": _case(
        _toy(9), lambda: Memory(build_dense(9), MIN, seed=7),
        StoppingRule(max_iterations=100_000, step_tolerance=5e-324,
                     residual_tolerance=1e-6)),
    "mcp_step_window_stop_n9": _case(
        _toy(9), lambda: Cyclic(9),
        StoppingRule(max_iterations=100_000, step_window=9, step_tolerance=1e-4)),
    "pam_step_window_stop_n9": _case(
        _toy(9), lambda: Memory(build_dense(9), AVERAGE, seed=8),
        StoppingRule(max_iterations=100_000, step_tolerance=1e-5)),
    "custom_six_families_pam_average": _case(
        _custom_problem(), lambda: Memory(build_dense(12), AVERAGE, seed=9),
        StoppingRule(max_iterations=50_000, step_tolerance=5e-324,
                     residual_tolerance=1e-8)),
    "custom_six_families_mrp_debug": _case(
        _custom_problem(), lambda: RandomizedCycles(12, seed=10), BUDGET,
        debug_asserts=True),
}

GOLDEN = {
    "custom_six_families_mrp_debug": "71cf4224acb95acf838eac1f0037e30004cde544503a27bd736012e88370b069",
    "custom_six_families_pam_average": "2078b0a8f213e5d90420ff8128dca08c0ffd1e0dd3a82c344be36aa0c3d7f542",
    "mcp_n9": "b7d21bc63be80ca0d15b8958d4d273b65fde7314158dba1bd7993bf2a63dd124",
    "mcp_step_window_stop_n9": "af0dde94439190e1e84d223d82d58c761e626f91d3dfe655828d5c7053f15e17",
    "mrp_n9": "08fd4dc10173a2a448b18cb6b467d1b314c5cac095693f736d7c39c75f4cff26",
    "pam_bidirectional_w2_average_n16": "e9f4934ca69b0b067a8289bdb0a94beb80349b3fc04c13698a64d6a05062af45",
    "pam_dense_average_n9": "7e6717acbfabb9d2d88719d7af4f1488bab56f480269dd477517c67451b4744f",
    "pam_dense_min_n64_ties": "df01c21a2339d7d50dafddc5cf634273510e63dfbe1de99cd4152dcaf921dc43",
    "pam_dense_min_n9": "b9db1dc8f2913a2c4f32f5e54684679175b04c57aad5fd39106b1b252fbafe3b",
    "pam_forward_w2_min_n16": "af918306b8aab0ab2288e6b03ac1c28a48a64cffccdd6d7c4f9c95c0f780c778",
    "pam_prior_min_n12": "ad26bbceea960c9686b0534b60b5b32f680af6c09f9ccc042274f5d6ba3c7771",
    "pam_residual_stop_n9": "b5f4e23a8390c5cedc0c314ea37627dd1b907acfac1498d3ff57c07c6b12a830",
    "pam_step_window_stop_n9": "0919486244c61b84da47eb5e3273fe36030122f28f72eda713b03af5e088c625",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    h.update(trace.status.encode())
    for a in (trace.set_indices, trace.step_lengths, trace.residuals, trace.x_final,
              trace.final_matrix):
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden_digest(name):
    assert trace_digest(CASES[name]()) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


# SHA-256 of every file write_report writes for
# run_preset("benchmark", ToyConfig(64), seeds=range(3)); summary.json is
# hashed without its metadata block (it carries a timestamp)
REPORT_GOLDEN = {
    "config.json":
        "2a99f956d000aceb52b24a6dd8d6d95a72c0c6b541497b33eb3468c084f4a9ae",
    "frequency/mcp_seed0.csv":
        "2098d7bb27d3dff7d13489677620e8b76a15306ee45fd381aa78ad68b89aa7ab",
    "frequency/mcp_seed1.csv":
        "2098d7bb27d3dff7d13489677620e8b76a15306ee45fd381aa78ad68b89aa7ab",
    "frequency/mcp_seed2.csv":
        "2098d7bb27d3dff7d13489677620e8b76a15306ee45fd381aa78ad68b89aa7ab",
    "frequency/mrp_seed0.csv":
        "9f624039596a03657cdf94b9b291dcca46fa4faf40fec22a1e2031150ff64952",
    "frequency/mrp_seed1.csv":
        "4a873e9be63a64063982054809aea4ef5cce0a8ea66ee4876201424d56f8834b",
    "frequency/mrp_seed2.csv":
        "86c4e2d0aaf9ffcbc5b98ea51052669306e5dd1b699893d31b40fa7b28615cdc",
    "frequency/pam_seed0.csv":
        "4eda115c97e3a6f0f2779e9cbfdae9a5b7bf353a607208174aa9cb8a5c3c4818",
    "frequency/pam_seed1.csv":
        "d28fac39c37172922152ea0f9a557ddf0eca17b75f25418425002dd05a376073",
    "frequency/pam_seed2.csv":
        "9feb5a426a4141f7cd2bb0fba3ca20d49d81cadf66c305aa5c38151913ed863c",
    "summary.json":
        "6279e55209d7557382d62e6d4b79e3eef9c38d0584ab8e841c5b8eb3f4986d0f",
    "traces/mcp_seed0.csv":
        "7511cd47d09b3064bd030b61476f9672bf381d0c98ced219cf0bae8fdcc8b4b2",
    "traces/mcp_seed1.csv":
        "7511cd47d09b3064bd030b61476f9672bf381d0c98ced219cf0bae8fdcc8b4b2",
    "traces/mcp_seed2.csv":
        "7511cd47d09b3064bd030b61476f9672bf381d0c98ced219cf0bae8fdcc8b4b2",
    "traces/mrp_seed0.csv":
        "bc1b1cce78a578dc32ed6282cce193e13530723279c2b500d03cf378a5254f80",
    "traces/mrp_seed1.csv":
        "4cd8205e8cbf726f9dd7d81c58133290762e80fd5456ae9d197a2e4fc0ea68a3",
    "traces/mrp_seed2.csv":
        "45b8685cd7ac4b1ffcc311bf7a3ad039d5bce2c3d60b6cfbba409fa2758be47d",
    "traces/pam_seed0.csv":
        "5577bd2967eb328edf0d1b1642cb0ac70dab68bcbdbdd78ba2081a60611ddf66",
    "traces/pam_seed1.csv":
        "5546e4743ba4ea278b188d274a318ddb895a9519291dc0fa36e0c2c5bcd717ac",
    "traces/pam_seed2.csv":
        "246956db0c5de0169a3fb3d4a3433487abc0846dfb7cd4402c201ee3ee63ffe7",
}


def report_digests(outdir) -> dict:
    out = {}
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            del summary["metadata"]
            data = dumps_stable(summary).encode()
        out[path.relative_to(outdir).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def test_report_bytes_match_golden_digests(tmp_path):
    report = run_preset("benchmark", ToyConfig(64), seeds=range(3))
    assert report_digests(write_report(report, tmp_path / "report")) == REPORT_GOLDEN


def _run_configs(inputs):
    """Two `memproj run` configs: custom pam with a prior CSV, toy-fan mcp.

    The prior's equal weights make ties, so the two pam seeds differ.
    """
    w = np.zeros((12, 12))
    for m in range(12):
        w[m, [(m + 1) % 12, (m + 5) % 12, (m + 10) % 12]] = 1.0
    write_matrix_csv(w, inputs / "prior.csv")
    sets, x0, sol = _custom_problem()
    pam = {
        "problem": {"kind": "custom", "sets": [set_to_descriptor(s) for s in sets],
                    "x0": x0.tolist(), "known_point": sol.tolist()},
        "strategy": {"kind": "pam", "matrix": {"kind": "prior", "path": "prior.csv"},
                     "policy": {"kind": "average", "beta": 0.5}},
        "stop": {"max_iterations": 50_000, "step_tolerance": 5e-324,
                 "residual_tolerance": 1e-8},
        "seeds": [3, 11],
    }
    fan, fan_x0, _ = _toy(9)
    mcp = {
        "problem": {"kind": "custom", "sets": [set_to_descriptor(s) for s in fan],
                    "x0": fan_x0.tolist()},
        "strategy": {"kind": "mcp"},
        "stop": {"max_iterations": 400},
    }
    return {"pam_prior_average_custom": pam, "mcp_toy_fan_no_known_point": mcp}


# SHA-256 of every file execute_config writes for the configs above
RUN_GOLDEN = {
    "mcp_toy_fan_no_known_point/config.json":
        "817496791e3b810e28998ee949f0885d9db07a59c8d102ecae4e91e527e343ba",
    "mcp_toy_fan_no_known_point/frequency_seed0.csv":
        "f4f79a178a08808482604043581054b1d5755b04d86b480c2f00b0da086c0dbb",
    "mcp_toy_fan_no_known_point/trace_seed0.csv":
        "f653a31ea733c0b91c3420c968b31fd7d1a9349a7b11ad7fd436ac06a63141d8",
    "mcp_toy_fan_no_known_point/trace_seed0.json":
        "4ea8055dee030ca91262bf54291398fb738f3e3cc4b4e6a48fffe463e2fa1f49",
    "pam_prior_average_custom/config.json":
        "387ec58e6270b00f4822e21cfc33fb3dd0b3428f20f616492c91ccf7939872b8",
    "pam_prior_average_custom/frequency_seed11.csv":
        "5fd337144c82a9a862e9dc5cbf4b15ffbd742d85cdce7c1275f0936d1da28efa",
    "pam_prior_average_custom/frequency_seed3.csv":
        "c5cb2149491f3f8f3642ff2dae9f225d78c29dee6de10c27c895e141b82311d4",
    "pam_prior_average_custom/trace_seed11.csv":
        "d77d716c485344227a13404a94aa623f5ca31640b6f8e73a99e13560eeee4ba1",
    "pam_prior_average_custom/trace_seed11.json":
        "096142a6b77ecc8b2b83f57d476776cdfe87b9f808895669d2019eaef5c5deeb",
    "pam_prior_average_custom/trace_seed3.csv":
        "b8d87ad9a936ea12e912c37cc4ae703c12b6b026af0ac7b71f05f1dc220e6c7d",
    "pam_prior_average_custom/trace_seed3.json":
        "e5abe0154fb283bf4e95d2c9c5831ec2561377d6221f495d749ae65336a7324d",
}


def test_run_bytes_match_golden_digests(tmp_path):
    configs = _run_configs(tmp_path)
    out = {}
    for name, doc in configs.items():
        config = parse_config(doc, base_dir=str(tmp_path))
        outdir = execute_config(config, tmp_path / name)
        for path in sorted(outdir.iterdir()):
            out[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert out == RUN_GOLDEN


def _stored_case(strategy, stop, known_point=True, **kwargs):
    sets, x0, sol = _toy(9)
    return lambda: run(sets, strategy(), x0, stop, sol if known_point else None, **kwargs)


# runs that cross the 1024-projection stretch of run(); the pam memories
# are snapshotted every 1 and every 7 projections, and the residual stop
# lands on projection 1932 = 7 * 276, where a snapshot is due
LONG = StoppingRule.exact_budget(1100)
STORED_CASES = {
    "pam_snapshots_every_1_n9": _stored_case(
        lambda: Memory(build_dense(9), MIN, seed=1), LONG, matrix_snapshot_interval=1),
    "pam_snapshots_every_7_n9": _stored_case(
        lambda: Memory(build_dense(9), AVERAGE, seed=2), LONG, matrix_snapshot_interval=7),
    "pam_snapshots_every_7_residual_stop_n9": _stored_case(
        lambda: Memory(build_dense(9), MIN, seed=0),
        StoppingRule(max_iterations=100_000, step_tolerance=5e-324, residual_tolerance=1e-3),
        matrix_snapshot_interval=7),
    **{f"{name}_iterates{suffix}_n9": _stored_case(
        make, StoppingRule.exact_budget(1500), known_point, store_iterates=True)
       for name, make in (("mcp", lambda: Cyclic(9)),
                          ("mrp", lambda: RandomizedCycles(9, seed=3)),
                          ("pam", lambda: Memory(build_dense(9), MIN, seed=4)))
       for suffix, known_point in (("", True), ("_no_known_point", False))},
}

STORED_GOLDEN = {
    "mcp_iterates_n9":
        "78f2160b197120e6c0906321006838a3e5f7bf82a9df3323b957e3e240c18aea",
    "mcp_iterates_no_known_point_n9":
        "8fbab5349be6a176ff3f0c1d35831af8599f37cb61ad7dbcd1e8895b3a0b057c",
    "mrp_iterates_n9":
        "23ed80234dc2312c0068cf59ba9347fc8f6844830f7bb814c5ffd6a7c5fab0a2",
    "mrp_iterates_no_known_point_n9":
        "0ac12b93021d162e95cb60d2490a3fac59d8890c3c3d70b0317bcd4a07c0fa1a",
    "pam_iterates_n9":
        "ae8b21c0abab5b875900f0570cfd1bc6caf91735fd553f9cb24daeec67a2a9d2",
    "pam_iterates_no_known_point_n9":
        "7c1c2d6d03dc18bcb387ba3fa198a3b947173e5643ebdf8d8f8901f8286deb13",
    "pam_snapshots_every_1_n9":
        "477f3f9c861853c87d1db0538b0f766715a785ce976d46582edca87da8d2356f",
    "pam_snapshots_every_7_n9":
        "a5b84107e21e73948d1fc500af29a3049bdf08da1b51a415cc790ec10f770c03",
    "pam_snapshots_every_7_residual_stop_n9":
        "6bbe7d441accecc953ce2b9ed1b662b57b943b5d7562199eb1375a4cc4b303b5",
}


def stored_digest(trace) -> str:
    """``trace_digest`` followed by the iterates and every matrix snapshot."""
    h = hashlib.sha256(trace_digest(trace).encode())
    if trace.iterates is not None:
        h.update(np.ascontiguousarray(trace.iterates).tobytes())
    for count, matrix in trace.matrix_snapshots:
        h.update(int(count).to_bytes(8, "little"))
        h.update(np.ascontiguousarray(matrix).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(STORED_CASES))
def test_stored_iterates_and_snapshots_match_golden_digest(name):
    assert stored_digest(STORED_CASES[name]()) == STORED_GOLDEN[name]


def test_every_stored_case_is_pinned():
    assert sorted(STORED_GOLDEN) == sorted(STORED_CASES)
