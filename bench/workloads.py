"""The three benchmark workloads: input generation, timed parts, correctness gate.

Each workload is built from the workload seed alone and hands memproj only
the generated inputs.  ``body(part, outdir)`` is one timed part; it calls
memproj through its public entry points and looks every name up on the
memproj modules at call time, so that the tracer's wrappers are seen.
``check(part, output, outdir)`` runs after the timer stops and returns an
``Outcome``: the runs that failed a correctness check and one SHA-256
digest per run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import memproj
import memproj.cli
import memproj.traceio

TOY_SIZES = (9, 64, 256)
TOY_BUDGET = 20000
PRESET_N = 64
PRESET_SEEDS = 20  # the CLI's default seed count
CUSTOM_DIM = 60
CUSTOM_PER_FAMILY = 4
CUSTOM_TILT = 0.05
CUSTOM_RUN_SEEDS = 8
CUSTOM_TOLERANCE = 1e-6
CUSTOM_MAX_ITERATIONS = 200000
# fixed generator for the custom problem's shape; the workload seed draws a
# rotation of it, the box bounds and the run seeds, so every workload seed
# needs the same number of projections within 1%
CUSTOM_SHAPE_SEED = 20190501

# a residual may grow by this share of itself from rounding; projections onto
# sets that contain the known point never move the iterate farther from it
RESIDUAL_RTOL = 1e-9


class Outcome:
    """What one execution of a workload body produced, after checking.

    ``digests`` maps each run to its SHA-256 digest; keys starting with
    ``file:`` digest output files that belong to no single run.
    """

    def __init__(self):
        self.projections = 0
        self.digests: dict[str, str] = {}
        self.failed: set[str] = set()
        self.problems: list[str] = []

    @property
    def runs(self) -> list[str]:
        return [k for k in self.digests if not k.startswith("file:")]

    def run(self, key: str, digest: str, projections: int, problems: list[str]):
        self.projections += projections
        self.digests[key] = digest
        if problems:
            self.failed.add(key)
            self.problems.extend(f"{key}: {p}" for p in problems)

    def fail_all(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed.update(self.runs)


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def _array_bytes(indices, steps, residuals) -> list[bytes]:
    return [
        np.ascontiguousarray(indices, dtype=np.int64).tobytes(),
        np.ascontiguousarray(steps, dtype=np.float64).tobytes(),
        np.ascontiguousarray(residuals, dtype=np.float64).tobytes(),
    ]


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _trace_csv_matches(path: Path, indices, steps, residuals) -> bool:
    back = memproj.traceio.read_trace_csv(path)
    return (
        np.array_equal(back["k"], np.arange(len(indices)))
        and np.array_equal(back["j"], indices)
        and _same_bits(back["step_length"], steps)
        and _same_bits(back["residual"], residuals)
    )


def trace_problems(indices, steps, residuals, x0, x_final, z, n_sets,
                   status, expected_status, expected_projections=None) -> list[str]:
    """Checks shared by every run: status, finiteness, residual monotonicity."""
    out = []
    if status != expected_status:
        out.append(f"status {status!r}, expected {expected_status!r}")
    n = len(indices)
    if expected_projections is not None and n != expected_projections:
        out.append(f"{n} projections, expected {expected_projections}")
    if len(steps) != n or len(residuals) != n:
        out.append("trace columns differ in length")
        return out
    idx = np.asarray(indices)
    if n and (idx.min() < 0 or idx.max() >= n_sets):
        out.append("set index out of range")
    for name, arr in (("step", steps), ("residual", residuals), ("x_final", x_final)):
        if not np.all(np.isfinite(arr)):
            out.append(f"non-finite {name}")
    r = np.asarray(residuals, dtype=float)
    prev = np.concatenate([[float(np.linalg.norm(np.asarray(x0) - z))], r[:-1]])
    grew = np.flatnonzero(r > prev * (1.0 + RESIDUAL_RTOL))
    if grew.size:
        k = int(grew[0])
        out.append(f"residual grew at projection {k}: {float(prev[k])!r} -> {float(r[k])!r}")
    return out


class ToyRun:
    """``run()`` on the toy fan: N in {9, 64, 256} x {mcp, mrp, pam}.

    Each of the nine configs is one timed part.  The fans are built once at
    set-up, as a caller of ``run()`` would.
    """

    name = "toy-run"
    runs_per_part = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.probe_arg = ",".join(str(n) for n in TOY_SIZES)
        self.problems = {n: memproj.make_toy_problem(memproj.ToyConfig(n)) for n in TOY_SIZES}
        self.parts = [f"N{n}-{s}" for n in TOY_SIZES for s in ("mcp", "mrp", "pam")]

    def body(self, part: str, outdir: Path):
        mp = memproj
        size, label = part[1:].split("-")
        n = int(size)
        sets, x0, z = self.problems[n]
        if label == "mcp":
            strategy = mp.Cyclic(n)
        elif label == "mrp":
            strategy = mp.RandomizedCycles(n, seed=self.seed)
        else:
            strategy = mp.Memory(mp.build_dense(n), mp.Policy("min", 0.01), seed=self.seed)
        return mp.run(sets, strategy, x0, mp.StoppingRule.exact_budget(TOY_BUDGET),
                      known_point=z)

    def check(self, part: str, t, outdir: Path) -> Outcome:
        out = Outcome()
        problems = trace_problems(
            t.set_indices, t.step_lengths, t.residuals, t.x0, t.x_final,
            np.zeros(3), t.n_sets, t.status, memproj.STATUS_MAX_ITERATIONS, TOY_BUDGET,
        )
        digest = _sha(*_array_bytes(t.set_indices, t.step_lengths, t.residuals))
        out.run(part, digest, t.n_projections, problems)
        return out


class PresetSeeds:
    """``memproj preset benchmark`` in-process: run_preset then write_report."""

    name = "preset-seeds"
    parts = ["body"]
    runs_per_part = 3 * PRESET_SEEDS  # mcp, mrp and pam per seed

    def __init__(self, seed: int, workdir: Path):
        self.seeds = list(range(seed * PRESET_SEEDS, (seed + 1) * PRESET_SEEDS))
        self.probe_arg = str(PRESET_N)

    def body(self, part: str, outdir: Path):
        report = memproj.toylab.run_preset(
            "benchmark", memproj.ToyConfig(PRESET_N), seeds=self.seeds
        )
        memproj.traceio.write_report(report, outdir)
        return report

    def check(self, part: str, report, outdir: Path) -> Outcome:
        tio = memproj.traceio
        out = Outcome()
        expected = {"config.json", "summary.json"}
        summary = json.loads((outdir / "summary.json").read_text())
        summary.pop("metadata", None)
        for m in report.methods:
            statuses = summary["methods"][m.label]["status"]
            for seed, t, status in zip(m.seeds, m.traces, statuses):
                stem = f"{m.label}_seed{seed}"
                trace_path = outdir / "traces" / f"{stem}.csv"
                freq_path = outdir / "frequency" / f"{stem}.csv"
                expected.update({f"traces/{stem}.csv", f"frequency/{stem}.csv"})
                problems = trace_problems(
                    t.set_indices, t.step_lengths, t.residuals, t.x0, t.x_final,
                    np.zeros(3), t.n_sets, t.status, memproj.STATUS_MAX_ITERATIONS,
                    report.iterations,
                )
                if status != t.status:
                    problems.append("summary.json status differs from the run")
                if not _trace_csv_matches(trace_path, t.set_indices, t.step_lengths, t.residuals):
                    problems.append("trace CSV does not read back bit for bit")
                if not _same_bits(tio.read_matrix_csv(freq_path), t.transition_counts()):
                    problems.append("frequency CSV does not read back bit for bit")
                digest = _sha(
                    *_array_bytes(t.set_indices, t.step_lengths, t.residuals),
                    trace_path.read_bytes(),
                    freq_path.read_bytes(),
                )
                out.run(f"{m.label}-seed{seed}", digest, t.n_projections, problems)
        written = {p.relative_to(outdir).as_posix() for p in outdir.rglob("*") if p.is_file()}
        if written != expected:
            out.fail_all(f"report files differ from the expected layout: {sorted(written ^ expected)[:5]}")
        out.digests["file:config.json"] = _sha((outdir / "config.json").read_bytes())
        out.digests["file:summary.json"] = _sha(tio.dumps_stable(summary).encode())
        return out


def custom_problem(seed: int):
    """The six-family problem as config descriptors, plus x0 and the prior.

    Every set contains the origin, and the lines through the origin make it
    the only common point.  The lines and one spanning vector of each flat
    lean off a shared direction ``u`` by ``CUSTOM_TILT``, and the hyperplane
    normals lean towards it by as much, so progress along ``u`` is slow.
    Halfspaces, balls and boxes hold the origin in their interior, so they
    are inactive near the end of a run.
    """
    d = CUSTOM_DIM
    shape = np.random.default_rng(CUSTOM_SHAPE_SEED)
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    u = np.zeros(d)
    u[0] = 1.0

    def across():  # unit vector orthogonal to u
        v = shape.standard_normal(d)
        v[0] = 0.0
        return v / np.linalg.norm(v)

    def vec(v):
        return [float(x) for x in rotation @ v]

    sets = []
    for _ in range(CUSTOM_PER_FAMILY):
        sets.append({"kind": "line", "direction": vec(u + CUSTOM_TILT * across())})
        sets.append({"kind": "hyperplane", "normal": vec(across() + CUSTOM_TILT * u), "offset": 0.0})
        sets.append({"kind": "halfspace", "normal": vec(shape.standard_normal(d)),
                     "offset": float(shape.uniform(0.1, 1.0))})
        center = 0.3 * shape.standard_normal(d)
        sets.append({"kind": "ball", "center": vec(center),
                     "radius": float(np.linalg.norm(center) * shape.uniform(1.02, 1.2))})
        sets.append({"kind": "box", "lower": [float(-x) for x in rng.uniform(0.2, 1.0, d)],
                     "upper": [float(x) for x in rng.uniform(0.2, 1.0, d)]})
        basis = [u + CUSTOM_TILT * across()] + [across() for _ in range(8)]
        sets.append({"kind": "affine", "basepoint": [0.0] * d, "basis": [vec(b) for b in basis]})
    n = len(sets)
    # sparse prior with equal weights, strongly connected through the +1
    # cycle; equal weights make early argmax ties, so the run seeds matter
    prior = np.zeros((n, n))
    for m in range(n):
        for offset in (1, 5, 11):
            prior[m, (m + offset) % n] = 1.0
    x0 = vec(u + 0.3 * across())
    return sets, x0, prior


class CliCustom:
    """``memproj run CONFIG`` in-process on a generated six-family problem."""

    name = "cli-custom"
    parts = ["body"]
    runs_per_part = CUSTOM_RUN_SEEDS

    def __init__(self, seed: int, workdir: Path):
        sets, x0, prior = custom_problem(seed)
        self.prior = prior
        self.run_seeds = [seed * CUSTOM_RUN_SEEDS + i for i in range(CUSTOM_RUN_SEEDS)]
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        (inputs / "prior.csv").write_text(
            "".join(",".join(repr(float(v)) for v in row) + "\n" for row in prior)
        )
        config = {
            "problem": {"kind": "custom", "sets": sets, "x0": x0,
                        "known_point": [0.0] * CUSTOM_DIM},
            "strategy": {"kind": "pam", "matrix": {"kind": "prior", "path": "prior.csv"},
                         "policy": {"kind": "average", "beta": 0.5}},
            "stop": {"max_iterations": CUSTOM_MAX_ITERATIONS,
                     "residual_tolerance": CUSTOM_TOLERANCE},
            "seeds": self.run_seeds,
        }
        self.config_path = inputs / "config.json"
        self.config_path.write_text(json.dumps(config))
        self.probe_arg = str(self.config_path)

    def body(self, part: str, outdir: Path):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = memproj.cli.main(["run", str(self.config_path), "--out", str(outdir)])
        return code, stdout.getvalue()

    def check(self, part: str, result, outdir: Path) -> Outcome:
        code, stdout = result
        out = Outcome()
        z = np.zeros(CUSTOM_DIM)
        for seed in self.run_seeds:
            paths = [outdir / f"trace_seed{seed}.csv", outdir / f"trace_seed{seed}.json",
                     outdir / f"frequency_seed{seed}.csv"]
            if not all(p.is_file() for p in paths):
                out.run(f"seed{seed}", "", 0, ["output files missing"])
                continue
            rec = json.loads(paths[1].read_text())
            idx = np.asarray(rec["set_indices"], dtype=np.int64)
            steps = np.asarray(rec["step_lengths"], dtype=float)
            res = np.asarray(rec["residuals"], dtype=float)
            problems = trace_problems(
                idx, steps, res, rec["x0"], rec["x_final"], z, rec["n_sets"],
                rec["status"], memproj.STATUS_RESIDUAL, rec["n_projections"],
            )
            if not (res.size and res[-1] < CUSTOM_TOLERANCE):
                problems.append("residual tolerance not reached")
            final = np.asarray(rec["final_matrix"])
            if not np.array_equal(final > 0.0, self.prior > 0.0):
                problems.append("memory update changed the positivity pattern")
            if not _trace_csv_matches(paths[0], idx, steps, res):
                problems.append("trace CSV does not read back as the JSON trace")
            if not _same_bits(memproj.traceio.read_matrix_csv(paths[2]), rec["transition_counts"]):
                problems.append("frequency CSV does not read back as the JSON counts")
            digest = _sha(*_array_bytes(idx, steps, res), *(p.read_bytes() for p in paths))
            out.run(f"seed{seed}", digest, int(idx.size), problems)
        if code != 0 or stdout != f"{outdir}\n":
            out.fail_all(f"cli exit code {code}, stdout {stdout[:200]!r}")
        out.digests["file:config.json"] = _sha((outdir / "config.json").read_bytes())
        return out


WORKLOADS = {w.name: w for w in (ToyRun, PresetSeeds, CliCustom)}
