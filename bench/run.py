"""memproj benchmark: run one workload for a fixed time and report its metrics.

Run from the repository root:

    python3 bench/run.py --workload toy-run --seed 0 --seconds 40 --trace 0

The workload body is repeated until ``--seconds`` is used up; every
repetition is checked for correctness and digested.  Every timed part is
bracketed by a fixed reference loop, and its wall time is divided by the
mean of the two reference times, so that a slow phase of the shared host
slows both and cancels out; times are reported at the reference loop's
nominal speed.  With ``--trace 0`` the end-to-end metrics are reported
(medians over the repetitions; set-up time is the median of several fresh
interpreters).  With ``--trace 1`` untraced and traced repetitions
alternate, and the per-layer metrics come from the traced ones.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the provenance and the per-run digests.

``--pin`` stores the digests of the default seed in ``golden.json``; later
runs of that seed fail every run whose digest differs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REF_ITERATIONS = 6000
# about what reference_loop() takes on a 2-vCPU Xeon KVM guest in a quiet
# phase; a timing is reported as
# (its wall time / reference wall time) * REF_NOMINAL_S
REF_NOMINAL_S = 0.03
WORKLOAD_NAMES = ("toy-run", "preset-seeds", "cli-custom")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="store this run's digests as the default seed's golden digests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.pin and args.seed != DEFAULT_SEED:
        parser.error(f"--pin needs the default seed {DEFAULT_SEED}")
    return args


def git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args):
    import numpy

    files = sorted((SRC / "memproj").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "load": "one process, one Python thread; set-up probes run one at a time",
        "python_threads": threading.active_count(),
    }


def probe_setup(workload, probe_arg):
    """Set-up seconds of one fresh interpreter (see probe_setup.py).

    Returns the time at the reference speed and the raw wall time.
    """
    ref_before = reference_loop()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), str(SRC), workload, probe_arg],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    wall = float(proc.stdout.split()[-1])
    ref = (ref_before + reference_loop()) / 2.0
    return wall / ref * REF_NOMINAL_S, wall


def reference_loop() -> float:
    """A fixed piece of work in the program's style, timed next to each part.

    Small NumPy vectors in a Python loop plus float formatting, as in the
    projection loop and the trace writers.  Its time tracks how fast the
    shared host runs this process at that moment.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.array([0.3, 0.4, 0.5])
    aa = float(a @ a)
    v = np.array([1.0, 2.0, 3.0])
    cells = []
    for _ in range(REF_ITERATIONS):
        v = v - (float(a @ v) / aa) * a + 1e-3
        cells.append(repr(float(np.linalg.norm(v))))
    ",".join(cells)
    return time.perf_counter() - t0


def cycle_wall(samples):
    """Time of one cycle: the sum over parts of each part's median sample."""
    return sum(statistics.median(v) for v in samples.values())


def combined_digest(digests):
    return hashlib.sha256(json.dumps(sorted(digests.items())).encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "memproj" / "__init__.py").is_file():
        print(f"error: no memproj sources at {SRC}; run from a memproj checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # tiny vectors: BLAS threads would only contend
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import memproj

    if Path(memproj.__file__).resolve().parent != (SRC / "memproj").resolve():
        print(f"error: memproj was imported from {memproj.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    pinned = {} if args.pin or args.seed != DEFAULT_SEED else golden.get(args.workload, {})

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    outdir = work / "out"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        tracer = tracing.Tracer() if args.trace else None
        result = measure(args, wl, outdir, tracer, pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted, failed = result["attempted"], result["failed"]
    failed_frac = failed / attempted if attempted else 1.0
    plain, traced = result["plain"], result["traced"]
    cycles = min(len(v) for v in plain.values())
    traced_cycles = min(len(v) for v in traced.values())
    detail = {
        "provenance": provenance(args),
        "cycles_untraced": cycles,
        "cycles_traced": traced_cycles,
        "samples_s": plain,
        "traced_samples_s": traced,
        "raw_samples_s": result["raw"],
        "ref_samples_s": result["refs"],
        "raw_wall_s": cycle_wall(result["raw"]) if cycles else None,
        "failed_frac": failed_frac,
        "problems": result["problems"][:20],
        "digest": combined_digest(result["digests"]),
        "digests": result["digests"],
    }
    if not cycles or (args.trace and not traced_cycles):
        metrics = {}  # some part never completed, so nothing was measured
    elif args.trace:
        overhead = cycle_wall(traced) / cycle_wall(plain) - 1.0
        metrics, absent = tracer.layer_metrics(traced_cycles, overhead)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}.npz"
        spans.parent.mkdir(exist_ok=True)
        tracer.save(spans)
        detail["absent"] = absent
        detail["spans_file"] = str(spans.relative_to(ROOT))
    else:
        wall = cycle_wall(plain)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "proj_per_s": {"value": sum(result["projections"].values()) / wall, "unit": "proj/s"},
            "setup_s": {"value": statistics.median(result["setup"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        detail["setup_s_samples"] = result["setup"]
        detail["raw_setup_s_samples"] = result["raw_setup"]
    if args.pin and failed == 0:
        golden[args.workload] = result["digests"]
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")

    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed {args.seed} ({mode}): {cycles} untraced and "
          f"{traced_cycles} traced cycles over {len(plain)} part(s)")
    for key, m in metrics.items():
        print(f"{key:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':34s} {failed_frac:.6g} ratio ({failed} of {attempted} runs)")
    for problem in result["problems"][:5]:
        print(f"problem: {problem}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def measure(args, wl, outdir, tracer, pinned):
    """Cycle through the workload's parts until the time is up.

    With a tracer, untraced and traced cycles alternate.  Without one, a
    set-up probe follows each of the first cycles, so that the probes sample
    the machine at different moments.  The reference loop runs right before
    and right after every part.  Returns the time samples of every part at
    the reference speed, traced and untraced, the raw wall times and
    reference times behind the untraced ones, the set-up samples and the run
    counts.
    """
    setup = []
    plain = {part: [] for part in wl.parts}
    traced = {part: [] for part in wl.parts}
    raw = {part: [] for part in wl.parts}
    refs = {part: [] for part in wl.parts}
    projections, problems, first_digests = {}, [], {}
    attempted = failed = cycles = 0
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and cycles % 2 == 1
        for part in wl.parts:
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir(parents=True)
            ref_before = reference_loop()
            if use_tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                output = wl.body(part, outdir)
                wall = time.perf_counter() - t0
            except Exception as exc:  # a run that raises counts as failed
                attempted += wl.runs_per_part
                failed += wl.runs_per_part
                problems.append(f"{part}: body raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if use_tracer:
                    tracer.uninstall()
            ref = (ref_before + reference_loop()) / 2.0
            try:
                outcome = wl.check(part, output, outdir)
            except Exception as exc:  # unreadable or missing output
                attempted += wl.runs_per_part
                failed += wl.runs_per_part
                problems.append(f"{part}: check raised {type(exc).__name__}: {exc}")
                continue
            for key, digest in outcome.digests.items():
                if first_digests.setdefault(key, digest) != digest:
                    why = "differs from the first body"
                elif pinned.get(key, digest) != digest:
                    why = "differs from the pinned digest"
                else:
                    continue
                if key.startswith("file:"):
                    outcome.fail_all(f"{key} {why}")
                else:
                    outcome.problems.append(f"{key}: digest {why}")
                    outcome.failed.add(key)
            attempted += len(outcome.runs)
            failed += len(outcome.failed)
            problems.extend(outcome.problems)
            (traced if use_tracer else plain)[part].append(wall / ref * REF_NOMINAL_S)
            if not use_tracer:
                raw[part].append(wall)
                refs[part].append(ref)
            projections.setdefault(part, outcome.projections)
        cycles += 1
        if tracer is None and len(setup) < SETUP_PROBES:
            setup.append(probe_setup(wl.name, wl.probe_arg))
        if failed:
            break
        spent = time.perf_counter() - start
        if spent + spent / cycles > args.seconds and (tracer is None or cycles >= 2):
            break
    while tracer is None and len(setup) < SETUP_PROBES:
        setup.append(probe_setup(wl.name, wl.probe_arg))
    return {
        "setup": [paced for paced, _ in setup],
        "raw_setup": [wall for _, wall in setup],
        "plain": plain, "traced": traced, "raw": raw, "refs": refs,
        "projections": projections,
        "attempted": attempted, "failed": failed, "problems": problems,
        "digests": first_digests,
    }


if __name__ == "__main__":
    sys.exit(main())
