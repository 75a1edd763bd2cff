"""Span tracer for the per-layer run.

The tracer wraps memproj's functions and methods at the place where their
callers look them up: a function is replaced in every memproj module that
binds it, a method on its class.  ``uninstall`` puts the originals back.
Each call becomes a span (name, start, end, parent span, run id), kept in
compact arrays in memory and saved when the benchmark ends.  A boundary
that the program no longer has is reported as absent, together with every
metric that needs it.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

FAMILIES = {
    "hyperplane": "Hyperplane",
    "halfspace": "Halfspace",
    "ball": "Ball",
    "box": "Box",
    "line": "LineThroughOrigin",
    "affine": "AffineSubspace",
}
STRATEGIES = {"mcp": "Cyclic", "mrp": "RandomizedCycles", "pam": "Memory"}
WRITERS = ("write_trace_csv", "write_trace_json", "write_matrix_csv")

# span name -> (defining module, qualified name)
BOUNDARIES = {
    **{f"sets.project.{f}": ("memproj.sets", f"{c}.project") for f, c in FAMILIES.items()},
    **{f"strategies.next_index.{s}": ("memproj.strategies", f"{c}.next_index")
       for s, c in STRATEGIES.items()},
    "memory.select": ("memproj.memory", "pam_select"),
    "memory.update": ("memproj.memory", "pam_update"),
    "memory.build_dense": ("memproj.memory", "build_dense"),
    "memory.construct": ("memproj.strategies", "Memory.__init__"),
    "runner.run": ("memproj.runner", "run"),
    "toylab.run_preset": ("memproj.toylab", "run_preset"),
    "toylab.summary": ("memproj.toylab", "PresetReport.summary"),
    "toylab.concentration_step": ("memproj.toylab", "concentration_step"),
    "toylab.make_toy_problem": ("memproj.toylab", "make_toy_problem"),
    **{f"traceio.{w}": ("memproj.traceio", w) for w in WRITERS},
    "traceio.write_report": ("memproj.traceio", "write_report"),
    "traceio.read_matrix_csv": ("memproj.traceio", "read_matrix_csv"),
    "config.parse": ("memproj.config", "parse_config"),
    "config.build_strategy": ("memproj.config", "ExperimentConfig.build_strategy"),
    "cli.main": ("memproj.cli", "main"),
}

_MISSING = object()


class _TieCounter:
    """Stands in for a memory state's generator and counts its draws.

    The memory method draws from its generator only to break an argmax tie,
    so the count is exactly the number of random tie-breaks.  Draws are
    delegated unchanged, so the random stream and the trace stay the same.
    """

    __slots__ = ("generator", "tracer")

    def __init__(self, generator, tracer):
        self.generator = generator
        self.tracer = tracer

    def integers(self, *args, **kwargs):
        self.tracer.ties += 1
        return self.generator.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.generator, name)


class Tracer:
    def __init__(self):
        self.span_names = list(BOUNDARIES)
        self._ids = {n: i for i, n in enumerate(self.span_names)}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._runs = [-1]
        self._patches: list[tuple] = []
        self.absent: set[str] = set()
        self.noops = 0
        self.ties = 0
        self.bytes_written = 0
        self.run_projections: list[int] = []
        self.run_stopped_early: list[bool] = []

    # -- hooks: extra counts taken at a boundary, outside its span ------------

    def _count_noop(self, args, kwargs, result):
        x = args[1]
        if isinstance(x, np.ndarray) and isinstance(result, np.ndarray) \
                and result.tobytes() == x.tobytes():
            self.noops += 1

    def _count_ties(self, args):
        state = args[0]
        if not isinstance(state.rng, _TieCounter):
            state.rng = _TieCounter(state.rng, self)

    def _count_bytes(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.bytes_written += os.stat(path).st_size

    def _count_run(self, args, kwargs, trace):
        self.run_projections.append(trace.n_projections)
        self.run_stopped_early.append(trace.status != "max_iterations")

    def _hooks(self, span):
        if span.startswith("sets.project."):
            return None, self._count_noop
        if span == "memory.select":
            return self._count_ties, None
        if span.startswith("traceio.write_") and span != "traceio.write_report":
            return None, self._count_bytes
        if span == "runner.run":
            return None, self._count_run
        return None, None

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, span):
        nid = self._ids[span]
        pre, post = self._hooks(span)
        opens_run = span == "runner.run"
        name, parent, run, start, end = self.name, self.parent, self.run, self.start, self.end
        stack, runs = self._stack, self._runs
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            if opens_run:
                runs.append(i)
            run.append(runs[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if opens_run:
                    runs.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "memproj" or k.startswith("memproj."))]
        for span, (modname, qualname) in BOUNDARIES.items():
            try:
                owner = importlib.import_module(modname)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(span)
                continue
            wrapper = self._wrap(original, span)
            if path:  # a method: its callers find it on the class
                self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:  # a function: wherever a module binds it
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span as arrays; times are perf_counter nanoseconds."""
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )

    def layer_metrics(self, cycles: int, overhead_frac: float):
        """Per-layer metrics per traced cycle, and the names marked absent."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - covered

        def sel(*spans):
            ids = [self._ids[s] for s in spans]
            return np.isin(name, ids)

        def total(*spans):
            return float(dur[sel(*spans)].sum())

        def calls(*spans):
            return int(np.count_nonzero(sel(*spans)))

        def mean_us(span):
            n = calls(span)
            return total(span) / n * 1e6 if n else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        per = 1.0 / cycles
        project = [f"sets.project.{f}" for f in FAMILIES]
        nexts = [f"strategies.next_index.{s}" for s in STRATEGIES]
        writers = [f"traceio.{w}" for w in WRITERS]
        run_ms = dur[sel("runner.run")] * 1e3
        n_proj = sum(self.run_projections)
        selections = calls("memory.select")
        constructs = calls("memory.construct")

        table = [
            # (metric, unit, spans it needs, value)
            ("sets.project.calls", "count", project, calls(*project) * per),
            ("sets.project.s", "s", project, total(*project) * per),
            *[(f"sets.project.us.{f}", "us", [f"sets.project.{f}"],
               mean_us(f"sets.project.{f}")) for f in FAMILIES],
            ("sets.noop.count", "count", project, self.noops * per),
            ("sets.noop_frac", "ratio", project, ratio(self.noops, calls(*project))),
            ("strategies.next_index.calls", "count", nexts, calls(*nexts) * per),
            *[(f"strategies.next_index.us.{s}", "us", [f"strategies.next_index.{s}"],
               mean_us(f"strategies.next_index.{s}")) for s in STRATEGIES],
            ("memory.select.us", "us", ["memory.select"], mean_us("memory.select")),
            ("memory.update.us", "us", ["memory.update"], mean_us("memory.update")),
            ("memory.setup.us", "us", ["memory.build_dense", "memory.construct"],
             ratio(total("memory.build_dense", "memory.construct"), constructs) * 1e6),
            ("memory.ties", "count", ["memory.select"], self.ties * per),
            ("memory.selections", "count", ["memory.select"], selections * per),
            ("memory.tie_frac", "ratio", ["memory.select"], ratio(self.ties, selections)),
            ("runner.runs", "count", ["runner.run"], run_ms.size * per),
            ("runner.projections", "count", ["runner.run"], n_proj * per),
            ("runner.self.s", "s", ["runner.run"], float(own[sel("runner.run")].sum()) * per),
            ("runner.self.us_per_proj", "us", ["runner.run"],
             ratio(float(own[sel("runner.run")].sum()), n_proj) * 1e6),
            ("runner.run_ms.p50", "ms", ["runner.run"],
             float(np.percentile(run_ms, 50)) if run_ms.size else 0.0),
            ("runner.run_ms.p90", "ms", ["runner.run"],
             float(np.percentile(run_ms, 90)) if run_ms.size else 0.0),
            ("runner.run_ms.samples", "count", ["runner.run"], run_ms.size),
            ("runner.projections_to_stop", "count", ["runner.run"],
             sum(p for p, early in zip(self.run_projections, self.run_stopped_early) if early)
             * per),
            ("toylab.run_preset.s", "s", ["toylab.run_preset"], total("toylab.run_preset") * per),
            ("toylab.summary.s", "s", ["toylab.summary"], total("toylab.summary") * per),
            ("toylab.concentration_step.s", "s", ["toylab.concentration_step"],
             total("toylab.concentration_step") * per),
            ("toylab.concentration_step.calls", "count", ["toylab.concentration_step"],
             calls("toylab.concentration_step") * per),
            ("toylab.make_toy_problem.s", "s", ["toylab.make_toy_problem"],
             total("toylab.make_toy_problem") * per),
            *[m for w in (*WRITERS, "write_report", "read_matrix_csv") for m in (
                (f"traceio.{w}.s", "s", [f"traceio.{w}"], total(f"traceio.{w}") * per),
                (f"traceio.{w}.calls", "count", [f"traceio.{w}"], calls(f"traceio.{w}") * per),
            )],
            ("traceio.bytes_written", "bytes", writers, self.bytes_written * per),
            ("traceio.write_mb_per_s", "MB/s", writers,
             ratio(self.bytes_written / 1e6, total(*writers))),
            ("config.parse.s", "s", ["config.parse"], total("config.parse") * per),
            ("config.build_strategy.s", "s", ["config.build_strategy"],
             total("config.build_strategy") * per),
            ("cli.self.s", "s", ["cli.main"], float(own[sel("cli.main")].sum()) * per),
            ("trace.overhead_frac", "ratio", [], overhead_frac),
        ]
        metrics, absent = {}, []
        for metric, unit, needs, value in table:
            if self.absent.intersection(needs):
                absent.append(metric)
            else:
                metrics[metric] = {"value": value, "unit": unit}
        return metrics, absent
