"""Spans around otreward's public functions, recorded from outside the package.

Tracing rebinds each function name in the module that looks it up at call
time (``otreward.labeler.sinkhorn`` is what ``ot_rewards_single`` calls,
``otreward.cli.read_dataset`` is what the CLI commands call), so the package
itself is left unchanged. Spans (name, start, end, parent) stay in memory
until the run ends; then they are turned into per-layer metrics and written
out as JSON lines. A recorder only keeps references to a call's arguments and
result, so that measuring them (plan residuals, file sizes) happens after the
run and never inside an enclosing span. Calls made inside pool worker
processes are not seen, so traced runs label with one process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# L-infinity marginal error under which a plan counts as converged; the same
# value as otreward's default SinkhornParams.marginal_tolerance.
MARGINAL_TOL = 1e-6

CLI_COMMANDS = ("label", "select-experts", "diagnose", "demo-gridworld")


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Records nested spans for wrapped callables, in one thread."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, record=None):
        """Return fn wrapped in a span; record(attrs, args, kwargs, result) keeps references.

        record runs inside any enclosing span, so it must only store what it
        is given or an O(1) count; layer_metrics measures the rest later.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, self._clock(), parent=parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._open.pop()
            if record is not None:
                record(span.attrs, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, bindings):
        """Rebind (module, attribute, span name, recorder) entries while active.

        A binding whose attribute no longer exists raises, so a renamed or
        re-routed function cannot leave its layer silently unmeasured.
        """
        try:
            for module, attr, name, record in bindings:
                if not hasattr(module, attr):
                    raise AttributeError(
                        f"cannot trace {name}: {module.__name__} has no attribute {attr!r}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, record))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)


def plan_errors(coupling) -> tuple[float, float]:
    """L-infinity row and column marginal errors of a coupling's plan."""
    plan = coupling.plan
    return (float(np.abs(plan.sum(axis=1) - coupling.row_marginal).max()),
            float(np.abs(plan.sum(axis=0) - coupling.col_marginal).max()))


def _record_entries(attrs, args, kwargs, cost):
    attrs["entries"] = cost.size


def _record_coupling(attrs, args, kwargs, coupling):
    attrs["coupling"] = coupling


def _record_read(attrs, args, kwargs, dataset):
    attrs["path"] = args[0]
    attrs["episodes"] = len(dataset)


def _record_written(attrs, args, kwargs, result):
    # The file is sized after the run; every step writes the same bytes.
    attrs["path"] = args[0]


def _record_sweeps(attrs, args, kwargs, q):
    attrs["sweeps"] = q.trained_sweeps


def _record_command(attrs, args, kwargs, code):
    attrs["command"] = args[0][0]


def otreward_bindings():
    """Every place the benchmark's workloads reach a layer's public function."""
    import otreward.cli as cli
    import otreward.gridworld as gridworld
    import otreward.labeler as labeler

    return [
        (labeler, "trajectory_to_measure", "measures.trajectory_to_measure", None),
        (labeler, "pairwise_costs", "costs.pairwise_costs", _record_entries),
        (labeler, "sinkhorn", "solver.sinkhorn", _record_coupling),
        (labeler, "ot_rewards_single", "labeler.ot_rewards_single", None),
        (labeler, "aggregate_over_experts", "labeler.aggregate_over_experts", None),
        (labeler, "squash", "labeler.squash", None),
        (labeler, "post_scale_rewards", "labeler.post_scale_rewards", None),
        (labeler, "label_dataset", "labeler.label_dataset", None),
        (cli, "label_dataset", "labeler.label_dataset", None),
        (gridworld, "label_dataset", "labeler.label_dataset", None),
        (cli, "read_dataset", "dataset_io.read_dataset", _record_read),
        (cli, "write_labeled", "dataset_io.write_labeled", _record_written),
        (cli, "write_dataset", "dataset_io.write_dataset", _record_written),
        (cli, "select_top_k_experts", "dataset_io.select_top_k_experts", None),
        (cli, "write_diagnostics", "dataset_io.write_diagnostics", None),
        (cli, "return_correlations", "dataset_io.return_correlations", None),
        (gridworld, "return_correlations", "dataset_io.return_correlations", None),
        (cli, "load_harness_config", "gridworld.load_harness_config", None),
        (cli, "run_demo", "gridworld.run_demo", None),
        (gridworld, "generate_dataset", "gridworld.generate_dataset", None),
        (gridworld, "fit_offline_q", "gridworld.fit_offline_q", _record_sweeps),
        (gridworld, "evaluate_policy", "gridworld.evaluate_policy", None),
        (cli, "main", "cli.main", _record_command),
    ]


def group_name(span: Span) -> str:
    """The name a span is reported under; cli.main is split by command."""
    if span.name == "cli.main":
        return f"cli.main.{span.attrs.get('command')}"
    return span.name


def _measure(spans: list[Span]) -> None:
    """Turn the references recorders kept into numbers, after the run."""
    sizes: dict[str, int] = {}
    for s in spans:
        attrs = s.attrs
        coupling = attrs.pop("coupling", None)
        if coupling is not None:
            attrs["row_err"], attrs["col_err"] = plan_errors(coupling)
            attrs["iterations"] = int(coupling.iterations)
            attrs["converged_flag"] = bool(coupling.converged)
            active = (int((coupling.row_marginal > 0).sum())
                      * int((coupling.col_marginal > 0).sum()))
            attrs["bytes_per_iteration"] = 8 * active
        if "path" in attrs:
            path = str(attrs.pop("path"))
            if path not in sizes:
                sizes[path] = os.path.getsize(path)
            attrs["bytes"] = sizes[path]
        for key in ("entries", "sweeps"):
            if key in attrs:
                attrs[key] = int(attrs[key])


def write_spans(spans: list[Span], path) -> None:
    """Write spans as JSON lines, times in seconds from the first span's start."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w") as f:
        for i, s in enumerate(spans):
            f.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0,
                                "end": s.end - t0, "parent": s.parent, **s.attrs}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], steps: int) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as name -> (value, sample count).

    Counts and seconds are per traced workload step; ratios, percentiles and
    maxima are over every call seen. A layer the workload never calls reads 0.
    Measures what the recorders kept, replacing it in the spans' attrs with
    the numbers, so it must run while the run's files still exist.
    """
    _measure(spans)
    selfs = self_times(spans)
    groups: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        groups[group_name(s)].append(i)

    def calls(name):
        return [spans[i] for i in groups[name]]

    def secs(name):
        return sum(s.duration for s in calls(name))

    def self_s(name):
        return sum(selfs[i] for i in groups[name])

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in calls(name))

    out: dict[str, tuple[float, int]] = {}

    def put(key, value, samples):
        out[key] = (float(value), int(samples))

    def put_calls_s(name):
        n = len(groups[name])
        put(f"{name}.calls", n / steps, n)
        put(f"{name}.s", secs(name) / steps, n)

    put_calls_s("measures.trajectory_to_measure")

    name = "costs.pairwise_costs"
    n = len(groups[name])
    entries = attr_sum(name, "entries")
    put_calls_s(name)
    put(f"{name}.entries", entries / steps, n)
    put(f"{name}.ns_per_entry", _ratio(secs(name), entries) * 1e9, n)

    name = "solver.sinkhorn"
    solves = calls(name)
    n = len(solves)
    iterations = [s.attrs["iterations"] for s in solves]
    truly = [s.attrs["row_err"] <= MARGINAL_TOL and s.attrs["col_err"] <= MARGINAL_TOL
             for s in solves]
    flagged = [s.attrs["converged_flag"] for s in solves]
    put_calls_s(name)
    put(f"{name}.iterations", sum(iterations) / steps, n)
    put(f"{name}.iterations_p50", _percentile(iterations, 50), n)
    put(f"{name}.iterations_p95", _percentile(iterations, 95), n)
    put(f"{name}.us_per_iteration", _ratio(secs(name), sum(iterations)) * 1e6, n)
    put(f"{name}.computed_bytes_per_iteration",
        _ratio(attr_sum(name, "bytes_per_iteration"), n), n)
    put(f"{name}.converged_flag_frac", _ratio(sum(flagged), n), n)
    put(f"{name}.converged_true_frac", _ratio(sum(truly), n), n)
    put(f"{name}.flag_mismatch", sum(f and not t for f, t in zip(flagged, truly)) / steps, n)
    put(f"{name}.row_residual_max", max((s.attrs["row_err"] for s in solves), default=0.0), n)
    put(f"{name}.col_residual_max", max((s.attrs["col_err"] for s in solves), default=0.0), n)

    for name in ("labeler.ot_rewards_single", "labeler.aggregate_over_experts",
                 "labeler.label_dataset"):
        put(f"{name}.self_s", self_s(name) / steps, len(groups[name]))
    for name in ("labeler.squash", "labeler.post_scale_rewards"):
        put(f"{name}.s", secs(name) / steps, len(groups[name]))
    episode_ms = [s.duration * 1e3 for s in calls("labeler.aggregate_over_experts")]
    put("labeler.episode_ms_p50", _percentile(episode_ms, 50), len(episode_ms))
    put("labeler.episode_ms_p95", _percentile(episode_ms, 95), len(episode_ms))

    name = "dataset_io.read_dataset"
    n = len(groups[name])
    read_bytes = attr_sum(name, "bytes")
    put_calls_s(name)
    put(f"{name}.bytes", read_bytes / steps, n)
    put(f"{name}.episodes", attr_sum(name, "episodes") / steps, n)
    put(f"{name}.mb_per_s", _ratio(read_bytes, secs(name)) / 1e6, n)
    for name in ("dataset_io.write_labeled", "dataset_io.write_dataset"):
        n = len(groups[name])
        written = attr_sum(name, "bytes")
        put(f"{name}.s", secs(name) / steps, n)
        put(f"{name}.bytes", written / steps, n)
        put(f"{name}.mb_per_s", _ratio(written, secs(name)) / 1e6, n)
    for name in ("dataset_io.select_top_k_experts", "dataset_io.write_diagnostics",
                 "dataset_io.return_correlations", "gridworld.load_harness_config",
                 "gridworld.generate_dataset", "gridworld.evaluate_policy"):
        put(f"{name}.s", secs(name) / steps, len(groups[name]))

    name = "gridworld.fit_offline_q"
    n = len(groups[name])
    sweeps = attr_sum(name, "sweeps")
    put(f"{name}.s", secs(name) / steps, n)
    put(f"{name}.sweeps", sweeps / steps, n)
    put(f"{name}.us_per_sweep", _ratio(secs(name), sweeps) * 1e6, n)
    name = "gridworld.run_demo"
    put(f"{name}.self_s", self_s(name) / steps, len(groups[name]))

    for command in CLI_COMMANDS:
        name = f"cli.main.{command}"
        n = len(groups[name])
        put(f"{name}.s", secs(name) / steps, n)
        put(f"{name}.self_s", self_s(name) / steps, n)
    return out
