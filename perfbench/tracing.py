"""Traced run: spans around the calls into each pnetsim module.

``Tracer`` replaces functions by wrappers where their callers look them up
(module globals and class attributes), records one span per call with a
link to the span that was open when it started, and restores every
original on exit. Spans stay in memory and are written out at the end.

Span file format, one JSON array per line:
``[id, parent_id, name, start_s, duration_s]``; ``parent_id`` is -1 for a
root span. A span's self time is its duration minus the durations of the
spans whose ``parent_id`` is its ``id``.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import harness
import micro

#: (owner, attribute, span name). The owner is a module path, or a module
#: path and class name joined by ':'. The span name is "<layer>.<callee>".
TARGETS = (
    ("pnetsim", "load_economy", "economy.load_economy"),
    ("pnetsim", "simulate", "integrate.simulate"),
    ("pnetsim", "write_trajectory_csv", "integrate.write_trajectory_csv"),
    ("pnetsim", "grid_search", "calibration.grid_search"),
    ("pnetsim", "monte_carlo", "calibration.monte_carlo"),
    ("pnetsim.shocks:ShockSchedule", "__init__", "shocks.ShockSchedule"),
    ("pnetsim.shocks:ShockSchedule", "at", "shocks.at"),
    ("pnetsim.dynamics", "derive_criticality_sets",
     "economy.derive_criticality_sets"),
    ("pnetsim.dynamics", "labor_capacity", "dynamics.labor_capacity"),
    ("pnetsim.dynamics", "_input_capacity", "dynamics._input_capacity"),
    ("pnetsim.dynamics", "_labor_update", "dynamics._labor_update"),
    ("pnetsim.dynamics", "_check_state", "dynamics._check_state"),
    ("pnetsim.integrate", "_run_discrete", "integrate._run_discrete"),
    ("pnetsim.integrate", "_run_continuous", "integrate._run_continuous"),
    ("pnetsim.integrate", "solve_ivp", "integrate.solve_ivp"),
    ("pnetsim.integrate", "_rhs", "integrate._rhs"),
    ("pnetsim.integrate", "_reconstruct", "integrate._reconstruct"),
    ("pnetsim.integrate", "_advance", "dynamics._advance"),
    ("pnetsim.integrate", "_input_capacity", "dynamics._input_capacity"),
    ("pnetsim.integrate", "_check_state", "dynamics._check_state"),
    ("pnetsim.calibration", "simulate", "integrate.simulate"),
    ("pnetsim.calibration", "score_point", "calibration.score_point"),
    ("pnetsim.calibration", "model_quarterly", "calibration.model_quarterly"),
    ("pnetsim.calibration", "aad_vw", "calibration.aad_vw"),
    ("pnetsim.calibration", "_checkpoint_record",
     "calibration._checkpoint_record"),
    ("pnetsim.calibration:EmpiricalDataset", "quarterly",
     "calibration.EmpiricalDataset.quarterly"),
)

#: Emitted with ``--trace 1``, name -> unit. A layer the workload does not
#: exercise reads 0.
PER_LAYER = {
    "economy.load_s": "s",
    "economy.criticality_derivations": "count",
    "shocks.schedule_builds": "count",
    "shocks.at_calls": "count",
    "shocks.at_s": "s",
    "dynamics.advance_calls": "count",
    "dynamics.advance_self_s": "s",
    "dynamics.input_capacity_s": "s",
    "dynamics.labor_update_s": "s",
    "dynamics.check_state_s": "s",
    "integrate.ivp_segments": "count",
    "integrate.rhs_evals": "count",
    "integrate.rhs_evals_per_day": "count",
    "integrate.solve_ivp_self_s": "s",
    "integrate.reconstruct_s": "s",
    "integrate.export_s": "s",
    "integrate.export_bytes": "B",
    "integrate.adaptive_max_dev": "fraction",
    "calibration.score_point_s": "s",
    "calibration.simulate_share": "fraction",
    "calibration.model_quarterly_s": "s",
    "calibration.dataset_quarterly_calls_per_point": "count",
    "calibration.dataset_quarterly_s": "s",
    "calibration.aad_vw_calls": "count",
    "calibration.checkpoint_bytes_per_point": "B",
    "calibration.mc_percentile_s": "s",
    "calibration.retained_bytes_per_point": "B",
    "calibration.grid_points_per_cpu_s": "1/s",
    "calibration.grid_points_per_s_nproc": "1/s",
    "calibration.parallel_efficiency": "fraction",
    "calibration.mc_runs_per_s": "1/s",
    **{name: "us" for name in micro.STAGES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class _NumpyView:
    """``numpy`` as seen by one module, with ``percentile`` traced."""

    def __init__(self, percentile):
        self.percentile = percentile

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    """Records spans around substituted callables while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.export_bytes = 0
        self.checkpoint_bytes = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _substitute(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        hooks = {
            "integrate.write_trajectory_csv": self._count_export,
            "calibration._checkpoint_record": self._count_checkpoint,
        }
        for owner_name, attr, name in TARGETS:
            owner = _resolve(owner_name)
            self._substitute(owner, attr, self._wrap(
                owner.__dict__[attr], name, hooks.get(name)))
        cal = _resolve("pnetsim.calibration")
        self._substitute(cal, "np", _NumpyView(
            self._wrap(np.percentile, "calibration.np.percentile")))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_export(self, path) -> None:
        self.export_bytes += Path(path).stat().st_size

    def _count_checkpoint(self, record: str) -> None:
        self.checkpoint_bytes += len(record.encode()) + 1  # with its newline

    def write(self, path: Path) -> Path:
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end - start]) + "\n")
        return path


class SpanStats:
    """Per-name call counts, inclusive and self times of a span list."""

    def __init__(self, spans):
        child_time = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        names = {}
        for sid, _, name, start, end in spans:
            names[sid] = name
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[sid]
        # Simulations called by score_point, for the simulate share.
        self.scored_sim = sum(
            end - start for _, parent, name, start, end in spans
            if name == "integrate.simulate"
            and names.get(parent) == "calibration.score_point"
        )


def _per(value: float, n: int) -> float:
    return value / n if n else 0.0


def layer_metrics(stats: SpanStats, tracer: Tracer, t_end: float) -> dict:
    points = stats.calls["calibration.score_point"]
    adaptive_days = stats.calls["integrate._run_continuous"] * t_end
    return {
        "economy.criticality_derivations":
            stats.calls["economy.derive_criticality_sets"],
        "shocks.schedule_builds": stats.calls["shocks.ShockSchedule"],
        "shocks.at_calls": stats.calls["shocks.at"],
        "shocks.at_s": stats.total["shocks.at"],
        "dynamics.advance_calls": stats.calls["dynamics._advance"],
        "dynamics.advance_self_s": stats.self_time["dynamics._advance"],
        "dynamics.input_capacity_s": stats.total["dynamics._input_capacity"],
        "dynamics.labor_update_s": stats.total["dynamics._labor_update"],
        "dynamics.check_state_s": stats.total["dynamics._check_state"],
        "integrate.ivp_segments": stats.calls["integrate.solve_ivp"],
        "integrate.rhs_evals": stats.calls["integrate._rhs"],
        "integrate.rhs_evals_per_day":
            _per(stats.calls["integrate._rhs"], adaptive_days),
        "integrate.solve_ivp_self_s": stats.self_time["integrate.solve_ivp"],
        "integrate.reconstruct_s": stats.total["integrate._reconstruct"],
        "integrate.export_s": stats.total["integrate.write_trajectory_csv"],
        "integrate.export_bytes": tracer.export_bytes,
        "calibration.score_point_s":
            _per(stats.total["calibration.score_point"], points),
        "calibration.simulate_share":
            _per(stats.scored_sim, stats.total["calibration.score_point"]),
        "calibration.model_quarterly_s":
            _per(stats.total["calibration.model_quarterly"], points),
        "calibration.dataset_quarterly_calls_per_point":
            _per(stats.calls["calibration.EmpiricalDataset.quarterly"], points),
        "calibration.dataset_quarterly_s":
            _per(stats.total["calibration.EmpiricalDataset.quarterly"], points),
        "calibration.aad_vw_calls": stats.calls["calibration.aad_vw"],
        "calibration.checkpoint_bytes_per_point":
            _per(tracer.checkpoint_bytes, points),
        "calibration.mc_percentile_s": stats.total["calibration.np.percentile"],
    }


def retained_bytes_per_point(inputs, workdir: Path) -> float:
    """Bytes still allocated while ``grid_search``'s result is held."""
    tracemalloc.start()
    try:
        result = harness.run_grid(inputs, 1, workdir / "checkpoint_tracemalloc.jsonl")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / len(result.scores)


def traced_run(inputs, ledger, workdir: Path, spans_path: Path, probe) -> dict:
    """Per-layer metrics of one unit of the workload's work.

    The unit runs once untraced and once traced; the difference of the two
    wall times is the tracing overhead. The traced grid runs serially,
    because spans recorded in worker processes would be lost.
    """
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    session = harness.make_session(inputs, ledger, workdir, probe)
    _, untraced_s = harness.timed(harness.run_unit, session)
    with Tracer() as tracer:
        _, traced_s = harness.timed(harness.run_unit, session)
        mark = len(tracer.spans)
        harness.load_inputs(inputs.workload, inputs.seed)
    harness.check_unit(session)
    stats = SpanStats(tracer.spans[:mark])
    metrics.update(layer_metrics(stats, tracer, inputs.t_end))
    metrics["economy.load_s"] = SpanStats(tracer.spans[mark:]).total[
        "economy.load_economy"]
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(spans_path)

    if inputs.workload == "calibration":
        untraced = harness.measure_calibration(inputs, ledger, workdir,
                                               seconds=0.0, probe=probe)
        for name, (value, _) in untraced.info.items():
            metrics[f"calibration.{name}"] = value
        metrics["calibration.retained_bytes_per_point"] = (
            retained_bytes_per_point(inputs, workdir))
    elif inputs.workload == "reference_adaptive":
        metrics["integrate.adaptive_max_dev"] = session.max_dev
    metrics.update(micro.stage_timings(inputs))
    return metrics
