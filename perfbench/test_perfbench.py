"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
(about two minutes on two cores; the repository's own suite does not
collect this directory).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 7

#: Counts that must repeat exactly between two traced runs at one seed.
EXACT = {
    "reference_discrete": ("dynamics.advance_calls", "integrate.export_bytes"),
    "reference_adaptive": ("dynamics.advance_calls", "integrate.rhs_evals",
                           "integrate.ivp_segments", "integrate.export_bytes"),
    "calibration": ("dynamics.advance_calls",
                    "calibration.dataset_quarterly_calls_per_point",
                    "calibration.checkpoint_bytes_per_point"),
}


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def traced(workload: str, tmp_path: Path, tag: str) -> dict:
    inputs = harness.load_inputs(workload, SEED)
    ledger = harness.Ledger()
    workdir = tmp_path / tag
    workdir.mkdir()
    metrics = tracing.traced_run(inputs, ledger, workdir, workdir / "spans.jsonl",
                                 harness.SpeedProbe())
    assert ledger.failed == 0, ledger.failures
    return metrics


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced(workload, tmp_path, "first")
    second = traced(workload, tmp_path, "second")
    assert set(first) == set(tracing.PER_LAYER)
    for name in EXACT[workload]:
        assert first[name] > 0, name
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_never_come_from_tracing(workload, monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("traced or micro-benchmark code ran untraced")

    monkeypatch.setattr(tracing.Tracer, "__enter__", forbidden)
    monkeypatch.setattr(tracing, "traced_run", forbidden)
    monkeypatch.setattr(micro, "stage_timings", forbidden)
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_raising_operation_fails_the_run_with_a_result(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("allocation identity broken")

    monkeypatch.setattr(harness.pn, "simulate", broken)
    code = run.main(["--workload", "reference_discrete", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code == 1 and not result["correct"]
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["metrics"] == {}


def test_metric_sets_are_disjoint_and_declared():
    assert not set(harness.END_TO_END) & set(tracing.PER_LAYER)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_tracer_restores_every_substitution():
    owners = {name: tracing._resolve(name) for name, _, _ in tracing.TARGETS}
    before = {(o, a): owners[o].__dict__[a] for o, a, _ in tracing.TARGETS}
    numpy_before = tracing._resolve("pnetsim.calibration").np
    with tracing.Tracer():
        for (o, a), original in before.items():
            assert owners[o].__dict__[a] is not original
    for (o, a), original in before.items():
        assert owners[o].__dict__[a] is original
    assert tracing._resolve("pnetsim.calibration").np is numpy_before


def test_tail_needs_ten_samples_beyond():
    assert harness.tail(range(10)) is None
    p, value, beyond = harness.tail(range(100))
    assert (p, value, beyond) == (90.0, 89, 10)
