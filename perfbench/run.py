"""Run one pnetsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reference_discrete --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of the checkout this file belongs to. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, measured with no tracing installed;
``--trace 1`` reports the per-layer metrics of a traced run and writes its
spans under ``.bench_build/perfbench/``. The exit code is 0 when every
operation and correctness gate passed and 1 when one failed; a program
operation that raises ends the run early, with no metrics. The exit code
is 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("reference_discrete", "reference_adaptive", "calibration")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, harness) -> dict:
    import numpy
    import scipy

    return {
        "commit": commit(),
        "cpu": cpu_model(),
        "nproc": harness.worker_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "debug": __debug__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workers": harness.worker_count() if args.workload == "calibration" else 1,
        "seed": args.seed,
    }


def describe(measured) -> None:
    """The untraced run's figures that carry no bound, as '#' lines."""
    n = len(measured.run)
    print(f"# {n} rounds in {measured.wall_s:.2f} s")
    print(f"# wall time: run_s_p50 = {measured.median(measured.run, 0):.6g} s, "
          f"export_s_p50 = {measured.median(measured.export, 0):.6g} s")
    found = measured.run_tail()
    if found:
        p, value, beyond = found
        print(f"# run_s p{p:g} = {value:.6g} s at the reference speed "
              f"({n} samples, {beyond} beyond)")
    for name, (value, unit) in measured.info.items():
        print(f"# {name} = {value:.6g} {unit}")


def report(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pnetsim" / "__init__.py").is_file():
        print(f"error: no pnetsim sources under {SRC}", file=sys.stderr)
        return 2
    if not __debug__:
        print("error: run without -O; the model's asserts are part of the "
              "measured cost", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    print(f"# pnetsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(args, harness)))
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ledger = harness.Ledger()
    probe = harness.SpeedProbe()
    try:
        inputs, setup_s = harness.measure_setup(args.workload, args.seed, SRC,
                                                probe)
        if args.trace:
            import tracing

            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = tracing.traced_run(inputs, ledger, workdir, spans, probe)
            units = tracing.PER_LAYER
            print(f"# spans written to {spans}")
        else:
            measured = harness.measure(inputs, ledger, workdir, args.seconds,
                                       probe)
            metrics = harness.end_to_end(measured, setup_s)
            units = harness.END_TO_END
            describe(measured)
    except harness.OperationFailed:
        traceback.print_exc()
        metrics, units = {}, {}
    except Exception:
        traceback.print_exc()
        print("error: the benchmark stopped on an exception", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(metrics, units)
    for failure in ledger.failures:
        print(f"# FAILED {failure}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
