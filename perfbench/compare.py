"""Compare two checkouts on one workload, alternating which runs first.

    python3 perfbench/compare.py OLD_CHECKOUT NEW_CHECKOUT \
        --workload reference_discrete --runs 10

Each checkout must hold ``src/`` and ``perfbench/``; copy the same
``perfbench/`` into both so the two sides run identical benchmark code.
Run ``i`` uses seed ``i`` on both sides; every run is untraced and lasts
``run_seconds`` of ``BENCHMARK.json``. Prints, per end-to-end metric, each
side's median and quartiles and how many pairs the new side won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.exit(f"{checkout}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)

    sides = {"old": [], "new": []}
    for i in range(1, args.runs + 1):
        order = ("old", "new") if i % 2 else ("new", "old")
        for side in order:
            sides[side].append(run_once(getattr(args, side), args.workload, i))
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    for name in sides["old"][0]:
        old = [m[name]["value"] for m in sides["old"]]
        new = [m[name]["value"] for m in sides["new"]]
        sign = -1.0 if better[name] == "lower" else 1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
        unit = sides["old"][0][name]["unit"]
        print(f"{name:48s} old {o2:.6g} [{o1:.6g}, {o3:.6g}]  "
              f"new {n2:.6g} [{n1:.6g}, {n3:.6g}] {unit}  "
              f"new wins {wins}/{len(old)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
