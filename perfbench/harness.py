"""Workloads, correctness gates and end-to-end timings of the pnetsim benchmark.

Every call into the package goes through the ``pnetsim`` package module
(``pn.simulate``, ``pn.grid_search``, ...) or the module that defines the
callee, so that ``tracing.Tracer`` can substitute its wrappers at run time.
The untraced path here never imports or installs the tracer: end-to-end
numbers come from plain ``perf_counter`` readings around public entry
points only, scaled to a reference machine speed by ``SpeedProbe``.
"""

from __future__ import annotations

import csv
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import pnetsim as pn
from pnetsim import calibration as cal
from pnetsim import fixtures

HERE = Path(__file__).resolve().parent
REFERENCE_SERIES = HERE / "reference_aggregate.csv"

#: Reported with ``--trace 0``; every workload reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_s_p50": "s",
    "export_s_p50": "s",
}

QUARTERS = cal.DEFAULT_QUARTERS
#: |discrete aggregate output - stored reference| may not exceed this share
#: of the baseline aggregate output on any day.
REFERENCE_RTOL = 1e-9
ADAPTIVE_MAX_DEV = 0.02
ARGMIN_AAD = 1e-9
#: Tolerances of the invariant gate, matching ``dynamics._check_state``.
IDENTITY_RTOL = 1e-12
SETUP_REPEATS = 7
#: Calibration sub-grid: all five bottleneck rules, one behavioural axis and
#: one scenario axis (so every point rebuilds its shock schedule).
CAL_AXES = (
    ("prod_fn", pn.PRODUCTION_FUNCTIONS),
    ("tau", (7.0, 21.0)),
    ("l2", (28.0, 56.0)),
)
MC_RUNS = 40
MC_DAYS = 120.0
MC_DISTRIBUTIONS = {
    "eps_S_scale": {"dist": "uniform", "low": 0.8, "high": 1.2},
    "l2": {"dist": "uniform", "low": 28.0, "high": 56.0},
    "tau": {"dist": "normal", "mean": 14.0, "sd": 3.0, "min": 1.0},
}
#: Exports per model run, so the export median rests on enough samples
#: where runs are few (adaptive) or the export is small (calibration).
EXPORT_REPEATS = {"discrete": 1, "continuous_adaptive": 3}
CAL_EXPORT_REPEATS = 10
#: Seconds ``SpeedProbe.run`` takes at the reference machine speed.
PROBE_REF_S = 0.010
PROBE_ITERS = 400
#: Standard-library modules that ``import_probe`` loads in a fresh
#: interpreter, and the seconds that takes at the reference machine speed.
IMPORT_PROBE_MODULES = ("json", "decimal", "argparse", "email.parser",
                        "unittest", "xml.dom.minidom", "asyncio")
IMPORT_PROBE_REF_S = 0.060


def worker_count() -> int:
    """Pool size for the parallel grid: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------

class OperationFailed(Exception):
    """A program operation raised; its ``Ledger`` has counted it as failed."""


class Ledger:
    """Counts operations and correctness gates; remembers what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, fn, *args, **kwargs):
        """Run one operation. An exception, such as a broken invariant that
        the model asserts, counts as a failure and stops the run with
        ``OperationFailed``."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{getattr(fn, '__name__', fn)} raised "
                                 f"{type(exc).__name__}: {exc}")
            raise OperationFailed(self.failures[-1]) from exc

    def gate(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class SpeedProbe:
    """A fixed reference computation, timed between the benchmark's samples.

    On a shared machine the speed one process gets drifts by tens of
    percent within seconds, and whole runs differ by as much. The probe
    runs right before and right after every timed operation. ``scale``
    turns the operation's wall time into seconds at the reference speed:
    wall time × ``PROBE_REF_S`` / mean of the two probe times. The probe
    mixes float formatting with small numpy operations on a 63×63 matrix,
    as the model and its exports do. It calls nothing in pnetsim.
    """

    def __init__(self):
        self._m = np.random.default_rng(0).random((63, 63))
        self.last = self.run()

    def run(self) -> float:
        m = self._m
        v = m[0]
        rows = []
        t0 = time.perf_counter()
        for i in range(PROBE_ITERS):
            row = m[i % 63]
            rows.append(",".join(repr(float(x)) for x in row[:6]))
            v = np.minimum(np.maximum(row - 0.5 * v, 0.0), v + 1.0)
            float(np.where(m > 0.5, m, 0.0).sum(axis=0)[i % 63])
        return time.perf_counter() - t0

    def scale(self, wall: float, before: float) -> float:
        """Probe again, and scale ``wall`` by the probes around it."""
        self.last = self.run()
        return wall * PROBE_REF_S / (0.5 * (before + self.last))

    def timed(self, fn, *args, **kwargs):
        """One call: (result, wall s, s at the reference speed)."""
        before = self.last
        out, wall = timed(fn, *args, **kwargs)
        return out, wall, self.scale(wall, before)


def tail(samples) -> tuple[float, float, int] | None:
    """Highest whole percentile above the median with at least ten samples
    beyond it.

    Returns ``(percentile, value, n_beyond)``, or ``None`` when there are
    too few samples for any such percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 50, -1):
        k = int(np.ceil(p / 100.0 * n)) - 1  # nearest-rank index
        if n - 1 - k >= 10:
            return float(p), xs[k], n - 1 - k
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB.

    Child processes are left out: the import children of ``measure_setup``
    only load the package, and the grid's pool workers are forks that
    share most of their pages with this process.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """What one workload run feeds the program, all made from the seed."""

    workload: str
    seed: int
    economy: object
    scenario: object
    params: object
    t_end: float
    grid: object = None
    generating: dict = field(default_factory=dict)
    dataset: object = None


def load_inputs(workload: str, seed: int) -> Inputs:
    paths = fixtures.fixture_paths("be64")
    economy = pn.load_economy(
        paths["io_table"], paths["initial_states"], paths["criticality"]
    )
    scenario = pn.load_scenario(fixtures.reference_scenario_path())
    params = pn.BehavioralParams()
    inputs = Inputs(workload, seed, economy, scenario, params,
                    cal.horizon_for(scenario, QUARTERS))
    if workload == "calibration":
        grid = pn.GridSpec(CAL_AXES)
        index = int(np.random.default_rng(seed).integers(grid.n_points))
        generating = grid.point_at(index)
        scn, prm = cal.apply_grid_point(economy, scenario, params, generating)
        inputs.grid = grid
        inputs.generating = generating
        inputs.dataset = cal.synthesize_dataset(economy, scn, prm)
    return inputs


def import_seconds(modules, src: Path | None = None) -> float:
    """Wall time of importing ``modules`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            f"import {', '.join(modules)}; print(time.perf_counter() - t)")
    env = dict(os.environ)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int, src: Path,
                  probe: SpeedProbe) -> tuple[Inputs, float]:
    """Median over repeats of import time plus input loading, at the
    reference speed.

    ``SpeedProbe`` does not follow the speed of an import: that is mostly
    unmarshalling and executing module code in a fresh process. So the
    import of ``pnetsim`` is scaled by the import of
    ``IMPORT_PROBE_MODULES``, timed in a fresh interpreter right before and
    right after it. Loading the inputs is scaled by ``SpeedProbe``.
    """
    totals = []
    inputs = None
    import_before = import_seconds(IMPORT_PROBE_MODULES)
    for _ in range(SETUP_REPEATS):
        imp = import_seconds(("pnetsim",), src)
        import_after = import_seconds(IMPORT_PROBE_MODULES)
        before = probe.run()
        inputs, load = timed(load_inputs, workload, seed)
        speed = IMPORT_PROBE_REF_S / (0.5 * (import_before + import_after))
        totals.append(imp * speed + probe.scale(load, before))
        import_before = import_after
    return inputs, statistics.median(totals)


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------

def invariant_violation(traj, inputs: Inputs) -> str:
    """First invariant broken by any stored state, or '' when all hold."""
    economy = inputs.economy
    schedule = pn.ShockSchedule(inputs.scenario, economy)
    for t, s in zip(traj.times, traj.states):
        allocated = s.c + s.f + s.O.sum(axis=1)
        scale = np.maximum(np.abs(s.x), 1e-300)
        if np.any(np.abs(allocated - s.x) > IDENTITY_RTOL * scale + 1e-12):
            return f"allocation identity broken on day {t:g}"
        if np.any(s.S < 0.0):
            return f"negative stock on day {t:g}"
        l_max = (1.0 - schedule.at(float(t)).eps_S) * economy.l0
        if np.any(s.l < 0.0) or np.any(s.l > l_max * (1 + 1e-12) + 1e-12):
            return f"labor outside its band on day {t:g}"
    return ""


def read_reference() -> np.ndarray:
    with REFERENCE_SERIES.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return np.asarray([float(r["x_total"]) for r in rows])


def write_reference(path=REFERENCE_SERIES) -> Path:
    """Store the discrete reference run's aggregate output (regeneration aid)."""
    inputs = load_inputs("reference_discrete", 0)
    traj = run_reference(inputs, "discrete")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x_total"])
        for t, x in zip(traj.times, traj.aggregate_output()):
            w.writerow([repr(float(t)), repr(float(x))])
    return Path(path)


def reference_deviation(traj, reference: np.ndarray) -> float:
    agg = traj.aggregate_output()
    if agg.shape != reference.shape:
        return float("inf")
    return float(np.max(np.abs(agg - reference)) / reference[0])


def max_deviation(traj, baseline) -> float:
    """max |aggregate output - baseline| as a share of baseline day-0 output."""
    a, b = traj.aggregate_output(), baseline.aggregate_output()
    return float(np.max(np.abs(a - b)) / b[0])


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def export_consistent(path: Path, traj) -> str:
    """Row count and aggregate rows of a trajectory CSV agree with ``traj``."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    want = len(traj.times) * (len(traj.codes) + 1)
    if len(rows) != want:
        return f"{len(rows)} rows, expected {want}"
    agg = [float(r["x"]) for r in rows if r["sector"] == "BE"]
    if agg != [float(v) for v in traj.aggregate_output()]:
        return "aggregate rows differ from the trajectory"
    return ""


def bands_ordered(mc) -> bool:
    lo, mid, hi = mc.bands
    return bool(np.all(lo <= mid) and np.all(mid <= hi))


# ---------------------------------------------------------------------------
# Workload operations
# ---------------------------------------------------------------------------

def run_reference(inputs: Inputs, method: str):
    config = pn.IntegrationConfig(method=method, dt=1.0)
    return pn.simulate(inputs.economy, inputs.scenario, inputs.params,
                       config, inputs.t_end)


def run_grid(inputs: Inputs, workers: int, checkpoint: Path):
    return pn.grid_search(
        inputs.economy, inputs.scenario, inputs.params, inputs.dataset,
        inputs.grid, workers=workers, checkpoint_path=checkpoint,
    )


def run_mc(inputs: Inputs):
    return pn.monte_carlo(
        inputs.economy, inputs.scenario, inputs.params, MC_DISTRIBUTIONS,
        n_runs=MC_RUNS, seed=inputs.seed, t_end=MC_DAYS,
    )


def write_calibration_outputs(result, mc, workdir: Path) -> None:
    """The files ``pnetsim grid-search`` and ``pnetsim montecarlo`` write."""
    result.write_leaderboard(workdir / "leaderboard.csv")
    result.write_optimum_cells(workdir / "optimum_cells.csv")
    mc.write_csv(workdir / "bands.csv")


class ReferenceSession:
    """One 395-day reference run and its trajectory export, with gates."""

    def __init__(self, inputs: Inputs, method: str, ledger: Ledger, workdir: Path,
                 probe: SpeedProbe):
        self.inputs, self.method, self.ledger = inputs, method, ledger
        self.probe = probe
        self.csv_path = workdir / "trajectory.csv"
        self.reference = read_reference() if method == "discrete" else None
        self.baseline = None
        if method == "continuous_adaptive":
            self.baseline = ledger.op(run_reference, inputs, "discrete")
        self.digest = None
        self.max_dev = None
        self.unchecked = []  # trajectories of ``run_unit`` awaiting the gates

    def step(self):
        """Simulate and export; returns the trajectory, the simulation's
        (wall s, reference s) and a list of the same pairs for the exports.

        The gates run separately, in ``check``, so a traced step records
        only the program's own calls.
        """
        timed_op = self.probe.timed
        traj, *sim = timed_op(self.ledger.op, run_reference, self.inputs,
                              self.method)
        exports = [
            tuple(timed_op(self.ledger.op, pn.write_trajectory_csv, traj,
                           self.csv_path)[1:])
            for _ in range(EXPORT_REPEATS[self.method])
        ]
        return traj, tuple(sim), exports

    def check(self, traj) -> None:
        g = self.ledger.gate
        broken = invariant_violation(traj, self.inputs)
        g(f"invariants ({self.method})", not broken, broken)
        if self.reference is not None:
            dev = reference_deviation(traj, self.reference)
            g("aggregate output vs stored reference", dev <= REFERENCE_RTOL,
              f"deviation {dev:.3g} of baseline > {REFERENCE_RTOL:g}")
        if self.baseline is not None:
            self.max_dev = max_deviation(traj, self.baseline)
            g("adaptive vs discrete dt=1", self.max_dev < ADAPTIVE_MAX_DEV,
              f"max deviation {self.max_dev:.4f} >= {ADAPTIVE_MAX_DEV}")
        digest = file_digest(self.csv_path)
        if self.digest is None:
            problem = export_consistent(self.csv_path, traj)
            g("trajectory export", not problem, problem)
            self.digest = digest
        else:
            g("trajectory export repeats byte for byte", digest == self.digest)


class CalibrationSession:
    """Grid at one and at nproc workers, a Monte Carlo ensemble, exports."""

    def __init__(self, inputs: Inputs, ledger: Ledger, workdir: Path,
                 probe: SpeedProbe):
        self.inputs, self.ledger, self.workdir = inputs, ledger, workdir
        self.probe = probe
        self.workers = worker_count()
        self.first_bands = None

    def grid(self, workers: int):
        """One grid search with a checkpoint: (result, wall s, reference s,
        cpu s of this process)."""
        ck = self.workdir / f"checkpoint_w{workers}.jsonl"
        c0 = time.process_time()
        result, wall, ref = self.probe.timed(self.ledger.op, run_grid,
                                             self.inputs, workers, ck)
        cpu = time.process_time() - c0
        self.check_grid(result, ck)
        return result, wall, ref, cpu

    def mc(self):
        mc, wall = timed(self.ledger.op, run_mc, self.inputs)
        g = self.ledger.gate
        g("Monte Carlo bands ordered", bands_ordered(mc))
        if self.first_bands is None:
            self.first_bands = mc.bands
        else:
            g("Monte Carlo repeats for a repeated seed",
              np.array_equal(mc.bands, self.first_bands))
        return mc, wall

    def export(self, result, mc) -> list[tuple[float, float]]:
        return [
            tuple(self.probe.timed(self.ledger.op, write_calibration_outputs,
                                   result, mc, self.workdir)[1:])
            for _ in range(CAL_EXPORT_REPEATS)
        ]

    def check_grid(self, result, checkpoint: Path) -> None:
        g = self.ledger.gate
        best = result.argmin
        g("grid argmin is the generating point",
          best.params == self.inputs.generating and best.aad_total <= ARGMIN_AAD,
          f"argmin {best.params} at {best.aad_total:.3g}, "
          f"generating {self.inputs.generating}")
        lines = checkpoint.read_text(encoding="utf-8").splitlines()
        g("checkpoint holds every point", len(lines) == 1 + self.inputs.grid.n_points,
          f"{len(lines) - 1} records")

    def same_leaderboard(self, serial, parallel) -> None:
        a, b = self.workdir / "lb_serial.csv", self.workdir / "lb_parallel.csv"
        self.ledger.op(serial.write_leaderboard, a)
        self.ledger.op(parallel.write_leaderboard, b)
        self.ledger.gate(f"leaderboard identical at 1 and {self.workers} workers",
                         a.read_bytes() == b.read_bytes())


# ---------------------------------------------------------------------------
# Untraced timed loops
# ---------------------------------------------------------------------------

@dataclass
class Measured:
    """Samples of one untraced run as (wall s, reference s) pairs;
    ``info`` holds the figures that carry no bound."""

    run: list[tuple[float, float]] = field(default_factory=list)
    export: list[tuple[float, float]] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    wall_s: float = 0.0  # wall time of the timed loop

    @staticmethod
    def median(samples, which: int) -> float:
        return statistics.median(s[which] for s in samples)

    def run_tail(self):
        """``tail`` of the run samples at the reference speed."""
        return tail(ref for _, ref in self.run)


class Deadline:
    """The first round always runs; later ones while they are expected to
    end by ``seconds``. A round overruns by at most half its own length, so
    a run measures about ``seconds`` whatever the round length."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = False
        self.t0 = self.last = time.perf_counter()

    def more(self) -> bool:
        now = time.perf_counter()
        round_s, self.last = now - self.last, now
        if not self.started:
            self.started = True
            return True
        return now - self.t0 + 0.5 * round_s <= self.seconds

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0


def measure_reference(inputs, method, ledger, workdir, seconds, probe):
    session = ReferenceSession(inputs, method, ledger, workdir, probe)
    m = Measured()
    deadline = Deadline(seconds)
    while deadline.more():
        traj, sim, exports = session.step()
        session.check(traj)
        m.run.append(sim)
        m.export.extend(exports)
    m.wall_s = deadline.elapsed
    if session.max_dev is not None:
        m.info["adaptive_max_dev"] = (session.max_dev, "fraction")
    return m


def measure_calibration(inputs, ledger, workdir, seconds, probe):
    """Timed rounds of the serial grid and its exports; then two Monte Carlo
    ensembles with one seed and one parallel grid. Those carry no bound (the
    nproc rate varies too much on a shared machine), so they stay out of the
    rounds, which then give the grid more samples."""
    session = CalibrationSession(inputs, ledger, workdir, probe)
    n = inputs.grid.n_points
    m = Measured()
    cpu_rates = []
    mc = session.mc()[0]
    deadline = Deadline(seconds)
    while deadline.more():
        serial, wall, ref, cpu = session.grid(1)
        m.run.append((wall / n, ref / n))
        cpu_rates.append(n / cpu)
        m.export.extend(session.export(serial, mc))
    m.wall_s = deadline.elapsed
    mc_wall = session.mc()[1]
    parallel, par_wall, _, _ = session.grid(session.workers)
    session.same_leaderboard(serial, parallel)
    rate = n / par_wall
    m.info["grid_points_per_cpu_s"] = (statistics.median(cpu_rates), "1/s")
    m.info["grid_points_per_s_nproc"] = (rate, "1/s")
    m.info["parallel_efficiency"] = (
        rate * m.median(m.run, 0) / session.workers, "fraction")
    m.info["mc_runs_per_s"] = (MC_RUNS / mc_wall, "1/s")
    return m


def method_of(workload: str) -> str:
    return "discrete" if workload == "reference_discrete" else "continuous_adaptive"


def measure(inputs, ledger, workdir, seconds, probe) -> Measured:
    if inputs.workload == "calibration":
        return measure_calibration(inputs, ledger, workdir, seconds, probe)
    return measure_reference(inputs, method_of(inputs.workload), ledger, workdir,
                             seconds, probe)


def make_session(inputs, ledger, workdir, probe):
    if inputs.workload == "calibration":
        return CalibrationSession(inputs, ledger, workdir, probe)
    return ReferenceSession(inputs, method_of(inputs.workload), ledger, workdir,
                            probe)


def run_unit(session) -> None:
    """One unit of a workload's work: what a traced run records.

    Reference workloads: one simulation and its export. Calibration: one
    serial grid, one Monte Carlo ensemble and the exports of both.
    """
    if isinstance(session, CalibrationSession):
        serial = session.grid(1)[0]
        mc, _ = session.mc()
        session.export(serial, mc)
    else:
        session.unchecked.append(session.step()[0])


def check_unit(session) -> None:
    """Gates on ``run_unit``'s reference trajectories (calibration gates inline)."""
    if isinstance(session, ReferenceSession):
        while session.unchecked:
            session.check(session.unchecked.pop(0))


def end_to_end(m: Measured, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "run_s_p50": m.median(m.run, 1),
        "export_s_p50": m.median(m.export, 1),
    }
