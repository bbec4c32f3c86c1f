"""Characterization test: the shipped writers give the committed bytes.

``output_hashes`` remakes be64 exports, the adaptive method's kernel
probes (``write_probes``), the fixture economies' arrays and calibration
outputs, and hashes them; ``golden/sha256.json`` holds the SHA-256 values they had when it was
last written (regenerate it with ``golden/gen_sha256.py`` after a change
that moves bits on purpose, and list old and new values in CHANGES.md).
The grid and the ensemble are defined here, like the benchmark's
calibration workload at seed 1, so that the tests import no benchmark code.
"""

import hashlib
import json
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np

from pnetsim import (
    PRODUCTION_FUNCTIONS,
    BehavioralParams,
    GridSpec,
    IntegrationConfig,
    ShockSchedule,
    grid_search,
    load_economy,
    load_scenario,
    monte_carlo,
    score_point,
    simulate,
)
from pnetsim.calibration import (
    DEFAULT_QUARTERS,
    apply_grid_point,
    horizon_for,
    load_dataset,
    save_dataset,
    synthesize_dataset,
)
from pnetsim.dynamics import ModelContext
from pnetsim.fixtures import (
    FIXTURE_NAMES,
    fixture_paths,
    reference_scenario_path,
)
from pnetsim.integrate import (
    _kinks,
    _pack,
    _reconstruct,
    _rhs,
    write_aggregate_csv,
    write_trajectory_csv,
)
from golden.gen_fixtures import generate_all
from test_shocks import CUT_RAMPS, random_key_dates

GOLDEN = Path(__file__).parent / "golden" / "sha256.json"

#: 20 points: every bottleneck rule, one behavioural and one scenario axis.
GRID_AXES = (
    ("prod_fn", PRODUCTION_FUNCTIONS),
    ("tau", (7.0, 21.0)),
    ("l2", (28.0, 56.0)),
)
MC_DISTRIBUTIONS = {
    "eps_S_scale": {"dist": "uniform", "low": 0.8, "high": 1.2},
    "l2": {"dist": "uniform", "low": 28.0, "high": 56.0},
    "tau": {"dist": "normal", "mean": 14.0, "sd": 3.0, "min": 1.0},
}
#: Grid points whose unrounded scores are hashed, besides the generating one:
#: the stored scores are rounded, which would hide a change in the last bits.
UNROUNDED_POINTS = (0, 19)
MC_RUNS = 40
MC_DAYS = 120.0
SEED = 1

#: Sub-day steps, under two rules: a sample ends the second step of a day.
SUB_DAY_DT = 0.5
SUB_DAY_RULES = ("leontief", "half_critical")

#: The rules under which the adaptive method's kernel is probed.
PROBE_RULES = ("leontief", "half_critical")

#: The ``Economy`` arrays hashed for each fixture, as their raw bytes.
ECONOMY_ARRAYS = ("Z", "A", "x0", "c0", "f0", "l0", "n_days_inventory",
                  "criticality", "on_site")

#: The shock plans hashed besides the ``CUT_RAMPS`` cases: seeded random
#: key-date sequences with random ``l1`` and ``l2``, each read at a fixed
#: time grid, at every breakpoint and at the float just below it.
SHOCK_PLAN_SEQUENCES = 100
SHOCK_PLAN_TIMES = np.linspace(0.0, 500.0, 1001)

NOTE = (
    "SHA-256 of the be64 trajectory.csv and aggregate.csv of each bottleneck "
    "rule (discrete, dt 1, to the end of the scored quarters) and of "
    "leontief and half_critical at dt 0.5, of every file "
    "tests/golden/gen_fixtures.py writes, and of the synthesized dataset, "
    "leaderboard, optimum cells, checkpoint and Monte Carlo bands of "
    "tests/test_golden.py's 20-point grid and 40-draw "
    "ensemble at seed 1, with the repr of the unrounded score_point "
    "total and cells of grid points 0, 19 and the generating one. Also "
    "the raw bytes of the adaptive method's "
    "right-hand side (integrate._rhs) and of every field of its "
    "reconstructed states (integrate._reconstruct), probed on be64 under "
    "leontief and half_critical at fractional times from the discrete "
    "states, and of every Economy array of d2, d3 and be64 as loaded from "
    "the shipped files, and of the be64 shock plan (ShockSchedule table and at, "
    "breakpoints, holds, pandemic start) of the reference scenario, of "
    "tests/test_shocks.py's CUT_RAMPS cases and of 100 seeded random "
    "key-date sequences. Made on x86-64 with AVX-512, Python 3.11.7, numpy "
    "2.4.6 and OpenBLAS 0.3.31. Adaptive (continuous_adaptive) outputs are "
    "left out: their bytes depend on the BLAS kernel OpenBLAS picks for the "
    "CPU, through the solver's np.dot. The probes of _rhs and _reconstruct "
    "call no BLAS, so they belong with the discrete hashes. Regenerate with "
    "tests/golden/gen_sha256.py."
)


def write_outputs(directory: Path) -> list[Path]:
    """Write every covered output under ``directory``."""
    paths = fixture_paths("be64")
    economy = load_economy(paths["io_table"], paths["initial_states"],
                           paths["criticality"])
    scenario = load_scenario(reference_scenario_path())
    t_end = horizon_for(scenario, DEFAULT_QUARTERS)
    written = []
    runs = [(rule, 1.0, directory / rule) for rule in PRODUCTION_FUNCTIONS]
    runs += [(rule, SUB_DAY_DT, directory / f"dt{SUB_DAY_DT}" / rule)
             for rule in SUB_DAY_RULES]
    for rule, dt, folder in runs:
        traj = simulate(economy, scenario, BehavioralParams(prod_fn=rule),
                        IntegrationConfig(dt=dt), t_end)
        written += [write_trajectory_csv(traj, folder / "trajectory.csv"),
                    write_aggregate_csv(traj, folder / "aggregate.csv")]
        if dt == 1.0 and rule in PROBE_RULES:
            written += write_probes(economy, scenario, rule, traj, t_end, folder)
    written += write_shock_plans(economy, scenario, directory / "shocks")
    written += generate_all(directory / "data").values()
    for name in FIXTURE_NAMES:
        paths = fixture_paths(name)
        loaded = load_economy(paths["io_table"], paths["initial_states"],
                              paths["criticality"])
        for field in ECONOMY_ARRAYS:
            path = directory / "economy" / name / f"{field}.bin"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(getattr(loaded, field).tobytes())
            written.append(path)

    grid = GridSpec(GRID_AXES)
    generating = int(np.random.default_rng(SEED).integers(grid.n_points))
    scn, prm = apply_grid_point(economy, scenario, BehavioralParams(),
                                grid.point_at(generating))
    cal = directory / "calibration"
    written.append(save_dataset(synthesize_dataset(economy, scn, prm),
                                cal / "dataset.csv"))
    dataset = load_dataset(cal / "dataset.csv")
    result = grid_search(economy, scenario, BehavioralParams(), dataset, grid,
                         checkpoint_path=cal / "checkpoint.jsonl")
    written += [result.write_leaderboard(cal / "leaderboard.csv"),
                result.write_optimum_cells(cal / "optimum_cells.csv"),
                cal / "checkpoint.jsonl"]
    for index in UNROUNDED_POINTS + (generating,):
        scn, prm = apply_grid_point(economy, scenario, BehavioralParams(),
                                    grid.point_at(index))
        score = score_point(economy, scn, prm, dataset)
        path = cal / "unrounded" / f"point_{index}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(f"{item!r}\n" for item in
                                [score.aad_total, *sorted(score.cells.items())]))
        written.append(path)
    mc = monte_carlo(economy, scenario, BehavioralParams(), MC_DISTRIBUTIONS,
                     n_runs=MC_RUNS, seed=SEED, t_end=MC_DAYS)
    written.append(mc.write_csv(cal / "bands.csv"))
    return written


def write_probes(economy, scenario, rule, traj, t_end, folder: Path) -> list[Path]:
    """Write the raw bytes of ``_rhs`` and of every field of
    ``_reconstruct``'s states, from the discrete states of ``traj``.

    Each segment between kinks is probed half a day after its start and a
    quarter day past its middle, and the lockdown ramp also at the pandemic
    start. On a hold both functions get the segment's start drive, as the
    adaptive run passes it; on a ramp ``_rhs`` reads its shocks at ``t``
    and ``_reconstruct`` gets the drive at ``t``.
    """
    schedule = ShockSchedule(scenario, economy)
    ctx = ModelContext(economy, BehavioralParams(prod_fn=rule), schedule)
    kinks = _kinks(schedule, t_end)
    rhs, states = [], []
    for a, b in zip(kinks, kinks[1:]):
        hold = any(t0 <= a < t1 for t0, t1 in schedule.holds)
        times = [a + 0.5, 0.5 * (a + b) + 0.25]
        if a == schedule.pandemic_start:
            times.insert(0, a)
        for t in times:
            s = traj.states[int(t)]
            y = _pack(s.d_mem, s.l, s.c_agg_d, s.l_perm / ctx.l0_sum, s.S)
            row = schedule.table([a if hold else t])
            drive = ctx.drive(row.eps_S, row.eps_D, row.eps_F).at(0)
            rhs.append(_rhs(t, y, ctx, drive if hold else None))
            state = _reconstruct(ctx, t, y, drive)
            states += [np.asarray(v, dtype=float) for v in vars(state).values()]
    written = []
    for name, arrays in (("adaptive_rhs.bin", rhs),
                         ("adaptive_reconstruct.bin", states)):
        written.append(folder / name)
        written[-1].write_bytes(b"".join(a.tobytes() for a in arrays))
    return written


def write_shock_plans(economy, scenario, folder: Path) -> list[Path]:
    """Write the raw bytes of the shock plan of each ``CUT_RAMPS`` case
    (``<case>.bin``), and the SHA-256 of the plan of each seeded random
    key-date sequence (``random_key_dates.txt``, one line each)."""
    folder.mkdir(parents=True, exist_ok=True)
    written = []
    for case, events in CUT_RAMPS.items():
        scn = scenario if events is None else replace(scenario, key_dates=tuple(
            (date.fromisoformat(d), event) for d, event in events))
        written.append(folder / f"{case}.bin")
        written[-1].write_bytes(plan_bytes(ShockSchedule(scn, economy)))
    rng = np.random.default_rng(SEED)
    lines = []
    for k in range(SHOCK_PLAN_SEQUENCES):
        scn = replace(scenario,
                      key_dates=random_key_dates(rng, scenario.start_date),
                      l1=float(rng.uniform(0.5, 30.0)),
                      l2=float(rng.uniform(0.5, 90.0)))
        digest = hashlib.sha256(plan_bytes(ShockSchedule(scn, economy)))
        lines.append(f"{k} {digest.hexdigest()}\n")
    written.append(folder / "random_key_dates.txt")
    written[-1].write_text("".join(lines))
    return written


def plan_bytes(schedule) -> bytes:
    """The shocks of ``schedule`` at ``SHOCK_PLAN_TIMES`` and at each
    breakpoint and the float below it (``table``, and ``at`` at every 37th
    of those times), with its breakpoints, holds and pandemic start."""
    kinks = schedule.breakpoints
    times = np.concatenate([SHOCK_PLAN_TIMES, kinks, np.nextafter(kinks, -np.inf)])
    parts = [times, kinks, np.asarray(schedule.holds, dtype=float),
             np.asarray([schedule.pandemic_start], dtype=float)]
    for sample in [schedule.table(times),
                   *(schedule.at(float(t)) for t in times[::37])]:
        parts += [sample.eps_S, sample.eps_D, sample.eps_F]
    return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


def output_hashes(directory: Path) -> dict[str, str]:
    """SHA-256 of each output ``write_outputs`` makes, by its path under
    ``directory``."""
    return {
        path.relative_to(directory).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in write_outputs(directory)
    }


def test_outputs_match_the_committed_hashes(tmp_path):
    expected = json.loads(GOLDEN.read_text())["sha256"]
    actual = output_hashes(tmp_path)
    moved = sorted(name for name in expected.keys() | actual.keys()
                   if expected.get(name) != actual.get(name))
    assert not moved, f"SHA-256 moved for: {', '.join(moved)}"
