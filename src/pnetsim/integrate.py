"""Advance the dynamics over a date range and sample trajectories.

Two methods are available:

* ``discrete`` -- repeated application of the one-step update with a fixed
  step of at most one day. Steps are aligned so that scenario breakpoints
  (ramp starts and ends) and requested sample times always fall on step
  boundaries. ``simulate_series`` steps several runs together through the
  batched kernel and keeps only the series it is asked for.
* ``continuous_adaptive`` -- an embedded Dormand-Prince 4(5) pair applied
  to the daily update treated as a rate field. It makes one solve per
  shock segment: the solver restarts only at scenario breakpoints and at
  the pandemic start (where income expectations reset), so its error
  estimator never straddles a kink, and sample times do not split the
  solve. Steps are at most ``MAX_CONTINUOUS_STEP`` (one day): past about
  2.7 days an explicit step on the be64 reference run leaves RK45's
  stability region, and on long flat stretches the error estimate alone
  would let steps grow that far and drift off equilibrium. Samples are
  interpolated within the solver's steps, so they do not depend on the
  other sample times; full states at sample times are then reconstructed
  from the integrated slow variables (demand memory, labor, stocks,
  aggregate consumption, income expectations), so the allocation identity
  holds exactly at every snapshot. scipy, which supplies the solver, is
  imported on the first adaptive solve, so discrete runs never load it.
"""

from __future__ import annotations

import bisect
import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .dynamics import (  # noqa: F401 - _input_capacity: perfbench traces it here
    BehavioralParams,
    Drive,
    ModelContext,
    SimState,
    _advance,
    _check_state,
    _input_capacity,
    _produce,
    initial_batch,
    initial_state,
)
from .economy import Economy
from .errors import IntegrationError
from .shocks import Scenario, ShockSchedule

METHOD_DISCRETE = "discrete"
METHOD_CONTINUOUS = "continuous_adaptive"
METHODS = (METHOD_DISCRETE, METHOD_CONTINUOUS)


@dataclass(frozen=True)
class IntegrationConfig:
    method: str = METHOD_DISCRETE
    dt: float = 1.0
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8
    output_grid: tuple[float, ...] | None = None  # None: every whole day

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0.0 < self.dt <= 1.0:
            raise ValueError("dt must lie in (0, 1] days")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    times: np.ndarray
    states: list[SimState]
    codes: tuple[str, ...]
    start_date: date

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("one state required per sample time")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def series(self, extract) -> np.ndarray:
        """Stack ``extract(state)`` over time into an array."""
        return np.asarray([extract(s) for s in self.states])

    def gross_output(self) -> np.ndarray:
        return self.series(lambda s: s.x)

    def aggregate_output(self) -> np.ndarray:
        return self.series(lambda s: float(s.x.sum()))

    def date_at(self, t: float) -> date:
        return self.start_date + timedelta(days=float(t))


def _output_grid(config: IntegrationConfig, t_end: float) -> np.ndarray:
    if config.output_grid is not None:
        grid = np.asarray(sorted(set(float(t) for t in config.output_grid)))
        if grid.size == 0:
            raise ValueError("output grid is empty")
        if grid[0] < 0 or grid[-1] > t_end + 1e-9:
            raise ValueError("output grid extends outside [0, t_end]")
        return grid
    grid = np.arange(0.0, math.floor(t_end) + 1.0)
    if t_end - math.floor(t_end) > 1e-9:
        grid = np.append(grid, t_end)
    return grid


def simulate(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    config: IntegrationConfig,
    t_end: float,
) -> Trajectory:
    """Run the model from the equilibrium epoch to day ``t_end``."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    schedule = ShockSchedule(scenario, economy)
    ctx = ModelContext(economy, params, schedule)
    grid = _output_grid(config, t_end)
    if config.method == METHOD_DISCRETE:
        states = _run_discrete(ctx, grid, t_end, config.dt)
    else:
        states = _run_continuous(ctx, grid, t_end, config)
    return Trajectory(
        times=grid,
        states=states,
        codes=tuple(economy.codes),
        start_date=scenario.start_date,
    )


def _kinks(schedule: ShockSchedule, t_end: float) -> list[float]:
    """0, ``t_end`` and the times between where the dynamics have a kink
    (shock breakpoints) or a jump (the pandemic start)."""
    pts = {0.0, float(t_end)}
    pts.update(float(b) for b in schedule.breakpoints if 0.0 < b < t_end)
    if schedule.pandemic_start is not None and 0.0 < schedule.pandemic_start < t_end:
        pts.add(float(schedule.pandemic_start))
    return sorted(pts)


def _boundaries(schedule: ShockSchedule, grid: np.ndarray, t_end: float):
    """The kinks and the sample times: where discrete steps must end."""
    pts = set(_kinks(schedule, t_end))
    pts.update(float(g) for g in grid if 0.0 < g < t_end)
    return sorted(pts)


@dataclass(frozen=True)
class _Plan:
    """One point's discrete steps and where its samples fall among them."""

    t: np.ndarray  # end time of each step
    h: np.ndarray  # length of each step
    samples: list[tuple[int, int]]  # (step index, grid index); -1: the start


def _plan(schedule: ShockSchedule, grid, t_end, dt) -> _Plan:
    bounds = _boundaries(schedule, grid, t_end)
    position = {float(g): k for k, g in enumerate(grid)}
    t, h, samples = [], [], []
    if 0.0 in position:
        samples.append((-1, position[0.0]))
    for a, b in zip(bounds, bounds[1:]):
        span = b - a
        n = max(1, math.ceil(span / dt - 1e-9))
        step = span / n
        for k in range(1, n + 1):
            t.append(b if k == n else a + k * step)
            h.append(step)
        if b in position:
            samples.append((len(t) - 1, position[b]))
    return _Plan(np.asarray(t), np.asarray(h), samples)


def _march(ctx: ModelContext, grid, t_end, dt, keep) -> None:
    """Step every point of ``ctx`` from the equilibrium epoch to ``t_end``.

    Calls ``keep(state, g, rows)`` whenever the points ``rows`` (a slice or
    an index array into a batch) reach sample ``g`` of ``grid``. Points
    whose scenarios put breakpoints at different times take different
    steps; a point that runs out of steps early keeps stepping whole days
    past ``t_end``, and those states are never kept.
    """
    plans = [_plan(s, grid, t_end, dt) for s in ctx.schedules]
    n = max(len(p.t) for p in plans)
    T = np.empty((n, ctx.size))
    H = np.ones((n, ctx.size))
    for k, p in enumerate(plans):
        T[:, k] = np.concatenate([p.t, t_end + np.arange(1.0, n - len(p.t) + 1.0)])
        H[:len(p.h), k] = p.h
    tables = [s.table(T[:, k]) for k, s in enumerate(ctx.schedules)]
    drive = ctx.drive(*(
        np.stack([getattr(tab, name) for tab in tables], axis=1)
        for name in ("eps_S", "eps_D", "eps_F")
    ))
    hits: dict[int, dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for k, p in enumerate(plans):
        for j, g in p.samples:
            hits[j][g].append(k)
    whole = slice(None)

    def keep_hits(j, state):
        for g, rows in hits[j].items():
            keep(state, g, whole if len(rows) == ctx.size else np.asarray(rows))

    if ctx.batched:
        state = initial_batch(ctx.economy, ctx.size)
    else:  # a single run steps (N,) state with float times
        T, H = T[:, 0].tolist(), H[:, 0].tolist()
        drive = drive.at((slice(None), 0))
        state = initial_state(ctx.economy)
    if -1 in hits:
        keep_hits(-1, state)
    for j in range(n):
        state = _advance(ctx, state, T[j], H[j], drive.at(j))
        if j in hits:
            keep_hits(j, state)


def _run_discrete(ctx: ModelContext, grid, t_end, dt) -> list[SimState]:
    states: list[SimState] = [None] * len(grid)

    def keep(state, g, rows):
        states[g] = state

    _march(ctx, grid, t_end, dt, keep)
    return states


#: Per-sector series ``simulate_series`` can record, from a batched state.
SERIES = {
    "x": lambda s: s.x,
    "l": lambda s: s.l,
    "c": lambda s: s.c,
    "b2b": lambda s: s.O.sum(axis=-1),  # outgoing realized orders
}


@dataclass
class Series:
    """Per-sector series of several runs on a common sample grid."""

    times: np.ndarray  # (G,)
    values: dict[str, np.ndarray]  # name -> (runs, G, N)


def simulate_series(
    economy: Economy,
    runs,
    config: IntegrationConfig,
    t_end: float,
    names=("x", "l", "b2b"),
) -> Series:
    """Simulate ``runs`` ((scenario, params) pairs sharing ``prod_fn`` and a
    start date) and keep only the ``SERIES`` named in ``names``.

    The discrete method steps all runs together in one batched pass (a
    single run steps unbatched); each run's series are bitwise those of its
    own ``simulate`` call.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    runs = list(runs)
    if len({scn.start_date for scn, _ in runs}) != 1:
        raise ValueError("runs must share the scenario start date")
    grid = _output_grid(config, t_end)
    n = economy.n_sectors
    values = {name: np.empty((len(runs), len(grid), n)) for name in names}
    if config.method != METHOD_DISCRETE:
        for k, (scn, prm) in enumerate(runs):
            traj = simulate(economy, scn, prm, config, t_end)
            for name in names:
                values[name][k] = [SERIES[name](s) for s in traj.states]
        return Series(grid, values)

    params = [prm for _, prm in runs]
    schedules = [ShockSchedule(scn, economy) for scn, _ in runs]
    if len(runs) == 1:  # a batch of one steps slower than a single run
        params, schedules = params[0], schedules[0]
    ctx = ModelContext(economy, params, schedules)

    def keep(state, g, rows):
        for name in names:
            values[name][rows, g] = SERIES[name](state)[rows]

    _march(ctx, grid, t_end, config.dt, keep)
    return Series(grid, values)


# -- continuous method ------------------------------------------------------

def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first use: loading scipy
    costs more than a whole discrete reference run."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _pack(d, l, c_agg, zeta, S) -> np.ndarray:
    return np.concatenate([d, l, [c_agg, zeta], S.ravel()])


def _unpack(y: np.ndarray, n: int):
    d = y[:n]
    l = y[n:2 * n]
    c_agg = float(y[2 * n])
    zeta = float(y[2 * n + 1])
    S = y[2 * n + 2:].reshape(n, n)
    return d, l, c_agg, zeta, S


def _rhs(t: float, y: np.ndarray, ctx: ModelContext,
         drive: Drive | None = None) -> np.ndarray:
    """The daily update as a rate field. ``drive`` holds the shocks of a
    hold segment; without it they are read at ``t``."""
    n = ctx.economy.n_sectors
    d, l, c_agg, zeta, S = _unpack(y, n)
    probe = SimState(
        t=t, x=d, d=d, l=np.clip(l, 0.0, None), c=d, f=d, O=ctx.S_target,
        S=np.maximum(S, 0.0), c_agg_d=c_agg, l_perm=zeta * ctx.l0_sum,
        d_mem=d,
    )
    nxt = _advance(ctx, probe, t, dt=1.0, drive=drive)
    return _pack(
        nxt.d - d,
        nxt.l - l,
        nxt.c_agg_d - c_agg,
        nxt.l_perm / ctx.l0_sum - zeta,
        nxt.S - S,
    )


def _reconstruct(ctx: ModelContext, t: float, y: np.ndarray,
                 drive: Drive) -> SimState:
    """Consistent full state from the integrated slow variables, under the
    shocks ``drive`` at ``t``."""
    economy = ctx.economy
    d_y, l_y, c_agg, zeta, S_y = _unpack(y, economy.n_sectors)
    l_max = (1.0 - drive.eps_S) * economy.l0
    probe = SimState(
        t=t, x=d_y, d=d_y, l=np.clip(l_y, 0.0, l_max), c=d_y, f=d_y,
        O=ctx.S_target, S=np.maximum(S_y, 0.0), c_agg_d=c_agg,
        l_perm=zeta * ctx.l0_sum, d_mem=d_y,
    )
    x, d, c, f, O, _, _ = _produce(ctx, probe, c_agg, drive)
    state = SimState(
        t=t, x=x, d=d, l=probe.l, c=c, f=f, O=O, S=probe.S,
        c_agg_d=c_agg, l_perm=probe.l_perm, d_mem=d_y,
    )
    _check_state(state, economy, drive.eps_S)
    return state


#: Longest adaptive step, in days (see the module docstring).
MAX_CONTINUOUS_STEP = 1.0


def _run_continuous(ctx: ModelContext, grid, t_end, config) -> list[SimState]:
    n = ctx.economy.n_sectors
    schedule = ctx.schedule
    grid = [float(g) for g in grid]
    states: list[SimState] = [None] * len(grid)
    init = initial_state(ctx.economy)
    y = _pack(init.d, init.l, init.c_agg_d, 1.0, init.S)
    g = 0  # next sample to take
    if grid[0] == 0.0:
        states[0] = init
        g = 1
    kinks = _kinks(schedule, t_end)
    holds = schedule.holds
    starts, samples = (  # the drive at each segment start and sample time
        ctx.drive(tab.eps_S, tab.eps_D, tab.eps_F)
        for tab in (schedule.table(kinks[:-1]), schedule.table(grid))
    )
    for s, (a, b) in enumerate(zip(kinks, kinks[1:])):
        if a == schedule.pandemic_start:
            # Income expectations drop to the shocked level at lockdown start.
            y[2 * n + 1] = ctx.per_point.households[0].zeta_L
        # A segment lies in one piece of the shock plan: on a hold its
        # shocks are those at its start, on a ramp they are read at each t.
        drive = starts.at(s) if any(t0 <= a < t1 for t0, t1 in holds) else None
        k = bisect.bisect_right(grid, b, lo=g)  # samples g..k-1 lie in (a, b]
        t_eval = grid[g:k] if k > g and grid[k - 1] == b else grid[g:k] + [b]
        sol = solve_ivp(
            _rhs, (a, b), y, method="RK45", args=(ctx, drive),
            rtol=config.rel_tol, atol=config.abs_tol,
            max_step=MAX_CONTINUOUS_STEP, t_eval=t_eval,
        )
        if not sol.success:
            raise IntegrationError(
                f"adaptive integration failed on the segment [{a}, {b}] "
                f"(days): {sol.message}"
            )
        for j in range(g, k):
            states[j] = _reconstruct(ctx, grid[j], sol.y[:, j - g], samples.at(j))
        g = k
        y = sol.y[:, -1]  # segment end, chained into the next segment
    return states


# ---------------------------------------------------------------------------
# Trajectory export
# ---------------------------------------------------------------------------

AGGREGATE_CODE = "BE"
TRAJECTORY_COLUMNS = ("t", "date", "sector", "x", "d", "l", "c", "f", "b2b_out")


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    """Long-format per-sector series plus one aggregate row per time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRAJECTORY_COLUMNS)
        for t, state in zip(traj.times, traj.states):
            day = traj.date_at(t).isoformat()
            b2b = state.O.sum(axis=1)
            for i, code in enumerate(traj.codes):
                w.writerow([
                    repr(float(t)), day, code,
                    repr(float(state.x[i])), repr(float(state.d[i])),
                    repr(float(state.l[i])), repr(float(state.c[i])),
                    repr(float(state.f[i])), repr(float(b2b[i])),
                ])
            w.writerow([
                repr(float(t)), day, AGGREGATE_CODE,
                repr(float(state.x.sum())), repr(float(state.d.sum())),
                repr(float(state.l.sum())), repr(float(state.c.sum())),
                repr(float(state.f.sum())), repr(float(b2b.sum())),
            ])
    return path


def read_trajectory_csv(path):
    """Read a trajectory CSV into ``{column: {(t, sector): value}}``."""
    path = Path(path)
    values: dict[str, dict[tuple[float, str], float]] = {
        c: {} for c in TRAJECTORY_COLUMNS[3:]
    }
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(TRAJECTORY_COLUMNS):
            raise IntegrationError(
                f"{path}: not a trajectory CSV (header {reader.fieldnames})"
            )
        for row in reader:
            key = (float(row["t"]), row["sector"])
            for col in values:
                values[col][key] = float(row[col])
    return values
