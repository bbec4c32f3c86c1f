"""Advance the dynamics over a date range and sample trajectories.

``IntegrationConfig`` holds ``method`` and ``dt``. Every run samples by one
rule, ``_output_grid(t_end)``: each whole day from 0 to ``t_end``, and
``t_end`` itself when it is fractional. Two methods are available:

* ``discrete`` -- repeated application of the one-step update with a fixed
  step of at most one day. Scenario breakpoints (ramp starts and ends) and
  sample times are step ends, so ``_march`` finds its samples in its table
  of step end times and calls ``keep(state, g, rows)`` when the points
  ``rows`` reach sample ``g``. ``simulate_series`` steps several runs
  together through the batched kernel with unit steps, calibration's one
  configuration, and keeps only the series it is asked for; one run steps
  in the single layout, as every one-point ``ModelContext`` does. The
  shocks of a batch are read one block of steps at a time, at most
  ``DRIVE_BLOCK_BYTES`` per array, so a chunk's working memory does not
  grow with its run length; a single run is one block (be64 over 395 days
  takes 199 KB).
* ``continuous_adaptive`` -- the embedded Dormand-Prince 5(4) pair applied
  to the daily update treated as a rate field. It makes one solve per
  shock segment: the solver restarts only at scenario breakpoints, the
  pandemic start (where income expectations reset) among them, so its error
  estimator never straddles a kink, and sample times do not split the
  solve. Steps are at most ``MAX_CONTINUOUS_STEP`` (one day): past about
  2.7 days an explicit step on the be64 reference run leaves RK45's
  stability region, and on long flat stretches the error estimate alone
  would let steps grow that far and drift off equilibrium. Samples are
  interpolated within the solver's steps, so they do not depend on the
  other sample times; full states at sample times are then reconstructed
  from the integrated slow variables (demand memory, labor, stocks,
  aggregate consumption, income expectations), so the allocation identity
  holds exactly at every snapshot. A reconstructed state owns its arrays,
  so a trajectory keeps none of the solver's output alive. The error
  tolerances are fixed at ``SOLVER_RTOL`` and ``SOLVER_ATOL``. A hold
  segment's shocks are one drive; on a ramp the solver forms the drives of
  each step attempt's six evaluation times in one block. The solver
  (``solve_ivp``) lives in this module and is bitwise scipy's ``RK45``;
  the run path no longer imports scipy, whose ``scipy.integrate`` took
  about 0.5 s and 50 MB.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from ._files import keyed_once, read_csv, write_csv
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
from .errors import IntegrationError, SchemaError, ValidationError
from .shocks import Scenario, ShockSchedule

METHOD_DISCRETE = "discrete"
METHOD_CONTINUOUS = "continuous_adaptive"
METHODS = (METHOD_DISCRETE, METHOD_CONTINUOUS)

#: Relative and absolute error tolerances of the adaptive solver.
SOLVER_RTOL = 1e-6
SOLVER_ATOL = 1e-8

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntegrationConfig:
    method: str = METHOD_DISCRETE
    dt: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"method must be one of {METHODS}")
        if not 0.0 < self.dt <= 1.0:
            raise ValidationError(f"dt = {self.dt} outside (0, 1] days")


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

    def aggregate_output(self) -> np.ndarray:
        return self.series(lambda s: float(s.x.sum()))

    def date_at(self, t: float) -> date:
        return self.start_date + timedelta(days=float(t))


def _output_grid(t_end: float) -> np.ndarray:
    """The sample times of every run: each whole day from 0 to ``t_end``,
    and ``t_end`` itself when it is fractional."""
    if not 0.0 < t_end < math.inf:
        raise ValidationError(f"t_end = {t_end} outside (0, inf) days")
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
    grid = _output_grid(t_end)
    schedule = ShockSchedule(scenario, economy)
    ctx = ModelContext(economy, params, schedule)
    if config.method == METHOD_DISCRETE:
        states = _run_discrete(ctx, grid, t_end, config.dt)
    else:
        states = _run_continuous(ctx, grid, t_end)
    return Trajectory(
        times=grid,
        states=states,
        codes=tuple(economy.codes),
        start_date=scenario.start_date,
    )


def _kinks(schedule: ShockSchedule, t_end: float) -> list[float]:
    """0, ``t_end`` and the shock breakpoints between: the kinks, and the
    pandemic start (a jump), which is the first phase's start."""
    pts = {0.0, float(t_end)}
    pts.update(float(b) for b in schedule.breakpoints if 0.0 < b < t_end)
    return sorted(pts)


def _boundaries(schedule: ShockSchedule, grid: np.ndarray, t_end: float):
    """The kinks and the sample times: where discrete steps must end."""
    pts = set(_kinks(schedule, t_end))
    pts.update(float(g) for g in grid if 0.0 < g < t_end)
    return sorted(pts)


def _plan(schedule: ShockSchedule, grid, t_end, dt):
    """One point's discrete steps: the end time and the length of each."""
    bounds = _boundaries(schedule, grid, t_end)
    t, h = [], []
    for a, b in zip(bounds, bounds[1:]):
        span = b - a
        n = max(1, math.ceil(span / dt - 1e-9))
        step = span / n
        for k in range(1, n + 1):
            t.append(b if k == n else a + k * step)
            h.append(step)
    return np.asarray(t), np.asarray(h)


#: Most bytes one ``(steps, B, N)`` array of the shock drive ``_march``
#: forms for a block of steps may take.
DRIVE_BLOCK_BYTES = 2**18


def _march(ctx: ModelContext, grid, t_end, dt, keep) -> None:
    """Step every point of ``ctx`` from the equilibrium epoch to ``t_end``.

    Each time of ``grid`` (``_output_grid(t_end)``) ends a step; sample 0
    is the start. At the start and after each step that ends on a sample
    time, calls ``keep(state, g, rows)``: the points ``rows`` reached
    sample ``g``. When all points reached one sample (a one-point
    context, whose ``state`` is ``(N,)``, always does), ``rows`` is
    ``slice(None)`` and ``g`` an index, so the keeper copies no rows; else
    both are index arrays, one entry per point. Points whose scenarios put
    breakpoints at different times take different steps; a point that runs
    out of steps early keeps stepping whole days past ``t_end``, and those
    states are never kept. The shocks are read in blocks of at most
    ``DRIVE_BLOCK_BYTES`` per array; a table row does not depend on the
    other times of its block, so neither do the bits. Whether every point
    of a step row steps one whole day is read off the step-length table
    once, not found by each step.
    """
    shared: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}
    plans = []
    for s in ctx.schedules:  # a plan reads its schedule's breakpoints only
        key = tuple(s.breakpoints.tolist())
        if key not in shared:
            shared[key] = _plan(s, grid, t_end, dt)
        plans.append(shared[key])
    n = max(len(t) for t, _ in plans)
    T = np.empty((n, ctx.size))
    H = np.ones((n, ctx.size))
    for k, (t, h) in enumerate(plans):
        T[:, k] = np.concatenate([t, t_end + np.arange(1.0, n - len(t) + 1.0)])
        H[:len(h), k] = h
    G = np.minimum(np.searchsorted(grid, T), len(grid) - 1)
    hit = grid[G] == T
    any_hit = hit.any(axis=1).tolist()
    whole = (H == 1.0).all(axis=1).tolist()
    together = (hit.all(axis=1) & (G == G[:, :1]).all(axis=1)).tolist()

    if ctx.batched:
        state = initial_batch(ctx.economy, ctx.size)
        times, lengths = T, H
    else:  # one point steps (N,) state with float times
        state = initial_state(ctx.economy)
        times, lengths = T[:, 0].tolist(), H[:, 0].tolist()
    keep(state, 0, slice(None))
    block = max(1, DRIVE_BLOCK_BYTES // (8 * ctx.size * ctx.economy.n_sectors))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        drive = ctx.drives(T[lo:hi])
        for j in range(lo, hi):
            state = _advance(ctx, state, times[j], lengths[j], drive.at(j - lo),
                             whole[j])
            if together[j]:
                keep(state, G[j, 0], slice(None))
            elif any_hit[j]:
                rows = hit[j].nonzero()[0]
                keep(state, G[j, rows], rows)


def _run_discrete(ctx: ModelContext, grid, t_end, dt) -> list[SimState]:
    states: list[SimState] = [None] * len(grid)

    def keep(state, g, rows):
        states[g] = state

    _march(ctx, grid, t_end, dt, keep)
    return states


#: The per-sector series of a state, single or batched, in the column order
#: of the exports; ``simulate_series`` records them and scoring reads them.
SERIES = {
    "x": lambda s: s.x,
    "d": lambda s: s.d,
    "l": lambda s: s.l,
    "c": lambda s: s.c,
    "f": lambda s: s.f,
    "b2b": lambda s: s.O.sum(axis=-1),  # outgoing realized orders
}


@dataclass
class Series:
    """Per-sector series of several runs on a common sample grid."""

    times: np.ndarray  # (G,)
    values: dict[str, np.ndarray]  # name -> (runs, G, N)


def simulate_series(economy: Economy, runs, t_end: float, names) -> Series:
    """Simulate ``runs`` ((scenario, params) pairs sharing ``prod_fn`` and a
    start date) by the discrete method with unit steps, and keep only the
    ``SERIES`` named in ``names``.

    All runs step together in one pass, batched when there are several
    (``ModelContext`` picks the layout from the run count); each run's
    series are bitwise those of its own ``simulate`` call.
    """
    grid = _output_grid(t_end)
    runs = list(runs)
    if len({scn.start_date for scn, _ in runs}) != 1:
        raise ValidationError("runs must share the scenario start date")
    n = economy.n_sectors
    values = {name: np.empty((len(runs), len(grid), n)) for name in names}
    schedules = [ShockSchedule(scn, economy) for scn, _ in runs]
    ctx = ModelContext(economy, [prm for _, prm in runs], schedules)

    def keep(state, g, rows):
        for name in names:
            values[name][rows, g] = SERIES[name](state)[rows]

    _march(ctx, grid, t_end, 1.0, keep)
    return Series(grid, values)


# -- continuous method ------------------------------------------------------

# The Dormand-Prince 5(4) pair with Shampine's quartic dense output (Hairer,
# Norsett & Wanner, *Solving ODEs I*, II.4-II.6). The step control and its
# constants are those of scipy's ``RK45``, operation for operation, so a
# solve gives bitwise scipy's trajectory. Stage 0 is the slope at (t, y);
# stage s > 0 is the slope at t + c h and y + h sum_j a_j K_j (j < s).
_STAGES = [(len(a), np.array(a), c) for a, c in (
    ([1 / 5], 1 / 5),
    ([3 / 40, 9 / 40], 3 / 10),
    ([44 / 45, -56 / 15, 32 / 9], 4 / 5),
    ([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729], 8 / 9),
    ([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656], 1.0),
)]
# _B: the order-5 weights; _E: the error weights (the 4(5) difference);
# _P: the quartic interpolant's coefficients, per stage.
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
               -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step-size factor bounds
_ERROR_EXPONENT = -1 / 5  # the error estimate is of order 4
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


@dataclass
class Solution:
    """One solve: ``y[:, k]`` is the state at ``t[k]``."""

    success: bool
    message: str
    t: np.ndarray
    y: np.ndarray
    nfev: int  # right-hand side evaluations
    naccept: int  # accepted steps
    nreject: int  # rejected step attempts


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, max_step, rtol, atol) -> float:
    """The first step of Hairer, Norsett & Wanner II.4, as scipy picks it."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length, max_step)


def solve_ivp(fun, t_span, y0, *, t_eval, args=(), rtol=1e-3, atol=1e-6,
              max_step=math.inf, _drives=None) -> Solution:
    """Integrate ``y' = fun(t, y, *args)`` forward over ``t_span`` with the
    Dormand-Prince 5(4) pair and sample it at ``t_eval`` from each step's
    dense output. It gives bitwise the ``t``, ``y`` and ``nfev`` of
    ``scipy.integrate.solve_ivp`` with ``method="RK45"`` and the same
    arguments, except that ``rtol`` is not clamped to 100 machine epsilons
    (the run path passes ``SOLVER_RTOL``).

    ``_drives``, when given, maps a list of times to a ``Drive`` block with
    one row per time; each evaluation then calls ``fun(t, y, *args, row)``
    with the row of its ``t``. It is called once per step attempt, for
    that attempt's six evaluation times, and once for each of the two
    evaluations that pick the first step."""
    t, t_bound = map(float, t_span)
    t_eval = np.asarray(t_eval, dtype=float)
    y = np.asarray(y0, dtype=float)
    if not (t < t_bound and t_eval.ndim == 1 and t_eval.size
            and t <= t_eval[0] and t_eval[-1] <= t_bound
            and np.all(np.diff(t_eval) > 0)):
        raise ValueError("t_eval must increase strictly within t_span")
    nfev = 0

    def rows(times):  # the extra arguments of the evaluations at ``times``
        if _drives is None:
            return [()] * len(times)
        block = _drives(times)
        return [(block.at(k),) for k in range(len(times))]

    def rhs(t, y, row=None):  # without ``row``, the evaluation forms its own
        nonlocal nfev
        nfev += 1
        if row is None:
            row = rows([t])[0]
        return fun(t, y, *args, *row)

    f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_bound, max_step, rtol, atol)
    K = np.empty((7, y.size))
    ys = np.empty((y.size, t_eval.size))
    done = naccept = nreject = 0  # done: samples taken
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        K[0] = f
        abs_y = np.abs(y)
        while True:  # one step: shrink it until its error is in tolerance
            if h_abs < min_step:
                return Solution(False, TOO_SMALL_STEP, t_eval[:done],
                                ys[:, :done], nfev, naccept, nreject)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            times = [t + c * h for _, _, c in _STAGES] + [t + h]
            extra = rows(times)
            for (s, a, _), t_s, row in zip(_STAGES, times, extra):
                # y + h sum_j a_j K_j, with scipy's bits: (K^T a) h + y
                dy = np.dot(K[:s].T, a)
                dy *= h
                dy += y
                K[s] = rhs(t_s, dy, row)
            y_new = np.dot(K[:-1].T, _B)
            y_new *= h
            y_new += y
            K[-1] = f_new = rhs(times[-1], y_new, extra[-1])
            scale = np.abs(y_new)
            np.maximum(abs_y, scale, out=scale)
            scale *= rtol
            scale += atol
            err = np.dot(K.T, _E)
            err *= h
            err /= scale
            error = _rms(err)
            if error < 1:
                factor = (MAX_FACTOR if error == 0 else
                          min(MAX_FACTOR, SAFETY * error ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
            nreject += 1
        naccept += 1
        stop = int(np.searchsorted(t_eval, t_new, side="right"))
        if stop > done:  # samples up to t_new: the step's dense output
            x = (t_eval[done:stop] - t) / h
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
            sample = h * np.dot(K.T.dot(_P), p)
            sample += y[:, None]
            ys[:, done:stop] = sample
            done = stop
        t, y, f = t_new, y_new, f_new
    return Solution(True, "The solver successfully reached the end of the "
                    "integration interval.", t_eval, ys, nfev, naccept, nreject)


def _pack(d, l, c_agg, zeta, S) -> np.ndarray:
    return np.concatenate([d, l, [c_agg, zeta], S.ravel()])


def _probe(ctx: ModelContext, t: float, y: np.ndarray,
           l_max: np.ndarray | None = None) -> SimState:
    """The state the solver's ``y`` (laid out by ``_pack``) stands for: its
    slow variables, with labor and stocks clipped to their bounds (labor to
    ``l_max`` as well, when given), and demand in the place of every flow."""
    n = ctx.economy.n_sectors
    d, l, S = y[:n], y[n:2 * n], y[2 * n + 2:].reshape(n, n)
    l = np.maximum(l, 0.0) if l_max is None else np.clip(l, 0.0, l_max)
    return SimState(
        t=t, x=d, d=d, l=l, c=d, f=d, O=ctx.S_target, S=np.maximum(S, 0.0),
        c_agg_d=float(y[2 * n]), l_perm=float(y[2 * n + 1]) * ctx.l0_sum,
        d_mem=d,
    )


def _rhs(t: float, y: np.ndarray, ctx: ModelContext,
         drive: Drive | None = None) -> np.ndarray:
    """The daily update as a rate field. ``drive`` holds the shocks at
    ``t``: on a hold, the segment's one drive; on a ramp, ``t``'s row of
    the drives the solver forms for a step attempt (``ctx.drives``).
    Without it ``_advance`` forms them at ``t``, with the same bits."""
    nxt = _advance(ctx, _probe(ctx, t, y), t, dt=1.0, drive=drive)
    out = _pack(nxt.d, nxt.l, nxt.c_agg_d, nxt.l_perm / ctx.l0_sum, nxt.S)
    out -= y
    return out


def _reconstruct(ctx: ModelContext, t: float, y: np.ndarray,
                 drive: Drive) -> SimState:
    """Consistent full state from the integrated slow variables, under the
    shocks ``drive`` at ``t``. The state owns its arrays, so it keeps none
    of the solver's output alive."""
    probe = _probe(ctx, t, y, drive.l_max)
    x, d, c, f, O, _, _ = _produce(ctx, probe, probe.c_agg_d, drive)
    state = SimState(
        t=t, x=x, d=d, l=probe.l, c=c, f=f, O=O, S=probe.S,
        c_agg_d=probe.c_agg_d, l_perm=probe.l_perm, d_mem=probe.d_mem.copy(),
    )
    _check_state(state, ctx.economy, None, drive.l_max)
    return state


#: Longest adaptive step, in days (see the module docstring).
MAX_CONTINUOUS_STEP = 1.0


def _run_continuous(ctx: ModelContext, grid, t_end) -> list[SimState]:
    n = ctx.economy.n_sectors
    schedule = ctx.schedules[0]
    grid = [float(g) for g in grid]
    states: list[SimState] = [None] * len(grid)
    init = initial_state(ctx.economy)
    y = _pack(init.d, init.l, init.c_agg_d, 1.0, init.S)
    states[0] = init
    g = 1  # next sample to take
    kinks = _kinks(schedule, t_end)
    holds = schedule.holds
    # The drive at each segment start and sample time.
    starts, samples = ctx.drives(kinks[:-1]), ctx.drives(grid)
    for s, (a, b) in enumerate(zip(kinks, kinks[1:])):
        if a == schedule.pandemic_start:
            # Income expectations drop to the shocked level at lockdown start.
            y[2 * n + 1] = ctx.households[0].zeta_L
        # A segment lies in one piece of the shock plan: on a hold its
        # shocks are those at its start; on a ramp the solver forms the
        # drives of each step attempt's six evaluation times in one block.
        if any(t0 <= a < t1 for t0, t1 in holds):
            args, drives = (ctx, starts.at(s)), None
        else:
            args, drives = (ctx,), ctx.drives
        k = bisect.bisect_right(grid, b, lo=g)  # samples g..k-1 lie in (a, b]
        t_eval = grid[g:k] if k > g and grid[k - 1] == b else grid[g:k] + [b]
        sol = solve_ivp(
            _rhs, (a, b), y, args=args, _drives=drives,
            rtol=SOLVER_RTOL, atol=SOLVER_ATOL,
            max_step=MAX_CONTINUOUS_STEP, t_eval=t_eval,
        )
        if not sol.success:
            raise IntegrationError(
                f"adaptive integration failed on the segment [{a}, {b}] "
                f"(days): {sol.message}"
            )
        log.debug("segment [%s, %s]: %d evaluations, %d accepted and "
                  "%d rejected steps", a, b, sol.nfev, sol.naccept, sol.nreject)
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
AGGREGATE_COLUMNS = ("t", "date", "x_total", "d_total", "l_total", "c_total",
                     "f_total", "b2b_total")


def write_trajectory_csv(traj: Trajectory, path) -> Path:
    """Long-format per-sector series plus one aggregate row per time.

    The bytes are those of ``csv.writer`` writing ``repr`` of every value:
    each sample's rows are formatted from one ``tolist`` of its series and
    written at once, which is faster than a writer call per row.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = [_csv_field(code) for code in (*traj.codes, AGGREGATE_CODE)]
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for t, state in zip(traj.times, traj.states):
            head = f"{float(t)!r},{traj.date_at(t).isoformat()},"
            series = [get(state) for get in SERIES.values()]
            rows = np.stack(series, axis=1).tolist()
            rows.append([float(v.sum()) for v in series])
            fh.write("".join(
                f"{head}{label},{','.join(map(repr, row))}\r\n"
                for label, row in zip(labels, rows)
            ))
    return path


def write_aggregate_csv(traj: Trajectory, path) -> Path:
    """One row of economy-wide totals per time: the ``AGGREGATE_CODE`` rows
    of ``write_trajectory_csv``, value for value."""
    return write_csv(path, AGGREGATE_COLUMNS, (
        [repr(float(t)), traj.date_at(t).isoformat(),
         *(repr(float(get(state).sum())) for get in SERIES.values())]
        for t, state in zip(traj.times, traj.states)
    ))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it: quoted when it holds a comma,
    a double quote or a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def read_trajectory_csv(path):
    """Read a trajectory CSV into ``{column: {(t, sector): value}}``; a file
    that is not one, or lists a (t, sector) row twice, raises ``SchemaError``."""
    _, rows = read_csv(path, TRAJECTORY_COLUMNS)
    try:
        table = keyed_once(path, (((float(t), sector), [float(v) for v in values])
                                  for t, _, sector, *values in rows), "row")
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return {col: {key: values[j] for key, values in table.items()}
            for j, col in enumerate(TRAJECTORY_COLUMNS[3:])}
