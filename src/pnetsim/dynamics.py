"""Single-step dynamics of the production network model.

Rate-based updates (inventory-gap closing, hiring and firing, the aggregate
consumption recursion) scale consistently with the step size ``dt`` so that
fixed points are independent of ``dt``; at ``dt = 1`` day the update is
exactly the daily recursion. Quantities defined instantaneously each step
(output, demand, realized allocations) are recomputed from scratch, so the
allocation identity c + f + sum(O) = x holds at every stored state.

The step exists once, as the array kernel ``_advance``. It works on a
single run's ``(N,)`` vectors and ``(N, N)`` matrices, or on a batch with
a leading axis, ``(B, N)`` and ``(B, N, N)``, one row per parameter point;
every point's result is bitwise the same as stepping that point alone.
``ModelContext`` picks the layout from its point count: one point steps
``(N,)`` state with a scalar ``dt`` and keeps its scalars as floats, and a
batch carries one ``dt`` per point.
Its stages, in order:

1. shocks: the step's ``Drive``, a row of the run's shock table, with
   the labor cap, exogenous demand, household preference shares and the
   share of consumption shocked away, the last two from one sum
   (``household_preferences``);
2. households (``_households``): compensated labor income
   (``compensated_labor_income``), permanent income (``_zeta_next``,
   ``_zeta_recursion``) and aggregate consumption demand
   (``_consumption_update``);
3. production (``_produce``): B2B orders (``_orders``), labor capacity
   (``labor_capacity``), input capacity under the bottleneck rule
   (``_input_capacity``), realized output (``realized_output``) and
   proportional rationing (``_ration``). Input capacity reads only the
   stocks the rule rates: ``InputMasks`` lists them once per run, and each
   step gathers them, divides them by their recipe coefficients and takes
   each column's minimum, with the bits of the dense masked minimum;
4. stock and workforce adjustment (``_restock``, ``_labor_update``);
5. the model invariants (``_check_state``), which raise
   ``ModelStateError``.

Run constants (the rated inputs, inventory targets, the households'
consumption share ``m``, per-point parameters) live in ``ModelContext``.
What depends only on the shocks is formed in one place,
``ModelContext.drives``, from the schedules' shock tables
(``ShockSchedule.table``), once per block of step times: a discrete single
run is one block, a batch reads blocks of at most
``integrate.DRIVE_BLOCK_BYTES`` per array, and the adaptive method forms
the drives of all segment starts and of all samples in two calls, and on a
ramp one per step attempt, over the attempt's six evaluation times (and
one for each of the two evaluations that pick a segment's first step). A
step called without a drive forms its own, a block of one time. A step
forms everything else, the labor band bound of ``_check_state`` included.
Elementwise arithmetic on a block gives each row the bits it has on its
own.

Every array of the state a step returns is new, because trajectories
keep states: a stage may reuse memory from step to step (scratch the run
owns) only for a temporary that no state keeps.

The stages are internal: runs go through ``integrate.simulate`` and
``integrate.simulate_series``.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .economy import (
    CriticalitySets,
    Economy,
    derive_criticality_sets,
    initial_inventories,
)
from .errors import ModelStateError, ValidationError
from .shocks import Scenario, ShockSchedule, aggregate_shock

PRODUCTION_FUNCTIONS = (
    "leontief",
    "strongly_critical",
    "half_critical",
    "weakly_critical",
    "linear",
)

#: Default consumption adjustment speed: 0.6 quarters expressed per day.
RHO_PER_DAY = 1.0 - (1.0 - 0.6) / 90.0

#: Sectors that do not fire workers during a pandemic (public
#: administration and education), by sector code.
DEFAULT_NO_FIRING = frozenset({"O84", "P85"})


@dataclass(frozen=True)
class BehavioralParams:
    """Behavioral and adjustment-speed parameters of the model. An invalid
    value, NaN included, raises ``ValidationError``."""

    rho: float = RHO_PER_DAY
    delta_s: float = 0.75
    L_share: float = 1.0
    tau: float = 14.0
    gamma_F: float = 28.0
    prod_fn: str = "half_critical"

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValidationError(f"rho = {self.rho} outside (0, 1)")
        if not 0.0 < self.L_share <= 1.0:
            raise ValidationError(f"L_share = {self.L_share} outside (0, 1]")
        if not 0.0 <= self.delta_s <= 1.0:
            raise ValidationError(f"delta_s = {self.delta_s} outside [0, 1]")
        for name in ("tau", "gamma_F"):
            if not getattr(self, name) >= 1.0:
                raise ValidationError(
                    f"{name} = {getattr(self, name)} must be at least one day")
        if self.prod_fn not in PRODUCTION_FUNCTIONS:
            raise ValidationError(
                f"unknown production function {self.prod_fn!r}; "
                f"expected one of {PRODUCTION_FUNCTIONS}"
            )

    @property
    def hiring_speed(self) -> float:
        return 2.0 * self.gamma_F


@dataclass
class SimState:
    """Full model state at time ``t`` (days since the simulation epoch).

    Inside the kernel every array carries a leading batch axis and ``t``,
    ``c_agg_d`` and ``l_perm`` are ``(B,)`` arrays; a single run's states
    hold ``(N,)`` / ``(N, N)`` arrays and floats.
    """

    t: float
    x: np.ndarray  # gross output
    d: np.ndarray  # total demand
    l: np.ndarray  # labor compensation
    c: np.ndarray  # realized household consumption
    f: np.ndarray  # realized exogenous consumption
    O: np.ndarray  # realized B2B orders, supplier i -> buyer j
    S: np.ndarray  # stocks of input i held by buyer j
    c_agg_d: float  # aggregate desired household demand
    l_perm: float  # permanent-income expectation
    # Demand memory feeding the next step's order formation. Equal to ``d``
    # at whole-day steps; with sub-day steps it relaxes toward ``d`` on a
    # one-day timescale so that trajectories converge as dt shrinks.
    d_mem: np.ndarray


def initial_state(economy: Economy) -> SimState:
    """Pre-shock equilibrium: supply equals demand, stocks at target."""
    return SimState(
        t=0.0,
        x=economy.x0.copy(),
        d=economy.x0.copy(),
        l=economy.l0.copy(),
        c=economy.c0.copy(),
        f=economy.f0.copy(),
        O=economy.Z.copy(),
        S=initial_inventories(economy),
        c_agg_d=float(economy.c0.sum()),
        l_perm=float(economy.l0.sum()),
        d_mem=economy.x0.copy(),
    )


def initial_batch(economy: Economy, size: int) -> SimState:
    """The pre-shock equilibrium repeated for ``size`` points."""
    one = initial_state(economy)

    def rep(a):
        return np.repeat(a[np.newaxis], size, axis=0)

    return SimState(
        np.zeros(size), rep(one.x), rep(one.d), rep(one.l), rep(one.c),
        rep(one.f), rep(one.O), rep(one.S), np.full(size, one.c_agg_d),
        np.full(size, one.l_perm), rep(one.d_mem),
    )


# ---------------------------------------------------------------------------
# Demand side
# ---------------------------------------------------------------------------

def _orders(A, d_prev, S_target, S, tau) -> np.ndarray:
    """``max(A[i, j] d_j + (S_target[i, j] - S[i, j]) / tau, 0)``, batched."""
    gap = S_target - S
    gap /= tau
    out = A * d_prev[..., np.newaxis, :]
    out += gap
    return np.maximum(out, 0.0, out=out)


def household_preferences(
    theta0: np.ndarray, eps_D: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Consumption shares re-normalized under the demand shock, and the
    share of baseline consumption the shock leaves, ``(..., 1)``.

    ``eps_D`` may carry leading axes; each row is normalized on its own.
    """
    weighted = (1.0 - eps_D) * theta0
    total = np.add.reduce(weighted, axis=-1, keepdims=True)
    if np.logical_and.reduce(total > 0.0, axis=None):
        return weighted / total, total
    warnings.warn(
        "all household demand fully shocked; preferences left at baseline",
        stacklevel=2,
    )
    safe = np.where(total > 0.0, total, 1.0)
    return np.where(total > 0.0, weighted / safe, theta0), total


def compensated_labor_income(l_now: float, l_baseline: float, b: float) -> float:
    """Labor income after the government reimburses fraction b of losses."""
    return l_now + b * max(l_baseline - l_now, 0.0)


def _zeta_recursion(prev_zeta, rho, zeta_L, L_share):
    """Next expected income share; fixed point ``1 - (1 - zeta_L) / L_share``."""
    return 1.0 - rho + rho * prev_zeta - (1.0 - rho) * (1.0 - zeta_L) / L_share


def lockdown_income_retention(scenario: Scenario, economy: Economy) -> float:
    """Retained fraction of aggregate labor income at the first lockdown."""
    order = scenario.index_for(economy.codes)
    return 1.0 - aggregate_shock(scenario.eps_S_L1[order], economy.l0)


def _consumption_update(
    c_prev: float, eps_tilde_D: float, rho: float, m: float,
    l_comp: float, l_perm: float,
) -> float:
    if c_prev <= 0.0 or m * l_comp <= 0.0 or m * l_perm <= 0.0:
        raise ModelStateError(
            "nonpositive argument in the consumption recursion "
            f"(c_prev={c_prev:g}, m*l={m * l_comp:g}, m*l_p={m * l_perm:g})"
        )
    log_c = (
        rho * math.log(c_prev)
        + 0.5 * (1.0 - rho) * math.log(m * l_comp)
        + 0.5 * (1.0 - rho) * math.log(m * l_perm)
    )
    return (1.0 - eps_tilde_D * (1.0 - rho)) * math.exp(log_c)


# ---------------------------------------------------------------------------
# Supply side
# ---------------------------------------------------------------------------

def _safe_divisor(v: np.ndarray) -> np.ndarray:
    return np.where(v > 0, v, 1.0)


def _unshocked(eps: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``(1 - eps) base``, what a shock ``eps`` leaves of ``base``: the labor
    cap from ``l0``, exogenous demand from ``f0``. Formed in place, so a
    block of drives needs no temporary for it."""
    out = np.subtract(1.0, eps)
    out *= base
    return out


def labor_capacity(
    state: SimState, economy: Economy, eps_S: np.ndarray,
    safe_l0: np.ndarray | None = None, l_max: np.ndarray | None = None,
) -> np.ndarray:
    """Output producible with the available workforce.

    The workforce itself is capped at ``(1 - eps_S) l0``, so capacity never
    exceeds ``(1 - eps_S) x0``. Sectors with no baseline labor are inert:
    their cap is 0, so their capacity is ``0 / 1 * x0``, which is 0.
    ``safe_l0`` is the run constant ``ModelContext.safe_l0``; ``l_max`` is
    that cap, when the drive holds it.
    """
    if l_max is None:
        l_max = _unshocked(eps_S, economy.l0)
    if safe_l0 is None:
        safe_l0 = _safe_divisor(economy.l0)
    return (np.minimum(state.l, l_max) / safe_l0) * economy.x0


@dataclass(frozen=True)
class InputMasks:
    """Run constants of the input-capacity stage under one bottleneck rule.

    A minimum rule reads only the stocks of the inputs it rates, among those
    with ``A[i, j] > 0``: ``leontief`` every one, ``strongly_critical`` the
    critical and important ones, ``weakly_critical`` the critical ones.
    ``half_critical`` reads the critical ones, whose least stock-to-recipe
    ratio caps output, and then the important ones, whose least ratio ``r``
    caps it at ``0.5 (r + x0)``. On be64 that is 3,717, 630, 252 and
    252 + 378 of the 3,969 entries.

    ``flat`` holds the rated entries' positions ``i * N + j`` in the last
    two axes of ``S``, column by column with rows ascending (for
    ``half_critical``, the critical columns and then the important ones),
    and ``recipe`` their ``A``. Column ``k``'s entries start at
    ``starts[k]``; ``empty`` lists the columns with none, which are
    unconstrained. When the last column is empty, one spare entry ends
    ``flat`` so that its start is a valid index.

    The gathered minimum has the bits of a loop over each column's rated
    entries: every ratio is the same division ``S[i, j] / A[i, j]``, and a
    minimum is exact, NaN if any ratio is NaN. Only the sign of a zero
    minimum could depend on the order of the reduction, and no stock is
    ``-0.0``: ``_restock`` and the adaptive probe clamp stocks with
    ``np.maximum(S, 0.0)``, which gives ``+0.0``.

    ``linear`` reads ``S``'s column sums instead and keeps
    ``(col_sum > 0, col_sum with 1 where it is not)``.
    """

    flat: np.ndarray
    recipe: np.ndarray
    starts: np.ndarray
    empty: np.ndarray
    softened: bool
    linear: tuple[np.ndarray, np.ndarray] | None

    @classmethod
    def build(cls, A: np.ndarray, sets: CriticalitySets, prod_fn: str) -> "InputMasks":
        recipe = A > 0.0
        critical = recipe & sets.critical_mask
        important = recipe & sets.important_mask
        if prod_fn == "leontief":
            rated = (recipe,)
        elif prod_fn == "strongly_critical":
            rated = (critical | important,)
        elif prod_fn == "weakly_critical":
            rated = (critical,)
        elif prod_fn == "half_critical":
            rated = (critical, important)
        elif prod_fn == "linear":
            col_sum = A.sum(axis=0)
            none = np.zeros(0, dtype=np.intp)
            return cls(none, np.zeros(0), none, none, False,
                       (col_sum > 0, _safe_divisor(col_sum)))
        else:
            raise ValueError(f"unknown production function {prod_fn!r}")
        n = A.shape[-1]
        # Row r of the stacked transposes is column r % n of one rated set,
        # so its nonzeros come column by column, rows ascending, and row r's
        # lie in [r n, (r + 1) n).
        at = np.flatnonzero(np.concatenate([m.T for m in rated]))
        position = np.arange(n * n).reshape(n, n).T  # [j, i] = i * n + j
        flat = np.concatenate([position] * len(rated)).take(at)
        bounds = np.searchsorted(at, np.arange(len(rated) * n + 1) * n)
        starts = bounds[:-1]
        coef = A.take(flat)
        if flat.size and starts[-1] == flat.size:
            flat, coef = np.append(flat, 0), np.append(coef, 1.0)
        return cls(flat, coef, starts, np.flatnonzero(starts == bounds[1:]),
                   len(rated) == 2, None)


def _input_capacity(
    S: np.ndarray,
    A: np.ndarray,
    sets: CriticalitySets,
    x0: np.ndarray,
    prod_fn: str,
    masks: InputMasks | None = None,
) -> np.ndarray:
    """Output producible from stocks ``S``; +inf where no considered input binds."""
    if masks is None:
        masks = InputMasks.build(A, sets, prod_fn)
    if masks.linear is not None:
        has_inputs, safe_col_sum = masks.linear
        return np.where(has_inputs, S.sum(axis=-2) / safe_col_sum, np.inf)
    if not masks.flat.size:
        return np.full(S.shape[:-1], np.inf)
    n = S.shape[-1]
    # One gather, one division and one segmented minimum (see InputMasks).
    ratio = S.reshape(S.shape[:-2] + (n * n,)).take(masks.flat, axis=-1)
    ratio /= masks.recipe
    out = np.minimum.reduceat(ratio, masks.starts, axis=-1)
    if masks.empty.size:
        out[..., masks.empty] = np.inf
    if masks.softened:
        # r -> 0.5 (r + x0) is monotone under rounding too, so taking the
        # minimum first gives the same bits as softening every ratio.
        return np.minimum(out[..., :n], 0.5 * (out[..., n:] + x0))
    return out


def realized_output(
    x_cap: np.ndarray, x_inp: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Output is the least of labor capacity, input capacity, and demand."""
    return np.minimum(np.minimum(x_cap, x_inp), d)


def _ration(x, d, c_d, f_d, O_d):
    """Strict proportional rationing: every customer gets the fill ratio x/d."""
    served = d > 0
    scale = np.where(served, x / np.where(served, d, 1.0), 0.0)
    return c_d * scale, f_d * scale, O_d * scale[..., np.newaxis]


def _restock(S_prev, O, A, x, dt=None) -> np.ndarray:
    """Stocks gain deliveries and lose inputs consumed over ``dt`` (1 if None)."""
    flow = A * x[..., np.newaxis, :]
    np.subtract(O, flow, out=flow)
    if dt is not None:
        flow *= dt
    flow += S_prev
    return np.maximum(flow, 0.0, out=flow)


def _no_fire_mask(economy: Economy) -> np.ndarray:
    return np.array([code in DEFAULT_NO_FIRING for code in economy.codes])


def _wage_share(economy: Economy) -> np.ndarray:
    return np.where(economy.x0 > 0, economy.l0 / _safe_divisor(economy.x0), 0.0)


def _labor_update(
    l_prev: np.ndarray,
    economy: Economy,
    params,
    x_cap: np.ndarray,
    x_inp: np.ndarray,
    d: np.ndarray,
    eps_S: np.ndarray,
    dt,
    no_fire: np.ndarray,
    wage_share: np.ndarray | None = None,
    l_max: np.ndarray | None = None,
) -> np.ndarray:
    """``params`` is a ``BehavioralParams`` or a ``ModelContext``, read for
    ``hiring_speed`` and ``gamma_F``; ``wage_share`` is the run constant
    ``ModelContext.wage_share`` and ``l_max`` the step's labor cap. ``dt``
    None is a whole-day step."""
    if wage_share is None:
        wage_share = _wage_share(economy)
    if l_max is None:
        l_max = _unshocked(eps_S, economy.l0)
    delta = wage_share * (np.minimum(x_inp, d) - x_cap)
    speed = np.where(delta >= 0, params.hiring_speed, params.gamma_F)
    l_new = l_prev + (delta if dt is None else dt * delta) / speed
    l_new = np.where(no_fire & (delta < 0), l_prev, l_new)
    # np.clip(l_new, 0.0, l_max), without its Python-level argument handling.
    return np.minimum(np.maximum(l_new, 0.0), l_max)


# ---------------------------------------------------------------------------
# Full step
# ---------------------------------------------------------------------------

class Household(NamedTuple):
    """One point's scalar parameters of household demand and income."""

    rho: float
    delta_s: float
    L_share: float
    zeta_L: float  # retained income share at the first lockdown
    b: float  # furlough reimbursement
    pandemic_start: float | None


@dataclass
class ModelContext:
    """Run-constant quantities shared by every step of a run.

    ``params`` and ``schedule`` describe one point, or are equal-length
    sequences of points sharing the bottleneck rule; they are read once,
    and ``schedules`` keeps the schedules. The state layout is decided
    here, from the point count, whoever builds the context: one point
    steps ``(N,)`` / ``(N, N)`` state with float times, and several points
    step together in ``(B, N)`` / ``(B, N, N)`` state (``batched``), whose
    per-point fields lead with ``(B,)``.
    """

    economy: Economy
    params: InitVar[BehavioralParams | Sequence[BehavioralParams]]
    schedule: InitVar[ShockSchedule | Sequence[ShockSchedule]]
    batched: bool = field(init=False)
    schedules: tuple[ShockSchedule, ...] = field(init=False)
    prod_fn: str = field(init=False)
    sets: CriticalitySets = field(init=False)
    S_target: np.ndarray = field(init=False)
    theta0: np.ndarray = field(init=False)
    l0_sum: float = field(init=False)
    m: float = field(init=False)  # share of labor income households consume
    no_fire: np.ndarray = field(init=False)
    masks: InputMasks = field(init=False)
    safe_l0: np.ndarray = field(init=False)
    wage_share: np.ndarray = field(init=False)
    tau: np.ndarray = field(init=False)  # (..., 1, 1)
    hiring_speed: np.ndarray = field(init=False)  # (..., 1)
    gamma_F: np.ndarray = field(init=False)  # (..., 1)
    households: tuple[Household, ...] = field(init=False)

    def __post_init__(self, params, schedule):
        economy = self.economy
        if isinstance(params, BehavioralParams):
            params, schedule = (params,), (schedule,)
        points, self.schedules = tuple(params), tuple(schedule)
        if not points or len(points) != len(self.schedules):
            raise ValueError("one shock schedule required per parameter point")
        # One point keeps the (N,) layout: a batch of one steps 1.10-1.17x slower.
        self.batched = len(points) > 1
        first = points[0]
        if any(p.prod_fn != first.prod_fn for p in points):
            raise ValueError("the points of a batch must share prod_fn")
        self.prod_fn = first.prod_fn
        self.sets = derive_criticality_sets(economy)
        self.S_target = initial_inventories(economy)
        self.theta0 = economy.theta0
        self.l0_sum = float(economy.l0.sum())
        self.m = float(economy.c0.sum()) / self.l0_sum
        self.no_fire = _no_fire_mask(economy)
        self.masks = InputMasks.build(economy.A, self.sets, self.prod_fn)
        self.safe_l0 = _safe_divisor(economy.l0)
        self.wage_share = _wage_share(economy)
        lead = (self.size,) if self.batched else ()
        tau, hiring, firing = np.asarray(
            [(p.tau, p.hiring_speed, p.gamma_F) for p in points], dtype=float).T
        self.tau = tau.reshape(lead + (1, 1))
        self.hiring_speed = hiring.reshape(lead + (1,))
        self.gamma_F = firing.reshape(lead + (1,))
        self.households = tuple(
            Household(p.rho, p.delta_s, p.L_share,
                      lockdown_income_retention(s.scenario, economy),
                      s.scenario.b, s.pandemic_start)
            for p, s in zip(points, self.schedules)
        )

    @property
    def size(self) -> int:
        return len(self.schedules)

    def drives(self, times) -> "Drive":
        """The drives of every point at ``times``, ``(steps, size)`` (one
        point also takes ``(steps,)``): a row per step in the context's
        layout, ``(steps, B, N)`` for a batch and ``(steps, N)`` for one
        point. A row does not depend on the other times."""
        if not self.batched:
            tab = self.schedules[0].table(times)
            return self.drive(tab.eps_S, tab.eps_D, tab.eps_F)
        tables = [s.table(times[:, k]) for k, s in enumerate(self.schedules)]
        return self.drive(*(
            np.stack([getattr(tab, name) for tab in tables], axis=1)
            for name in ("eps_S", "eps_D", "eps_F")
        ))

    def drive(self, eps_S: np.ndarray, eps_D: np.ndarray, eps_F: np.ndarray) -> "Drive":
        """What steps read of the scenario, from shocks of any leading shape."""
        theta, kept = household_preferences(self.theta0, eps_D)
        return Drive(
            l_max=_unshocked(eps_S, self.economy.l0),
            f_d=_unshocked(eps_F, self.economy.f0),
            theta=theta,
            cut=1.0 - kept[..., 0],
        )


class Drive(NamedTuple):
    """The scenario as one step sees it: ``(..., N)`` / ``(...)`` arrays.

    ``ModelContext.drives`` forms a whole block of steps' rows at once, and
    a step reads its row (``at``). The labor cap replaces the labor supply
    shock it comes from, so a block holds four arrays.
    """

    l_max: np.ndarray  # labor cap (1 - eps_S) l0 under the labor supply shock
    f_d: np.ndarray  # exogenous demand
    theta: np.ndarray  # household preference shares
    cut: np.ndarray  # share of baseline consumption shocked away

    def at(self, k) -> "Drive":
        return Drive(*(a[k] for a in self))


def _zeta_next(h: Household, t_prev: float, t_new: float,
               zeta_prev: float, rho_eff: float) -> float:
    start = h.pandemic_start
    if start is None or t_new < start:
        return 1.0
    if t_prev < start or t_prev == start == 0.0:
        # Expectations drop to the shocked income level the day the first
        # lockdown begins.
        return h.zeta_L
    return _zeta_recursion(zeta_prev, rho_eff, h.zeta_L, h.L_share)


def _households(ctx: ModelContext, state: SimState, t_new, dt, drive: Drive):
    """Aggregate household demand and permanent income of every point.

    Scalar recursions with logarithms, evaluated per point with ``math`` so
    a point's result does not depend on the batch it is in.
    """
    l0_sum, m = ctx.l0_sum, ctx.m
    values = (state.t, t_new, dt, state.c_agg_d, state.l_perm,
              np.add.reduce(state.l, axis=-1), drive.cut)
    if ctx.batched:
        points = np.array(values).T.tolist()
    else:
        points = [[float(v) for v in values]]
    c_agg, l_perm = [], []
    for h, (t_prev, t, step, c_prev, lp_prev, l_now, cut) in zip(
        ctx.households, points
    ):
        rho = h.rho if step == 1.0 else h.rho ** step
        l_comp = compensated_labor_income(l_now, l0_sum, h.b)
        zeta = _zeta_next(h, t_prev, t, lp_prev / l0_sum, rho)
        l_perm.append(zeta * l0_sum)
        c_agg.append(_consumption_update(
            c_prev, h.delta_s * cut, rho, m, l_comp, l_perm[-1]
        ))
    if not ctx.batched:
        return c_agg[0], l_perm[0]
    return np.asarray(c_agg), np.asarray(l_perm)


def _produce(ctx: ModelContext, state: SimState, c_agg, drive: Drive):
    """Demand, capacities, output and rationing from the state's stocks,
    labor and demand memory, for aggregate household demand ``c_agg``."""
    economy = ctx.economy
    c_d = drive.theta * (c_agg[:, np.newaxis] if ctx.batched else c_agg)
    O_d = _orders(economy.A, state.d_mem, ctx.S_target, state.S, ctx.tau)
    d = np.add.reduce(O_d, axis=-1) + c_d + drive.f_d
    x_cap = labor_capacity(state, economy, None, ctx.safe_l0, drive.l_max)
    x_inp = _input_capacity(state.S, economy.A, ctx.sets, economy.x0,
                            ctx.prod_fn, ctx.masks)
    x = realized_output(x_cap, x_inp, d)
    c, f, O = _ration(x, d, c_d, drive.f_d, O_d)
    return x, d, c, f, O, x_cap, x_inp


def _advance(
    ctx: ModelContext, state: SimState, t_new, dt, drive: Drive | None = None,
    whole: bool = False,
) -> SimState:
    """Advance ``state`` to ``t_new`` in one step of length ``dt``.

    The model step, in the layout ``ctx.batched`` names. For one point
    the state holds ``(N,)`` arrays and ``t_new`` / ``dt`` are floats; for
    a batch the state holds ``(B, N)`` arrays and ``t_new`` / ``dt`` are
    ``(B,)``, one per point, and ``whole``, which only a batch reads, says
    that every point steps one day (``_march`` reads it off its step
    table; False takes the general path, which gives the same bits).
    ``drive`` is the step's row of ``ctx.drives``; without it the step
    forms its own row, at ``t_new``, with the same bits. Every run passes
    a drive.
    """
    economy = ctx.economy
    if drive is None:
        drive = ctx.drives(np.reshape(t_new, (1, -1))).at(0)
    if not ctx.batched:
        whole = dt == 1.0
        step = stock_step = dt
    elif not whole:
        step = np.asarray(dt, dtype=float)[..., np.newaxis]
        stock_step = step[..., np.newaxis]

    # Demand formation (uses t-1 demand, stocks, labor, and expectations).
    c_agg, l_perm = _households(ctx, state, t_new, dt, drive)

    # Productive capacities, realized output and proportional rationing.
    x, d, c, f, O, x_cap, x_inp = _produce(ctx, state, c_agg, drive)

    # Stock and workforce adjustment, scaled by the step size.
    S = _restock(state.S, O, economy.A, x, None if whole else stock_step)
    l = _labor_update(
        state.l, economy, ctx, x_cap, x_inp, d, None,
        dt=None if whole else step, no_fire=ctx.no_fire,
        wage_share=ctx.wage_share, l_max=drive.l_max,
    )
    d_prev = state.d_mem
    d_mem = d if whole else np.where(step == 1.0, d, d_prev + step * (d - d_prev))
    new = SimState(t_new, x, d, l, c, f, O, S, c_agg, l_perm, d_mem)
    _check_state(new, economy, None, drive.l_max)
    return new


def _check_state(state: SimState, economy: Economy, eps_S: np.ndarray,
                 l_max: np.ndarray | None = None) -> None:
    """Raise ``ModelStateError`` naming the broken model invariant and ``t``.

    ``l_max`` is the step's labor cap ``(1 - eps_S) l0``, as the drive
    holds it; its band bound is formed here, on every call. The residual
    and the tolerance are formed in place, and the reductions are called
    as ufuncs, which gives the bits of the array methods with fewer calls.
    """
    if l_max is None:
        l_max = _unshocked(eps_S, economy.l0)
    residual = state.c + state.f
    residual += np.add.reduce(state.O, axis=-1)
    residual -= state.x
    np.abs(residual, out=residual)
    tolerance = np.abs(state.x)
    tolerance *= 1e-12
    tolerance += 1e-12
    band = l_max * (1 + 1e-12)
    band += 1e-12
    # A NaN fails every check: it compares false, and ``minimum`` returns it.
    if not np.logical_and.reduce(residual <= tolerance, axis=None):
        broken = "allocation does not conserve output"
    elif not np.minimum.reduce(state.S, axis=None) >= 0.0:
        broken = "negative inventory"
    elif not (np.minimum.reduce(state.l, axis=None) >= 0.0
              and np.logical_and.reduce(state.l <= band, axis=None)):
        broken = "labor outside its admissible band"
    elif not np.minimum.reduce(state.x, axis=None) >= 0.0:
        broken = "negative output"
    else:
        return
    raise ModelStateError(f"{broken} at t = {state.t}")
