"""Micro-benchmark of the step's stages on a mid-lockdown be64 state.

The state is regenerated in-process from the discrete reference run (day
``MID_LOCKDOWN_OFFSET`` after the first lockdown starts), so nothing is
stored. Each stage is timed in blocks of calls; the figure reported is the
median over blocks of the mean time per call, in microseconds.
"""

from __future__ import annotations

import statistics
import time

from pnetsim import PRODUCTION_FUNCTIONS, ShockSchedule
from pnetsim import dynamics

import harness

MID_LOCKDOWN_OFFSET = 25.0  # days after the first lockdown starts
BLOCKS = 7
BLOCK_S = 0.02  # target duration of one block

STAGES = (
    *(f"dynamics.stage_us.input_capacity.{rule}" for rule in PRODUCTION_FUNCTIONS),
    "dynamics.stage_us.labor_capacity",
    "dynamics.stage_us.labor_update",
    "dynamics.stage_us.check_state",
    "dynamics.stage_us.advance",
    "shocks.stage_us.at",
)


def per_call_us(fn) -> float:
    """Median over blocks of the mean microseconds per call of ``fn()``."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    calls = max(1, int(BLOCK_S / once))
    blocks = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(blocks)


def stage_timings(inputs) -> dict[str, float]:
    economy, params = inputs.economy, inputs.params
    traj = harness.run_reference(inputs, "discrete")
    schedule = ShockSchedule(inputs.scenario, economy)
    ctx = dynamics.ModelContext(economy, params, schedule)
    k = int(schedule.pandemic_start + MID_LOCKDOWN_OFFSET)
    prev, state = traj.states[k - 1], traj.states[k]
    t = float(traj.times[k])
    eps_S = schedule.at(t).eps_S
    x_cap = dynamics.labor_capacity(prev, economy, eps_S)
    x_inp = dynamics._input_capacity(prev.S, economy.A, ctx.sets, economy.x0,
                                     params.prod_fn)

    def input_capacity(rule):
        return lambda: dynamics._input_capacity(
            prev.S, economy.A, ctx.sets, economy.x0, rule)

    stages = {
        **{f"dynamics.stage_us.input_capacity.{rule}": input_capacity(rule)
           for rule in PRODUCTION_FUNCTIONS},
        "dynamics.stage_us.labor_capacity":
            lambda: dynamics.labor_capacity(prev, economy, eps_S),
        "dynamics.stage_us.labor_update": lambda: dynamics._labor_update(
            prev.l, economy, params, x_cap, x_inp, state.d, eps_S,
            dt=1.0, no_fire=ctx.no_fire),
        "dynamics.stage_us.check_state":
            lambda: dynamics._check_state(state, economy, eps_S),
        "dynamics.stage_us.advance":
            lambda: dynamics._advance(ctx, prev, t, 1.0),
        "shocks.stage_us.at": lambda: schedule.at(t),
    }
    return {name: per_call_us(stages[name]) for name in STAGES}
