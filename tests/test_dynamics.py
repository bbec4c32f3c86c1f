import csv
import math
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import pnetsim
from pnetsim import (
    BehavioralParams,
    IntegrationConfig,
    ModelStateError,
    ValidationError,
    derive_criticality_sets,
    dynamics,
    initial_inventories,
    integrate,
    initial_state,
    make_economy,
    simulate,
)
from pnetsim.dynamics import (
    Household,
    ModelContext,
    _advance,
    _check_state,
    _consumption_update,
    _input_capacity,
    _labor_update,
    _orders,
    _ration,
    _restock,
    _zeta_next,
    _zeta_recursion,
    compensated_labor_income,
    household_preferences,
    labor_capacity,
    lockdown_income_retention,
    realized_output,
)
from pnetsim.fixtures import scenario_for
from pnetsim.shocks import ShockSchedule

GOLDEN = Path(__file__).parent / "golden" / "d2_labor_shock.csv"


def d2_labor_scenario(economy):
    return scenario_for(
        economy,
        key_dates=((date(2020, 3, 4), "lockdown_start"),
                   (date(2021, 3, 1), "lockdown_end")),
        eps_S_L1=np.array([0.5, 0.0]),
    )


def context(economy, scenario, params):
    return ModelContext(economy, params, ShockSchedule(scenario, economy))


def orders(state, economy, params):
    return _orders(economy.A, state.d, initial_inventories(economy), state.S,
                   params.tau)


# -- intermediate demand -----------------------------------------------------

def test_intermediate_demand_equilibrium_reproduces_flows(d2, params):
    state = initial_state(d2)
    O_d = orders(state, d2, params)
    np.testing.assert_allclose(O_d, d2.Z, rtol=1e-14)


def test_intermediate_demand_closes_gap(d2, params):
    state = initial_state(d2)
    state.S[0, 1] = 140.0  # ten units below the 150 target
    O_d = orders(state, d2, params)
    assert O_d[0, 1] == pytest.approx(0.3 * 100.0 + 10.0 / 14.0, rel=1e-14)


def test_intermediate_demand_clamped_when_overstocked(d2, params):
    state = initial_state(d2)
    state.S[0, 1] = 150.0 + 14.0 * 0.3 * 100.0 + 1.0  # past the clamp point
    O_d = orders(state, d2, params)
    assert O_d[0, 1] == 0.0


# -- household demand --------------------------------------------------------

def test_preferences_identity_without_shock():
    theta0 = np.array([0.5, 0.5])
    np.testing.assert_array_equal(household_preferences(theta0, np.zeros(2))[0], theta0)


def test_preferences_full_shock_on_one_good():
    theta, _ = household_preferences(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(theta, [0.0, 1.0])


def test_preferences_partial_shock():
    theta, _ = household_preferences(np.array([0.3, 0.7]), np.array([0.5, 0.0]))
    np.testing.assert_allclose(theta, [0.15 / 0.85, 0.7 / 0.85], rtol=1e-14)


def test_preferences_sum_to_one_randomized(rng):
    for _ in range(200):
        theta0 = rng.dirichlet(np.ones(6))
        eps = rng.uniform(0.0, 0.99, size=6)
        assert household_preferences(theta0, eps)[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_preferences_all_shocked_warns():
    with pytest.warns(UserWarning):
        theta, _ = household_preferences(np.array([0.4, 0.6]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(theta, [0.4, 0.6])


def test_demand_reduction_cases():
    # Two sectors with equal household shares: theta0 = (0.5, 0.5).
    economy = make_economy(
        ("X1", "X2"), Z=[[20.0, 30.0], [40.0, 10.0]], c0=[35.0, 35.0],
        f0=[30.0, 10.0], l0=[55.0, 50.0], n_days_inventory=[10.0, 5.0],
        criticality=np.zeros((2, 2)), on_site=[0, 0],
    )
    ctx = context(economy, scenario_for(economy), BehavioralParams())
    np.testing.assert_array_equal(ctx.theta0, [0.5, 0.5])
    zeros = np.zeros(2)

    def cut(eps_D):
        return ctx.drive(zeros, np.array(eps_D), zeros).cut

    assert 0.8 * cut([0.0, 0.0]) == 0.0
    assert 0.0 * cut([0.9, 0.3]) == 0.0
    value = 1.0 * cut([0.8, 0.0])
    assert value == pytest.approx(0.4, rel=1e-14)


# -- consumption function ----------------------------------------------------

def test_consumption_fixed_point(d2, params):
    state = initial_state(d2)
    m = d2.c0.sum() / d2.l0.sum()
    total_l = float(d2.l0.sum())
    c_next = _consumption_update(
        state.c_agg_d, 0.0, params.rho, m, l_comp=total_l, l_perm=total_l
    )
    assert c_next == pytest.approx(float(d2.c0.sum()), rel=1e-12)
    assert m * total_l == pytest.approx(float(d2.c0.sum()), rel=1e-12)


def test_consumption_share_matches_published_ratio(be64, ref_scenario):
    m = context(be64, ref_scenario, BehavioralParams()).m
    assert m == pytest.approx(0.86, abs=0.01)


def test_consumption_pure_persistence_limit(d2):
    params = BehavioralParams(rho=1.0 - 1e-12)
    m = d2.c0.sum() / d2.l0.sum()
    c_next = _consumption_update(42.0, 0.9, params.rho, m, 10.0, 10.0)
    assert c_next == pytest.approx(42.0, rel=1e-9)


def test_consumption_rejects_nonpositive_income(d2, params):
    state = initial_state(d2)
    with pytest.raises(ModelStateError):
        _consumption_update(state.c_agg_d, 0.0, params.rho,
                            d2.c0.sum() / d2.l0.sum(), 0.0, 100.0)


# -- compensated income and expectations -------------------------------------

def test_compensated_income_limits():
    assert compensated_labor_income(80.0, 100.0, 1.0) == 100.0
    assert compensated_labor_income(80.0, 100.0, 0.0) == 80.0
    assert compensated_labor_income(80.0, 100.0, 0.7) == pytest.approx(94.0)


def test_compensated_income_no_compensation_on_growth():
    assert compensated_labor_income(120.0, 100.0, 0.7) == 120.0


def household(zeta_L, pandemic_start):
    return Household(rho=0.99, delta_s=0.75, L_share=1.0,
                     zeta_L=zeta_L, b=0.0, pandemic_start=pandemic_start)


def test_permanent_income_before_pandemic():
    for start in (10.0, None):
        zeta = _zeta_next(household(0.75, start), 3.0, 4.0, 0.5, 0.99)
        assert (zeta * 100.0, zeta) == (100.0, 1.0)


def test_permanent_income_no_shock_is_fixed_point():
    zeta = 1.0
    for _ in range(100):
        zeta = _zeta_recursion(zeta, 0.99, 1.0, 1.0)
    assert zeta == pytest.approx(1.0, abs=1e-12)
    assert zeta * 100.0 == pytest.approx(100.0, abs=1e-9)


def test_permanent_income_l_one_converges_to_shock_level():
    # fixed point of the recursion at L = 1 is the shocked income fraction
    zeta_L = 0.75
    h = household(zeta_L, 0.0)
    zeta = 0.9
    for k in range(1, 5001):
        zeta = _zeta_next(h, float(k), float(k + 1), zeta, 0.99)
    assert zeta == pytest.approx(zeta_L, abs=1e-9)


def test_permanent_income_rejects_zero_l_share():
    # BehavioralParams is the only way an L_share reaches the kernel.
    with pytest.raises(ValueError):
        BehavioralParams(L_share=0.0)


@pytest.mark.parametrize("field, value", [
    ("delta_s", -0.01), ("delta_s", 1.01), ("delta_s", float("nan")),
    ("tau", float("nan")), ("gamma_F", float("nan")),
])
def test_params_reject_out_of_range_value(field, value):
    # delta_s is the saved share of the consumption shock; tau and gamma_F
    # divide the inventory gap and the labor gap.
    with pytest.raises(ValidationError, match=f"^{field} = "):
        BehavioralParams(**{field: value})


def test_params_accept_delta_s_bounds():
    assert BehavioralParams(delta_s=0.0).delta_s == 0.0
    assert BehavioralParams(delta_s=1.0).delta_s == 1.0


def test_lockdown_income_retention_be64(be64, ref_scenario):
    zeta_L = lockdown_income_retention(ref_scenario, be64)
    assert zeta_L == pytest.approx(0.75, abs=0.03)


# -- capacities --------------------------------------------------------------

def test_labor_capacity_baseline(d2):
    state = initial_state(d2)
    np.testing.assert_allclose(labor_capacity(state, d2, np.zeros(2)), d2.x0)


def test_labor_capacity_respects_shock_cap(d2):
    state = initial_state(d2)
    x_cap = labor_capacity(state, d2, np.array([0.25, 0.0]))
    assert x_cap[0] == pytest.approx(0.75 * d2.x0[0], rel=1e-14)
    assert x_cap[1] == pytest.approx(d2.x0[1], rel=1e-14)


def test_labor_capacity_zero_labor(d2):
    state = initial_state(d2)
    state.l[:] = 0.0
    assert np.all(labor_capacity(state, d2, np.zeros(2)) == 0.0)


def test_input_capacity_d2_leontief_at_equilibrium(d2):
    state = initial_state(d2)
    sets = derive_criticality_sets(d2)
    x_inp = _input_capacity(state.S, d2.A, sets, d2.x0, "leontief")
    # by hand: sector X2 holds [150, 50] against coefficients [0.3, 0.1]
    assert x_inp[1] == pytest.approx(min(150 / 0.3, 50 / 0.1), rel=1e-14)
    assert x_inp[1] >= d2.x0[1]


def test_input_capacity_d2_linear(d2):
    state = initial_state(d2)
    sets = derive_criticality_sets(d2)
    x_inp = _input_capacity(state.S, d2.A, sets, d2.x0, "linear")
    assert x_inp[1] == pytest.approx((150.0 + 50.0) / (0.3 + 0.1), rel=1e-14)


def test_input_capacity_unconstrained_when_no_rated_inputs(d2):
    state = initial_state(d2)
    sets = derive_criticality_sets(d2)  # D2 rates nothing critical
    for fn in ("strongly_critical", "half_critical", "weakly_critical"):
        assert np.all(np.isinf(_input_capacity(state.S, d2.A, sets, d2.x0, fn)))


def test_depleted_critical_input_halts_production(d3):
    state = initial_state(d3)
    state.S[0, 2] = 0.0  # S1 is critical for S3
    sets = derive_criticality_sets(d3)
    for fn in ("leontief", "strongly_critical", "half_critical", "weakly_critical"):
        x_inp = _input_capacity(state.S, d3.A, sets, d3.x0, fn)
        assert x_inp[2] == 0.0, fn


def test_half_critical_softens_important_inputs(d3):
    state = initial_state(d3)
    state.S[1, 2] = 0.0  # S2 is merely important for S3
    sets = derive_criticality_sets(d3)
    half = _input_capacity(state.S, d3.A, sets, d3.x0, "half_critical")
    strong = _input_capacity(state.S, d3.A, sets, d3.x0, "strongly_critical")
    assert strong[2] == 0.0
    assert half[2] == pytest.approx(0.5 * d3.x0[2], rel=1e-14)


def rated_inputs(A, sets, prod_fn):
    """The inputs a minimum rule reads: those whose ratio caps output, and
    those ``half_critical`` softens."""
    recipe = A > 0.0
    critical = recipe & sets.critical_mask
    important = recipe & sets.important_mask
    none = np.zeros_like(recipe)
    return {"leontief": (recipe, none),
            "strongly_critical": (critical | important, none),
            "half_critical": (critical, important),
            "weakly_critical": (critical, none)}[prod_fn]


def input_capacity_by_loop(S, A, sets, x0, prod_fn):
    """``_input_capacity`` of one ``(N, N)`` stock matrix, column by column,
    each in ascending ``i``."""
    n = len(x0)
    out = np.empty(n)
    for j in range(n):
        if prod_fn == "linear":
            stock, need = 0.0, 0.0
            for i in range(n):
                stock, need = stock + S[i, j], need + A[i, j]
            out[j] = stock / need if need > 0 else math.inf
            continue
        caps = []
        for rated in rated_inputs(A, sets, prod_fn):
            cap = np.float64(math.inf)
            for i in np.flatnonzero(rated[:, j]):
                cap = np.minimum(cap, S[i, j] / A[i, j])
            caps.append(cap)
        hard, soft = caps
        if prod_fn == "half_critical":
            hard = np.minimum(hard, 0.5 * (soft + x0[j]))
        out[j] = hard
    return out


@pytest.mark.parametrize("prod_fn", dynamics.PRODUCTION_FUNCTIONS)
@pytest.mark.parametrize("fixture_name", ["d2", "d3", "be64"])
def test_input_capacity_equals_a_per_column_loop(fixture_name, prod_fn,
                                                 request, rng):
    """Bitwise, for one run's stocks and a batch's, with NaN and inf stocks,
    and with a recipe whose middle and last columns have no input."""
    economy = request.getfixturevalue(fixture_name)
    sets = derive_criticality_sets(economy)
    n = economy.n_sectors
    bare = economy.A.copy()
    bare[:, [n // 2, n - 1]] = 0.0
    for A in (economy.A, bare):
        S = rng.uniform(0.0, 2.0, (3, n, n)) * initial_inventories(economy)
        S[1] *= 0.01
        S[1, rng.integers(n), 0] = math.nan
        S[2, rng.integers(n), rng.integers(n)] = math.inf
        S[2, :, 0] = math.inf
        batch = _input_capacity(S, A, sets, economy.x0, prod_fn)
        for k in range(3):
            want = input_capacity_by_loop(S[k], A, sets, economy.x0, prod_fn)
            one = _input_capacity(S[k], A, sets, economy.x0, prod_fn)
            assert one.tobytes() == want.tobytes()
            assert batch[k].tobytes() == want.tobytes()
        if prod_fn != "linear":
            hard, soft = rated_inputs(A, sets, prod_fn)
            read = hard | soft
            assert np.isnan(batch[1, (np.isnan(S[1]) & read).any(axis=0)]).all()
            assert np.isinf(batch[:, ~read.any(axis=0)]).all()


def test_realized_output_cases():
    inf = np.array([math.inf])
    assert realized_output(np.array([100.0]), inf, np.array([80.0]))[0] == 80.0
    assert realized_output(np.array([60.0]), np.array([50.0]), np.array([80.0]))[0] == 50.0
    x0 = np.array([110.0, 100.0])
    np.testing.assert_array_equal(realized_output(x0, x0 * 2, x0), x0)


# -- rationing and inventories -----------------------------------------------

def test_ration_no_shortage_meets_desires(d2):
    O_d = d2.Z.copy()
    c, f, O = _ration(d2.x0, d2.x0, d2.c0, d2.f0, O_d)
    np.testing.assert_allclose(c, d2.c0, rtol=1e-14)
    np.testing.assert_allclose(O, d2.Z, rtol=1e-14)


def test_ration_proportional_scaling():
    x = np.array([80.0])
    d = np.array([100.0])
    c, f, O = _ration(x, d, np.array([30.0]), np.array([20.0]), np.array([[50.0]]))
    assert c[0] == pytest.approx(24.0)
    assert f[0] == pytest.approx(16.0)
    assert O[0, 0] == pytest.approx(40.0)


def test_ration_zero_demand_allocates_nothing():
    c, f, O = _ration(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1),
                      np.zeros((1, 1)))
    assert c[0] == f[0] == O[0, 0] == 0.0


def test_ration_conserves_output(rng):
    for _ in range(100):
        n = 4
        c_d = rng.uniform(0, 10, n)
        f_d = rng.uniform(0, 10, n)
        O_d = rng.uniform(0, 5, (n, n))
        d = c_d + f_d + O_d.sum(axis=1)
        x = d * rng.uniform(0, 1, n)
        c, f, O = _ration(x, d, c_d, f_d, O_d)
        np.testing.assert_allclose(c + f + O.sum(axis=1), x, rtol=1e-12)


def test_update_inventories_equilibrium_is_stationary(d2):
    S0 = initial_inventories(d2)
    S1 = _restock(S0, d2.Z, d2.A, d2.x0)
    np.testing.assert_allclose(S1, S0, rtol=1e-13)


def test_update_inventories_arithmetic_and_clamp():
    S = _restock(np.array([[100.0]]), np.array([[30.0]]),
                 np.array([[0.25]]), np.array([100.0]))
    assert S[0, 0] == pytest.approx(105.0)
    S = _restock(np.array([[1.0]]), np.array([[0.0]]),
                 np.array([[1.0]]), np.array([100.0]))
    assert S[0, 0] == 0.0
    # The clamp turns -0.0 into +0.0, so no stock is -0.0: _input_capacity's
    # gathered minimum keeps a per-column loop's bits only without it.
    S = _restock(np.array([[-0.0]]), np.array([[-0.0]]),
                 np.array([[1.0]]), np.array([0.0]))
    assert not np.signbit(S[0, 0])


# -- labor adjustment ---------------------------------------------------------

def update_labor(state, economy, params, x_cap, x_inp, d, eps_S):
    """One daily labor update with the run's no-firing mask."""
    no_fire = context(economy, scenario_for(economy), params).no_fire
    return _labor_update(state.l, economy, params, x_cap, x_inp, d, eps_S,
                         dt=1.0, no_fire=no_fire)


def test_adjust_labor_stationary_when_constraints_balance(d2, params):
    state = initial_state(d2)
    x_cap = d2.x0.copy()
    x_inp = np.full(2, math.inf)
    l_new = update_labor(state, d2, params, x_cap, x_inp, d2.x0, np.zeros(2))
    np.testing.assert_allclose(l_new, d2.l0, rtol=1e-14)


def test_adjust_labor_fires_on_demand_collapse(d2, params):
    state = initial_state(d2)
    d = d2.x0 * np.array([0.5, 1.0])
    l_new = update_labor(state, d2, params, d2.x0.copy(),
                         np.full(2, math.inf), d, np.zeros(2))
    expected_drop = d2.l0[0] * 0.5 / params.gamma_F
    assert l_new[0] == pytest.approx(d2.l0[0] - expected_drop, rel=1e-12)
    assert l_new[1] == pytest.approx(d2.l0[1])


def test_adjust_labor_hiring_slower_than_firing(d2, params):
    state = initial_state(d2)
    state.l[:] = d2.l0 * 0.8
    x_cap = 0.8 * d2.x0
    l_up = update_labor(state, d2, params, x_cap, np.full(2, math.inf),
                        d2.x0, np.zeros(2))
    gain = l_up - state.l
    assert np.all(gain > 0)
    assert gain[0] == pytest.approx(
        (d2.l0[0] / d2.x0[0]) * (d2.x0[0] - x_cap[0]) / params.hiring_speed
    )


def test_no_firing_sectors_never_decrease(be64, ref_scenario):
    params = BehavioralParams()
    state = initial_state(be64)
    i = be64.codes.index("O84")
    d = be64.x0.copy()
    d[i] = 0.5 * be64.x0[i]
    l_new = update_labor(state, be64, params, be64.x0.copy(),
                         np.full(be64.n_sectors, math.inf), d,
                         np.zeros(be64.n_sectors))
    assert l_new[i] == be64.l0[i]


def test_labor_clamped_to_shock_cap(d2, params):
    state = initial_state(d2)
    eps = np.array([0.4, 0.0])
    l_new = update_labor(state, d2, params, d2.x0.copy(),
                         np.full(2, math.inf), d2.x0, eps)
    assert l_new[0] <= (1 - 0.4) * d2.l0[0] + 1e-12


# -- full step ----------------------------------------------------------------

@pytest.mark.parametrize("dt", [1.0, 0.5, 0.25])
def test_step_preserves_equilibrium(d2, d3, params, dt):
    for economy in (d2, d3):
        ctx = context(economy, scenario_for(economy), params)
        state = initial_state(economy)
        for _ in range(10):
            state = _advance(ctx, state, state.t + dt, dt)
        ref = initial_state(economy)
        np.testing.assert_allclose(state.x, ref.x, rtol=1e-12)
        np.testing.assert_allclose(state.l, ref.l, rtol=1e-12)
        np.testing.assert_allclose(state.S, ref.S, rtol=1e-12, atol=1e-12)
        assert state.c_agg_d == pytest.approx(ref.c_agg_d, rel=1e-12)


def test_d2_labor_shock_matches_independent_oracle(d2):
    """20 daily steps against the brute-force golden file."""
    scenario = d2_labor_scenario(d2)
    params = BehavioralParams()
    ctx = context(d2, scenario, params)
    state = initial_state(d2)
    with GOLDEN.open() as fh:
        golden = list(csv.DictReader(fh))
    assert len(golden) == 20
    for row in golden:
        state = _advance(ctx, state, float(row["t"]), 1.0)
        got = {
            "x1": state.x[0], "x2": state.x[1],
            "d1": state.d[0], "d2": state.d[1],
            "l1": state.l[0], "l2": state.l[1],
            "c1": state.c[0], "c2": state.c[1],
            "f1": state.f[0], "f2": state.f[1],
            "S11": state.S[0, 0], "S12": state.S[0, 1],
            "S21": state.S[1, 0], "S22": state.S[1, 1],
            "c_agg": state.c_agg_d, "l_perm": state.l_perm,
        }
        for key, value in got.items():
            want = float(row[key])
            assert value == pytest.approx(want, rel=1e-9, abs=1e-9), (row["t"], key)


def test_d2_shocked_sector_falls_to_half_output(d2):
    ctx = context(d2, d2_labor_scenario(d2), BehavioralParams())
    state = initial_state(d2)
    for k in range(1, 21):
        state = _advance(ctx, state, state.t + 1.0, 1.0)
    assert state.x[0] == pytest.approx(0.5 * d2.x0[0], rel=1e-9)


def test_step_invariants_along_shocked_run(d2):
    scenario = d2_labor_scenario(d2)
    ctx = context(d2, scenario, BehavioralParams())
    schedule = ctx.schedules[0]
    state = initial_state(d2)
    for k in range(1, 60):
        state = _advance(ctx, state, state.t + 1.0, 1.0)
        allocated = state.c + state.f + state.O.sum(axis=1)
        np.testing.assert_allclose(allocated, state.x, rtol=1e-12, atol=1e-12)
        assert np.all(state.S >= 0.0)
        eps_S = schedule.at(state.t).eps_S
        assert np.all(state.l <= (1 - eps_S) * d2.l0 + 1e-12)
        assert np.all(state.l >= 0.0)


def test_lockdown_at_epoch_still_seeds_expectations(d2):
    scenario = scenario_for(
        d2,
        key_dates=((date(2020, 3, 1), "lockdown_start"),
                   (date(2021, 3, 1), "lockdown_end")),
        eps_S_L1=np.array([0.5, 0.0]),
    )
    ctx = context(d2, scenario, BehavioralParams())
    state = initial_state(d2)
    state = _advance(ctx, state, state.t + 1.0, 1.0)
    zeta_L = lockdown_income_retention(scenario, d2)
    assert state.l_perm == pytest.approx(zeta_L * d2.l0.sum(), rel=1e-12)


def test_simulate_discrete_equals_repeated_step(d2):
    scenario = d2_labor_scenario(d2)
    params = BehavioralParams()
    traj = simulate(d2, scenario, params, IntegrationConfig(dt=1.0), 30.0)
    ctx = context(d2, scenario, params)
    state = initial_state(d2)
    for k in range(1, 31):
        state = _advance(ctx, state, state.t + 1.0, 1.0)
        stored = traj.states[k]
        assert np.array_equal(stored.x, state.x)
        assert np.array_equal(stored.S, state.S)
        assert stored.c_agg_d == state.c_agg_d


# -- model invariants ----------------------------------------------------------

def break_allocation(state):
    state.c[0] += 1.0


def break_inventory(state):
    state.S[0, 1] = -1.0


def break_labor_floor(state):
    state.l[0] = -1.0


def break_labor_cap(state):
    state.l[0] = 1.01 * state.l[0]


def break_output(state):
    # a negative output that the (empty) allocation still matches
    state.x[0] = -1e-13
    state.c[0] = state.f[0] = 0.0
    state.O[0, :] = 0.0


def nan_inventory(state):
    state.S[1, 0] = math.nan


def nan_labor(state):
    state.l[1] = math.nan


@pytest.mark.parametrize("breaker, invariant", [
    (break_allocation, "allocation does not conserve output"),
    (break_inventory, "negative inventory"),
    (break_labor_floor, "labor outside its admissible band"),
    (break_labor_cap, "labor outside its admissible band"),
    (break_output, "negative output"),
    (nan_inventory, "negative inventory"),
    (nan_labor, "labor outside its admissible band"),
])
def test_check_state_names_the_broken_invariant(d2, breaker, invariant):
    state = initial_state(d2)
    state.t = 7.0
    _check_state(state, d2, np.zeros(2))  # the equilibrium passes
    breaker(state)
    with pytest.raises(ModelStateError, match=f"^{invariant} at t = 7.0$"):
        _check_state(state, d2, np.zeros(2))


def test_allocation_tolerance_is_one_in_1e12_plus_1e12(d2):
    """The allocation check passes a residual up to ``1e-12 |x| + 1e-12``.
    On a subnormal output the relative part rounds away: the bound is
    exactly 1e-12, and the next float above it fails."""
    state = initial_state(d2)
    state.x[0] = 1e-310
    state.f[0] = 0.0
    state.O[0, :] = 0.0
    state.c[0] = 1e-12
    _check_state(state, d2, np.zeros(2))
    state.c[0] = math.nextafter(1e-12, math.inf)
    with pytest.raises(ModelStateError,
                       match="^allocation does not conserve output at t = 0.0$"):
        _check_state(state, d2, np.zeros(2))


def test_check_state_runs_under_python_optimize():
    code = (
        "import sys\n"
        "from pnetsim import ModelStateError, initial_state\n"
        "from pnetsim.dynamics import _check_state\n"
        "from pnetsim.fixtures import fixture_economy\n"
        "print(sys.flags.optimize)\n"
        "d2 = fixture_economy('d2')\n"
        "state = initial_state(d2)\n"
        "state.S[0, 1] = -1.0\n"
        "try:\n"
        "    _check_state(state, d2, state.x * 0.0)\n"
        "except ModelStateError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(pnetsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["1", "negative inventory at t = 0.0", ""]


def test_broken_invariant_stops_simulate(d2, monkeypatch):
    restock = dynamics._restock
    monkeypatch.setattr(dynamics, "_restock",
                        lambda *args: restock(*args) - 1e9)
    with pytest.raises(ModelStateError, match="^negative inventory at t = 1.0$"):
        simulate(d2, d2_labor_scenario(d2), BehavioralParams(),
                 IntegrationConfig(dt=1.0), 5.0)


def break_snapshot(monkeypatch):
    produce = integrate._produce  # what _reconstruct calls, and only it

    def unbalanced(*args):
        x, d, c, f, O, x_cap, x_inp = produce(*args)
        return x, d, c + 1.0, f, O, x_cap, x_inp

    monkeypatch.setattr(integrate, "_produce", unbalanced)


def break_probe(monkeypatch):
    restock = dynamics._restock
    monkeypatch.setattr(dynamics, "_restock",
                        lambda *args: restock(*args) - 1e9)


@pytest.mark.parametrize("breaker, message", [
    (break_probe, "negative inventory at t = 0.0"),
    (break_snapshot, "allocation does not conserve output at t = 1.0"),
], ids=["rhs-probe", "snapshot"])
def test_broken_invariant_stops_adaptive_simulate(d2, monkeypatch, breaker,
                                                  message):
    breaker(monkeypatch)
    with pytest.raises(ModelStateError, match=f"^{message}$"):
        simulate(d2, d2_labor_scenario(d2), BehavioralParams(),
                 IntegrationConfig(method="continuous_adaptive"), 5.0)


# -- production function ordering property ------------------------------------

def random_state(economy, rng, depleted=False):
    state = initial_state(economy)
    scale = 0.01 if depleted else 1.0
    state.S = (
        rng.uniform(0.0, 2.0, economy.Z.shape)
        * initial_inventories(economy) * scale
    )
    return state


@pytest.mark.parametrize("fixture_name", ["d3", "be64"])
def test_production_function_ordering(fixture_name, request, rng):
    economy = request.getfixturevalue(fixture_name)
    sets = derive_criticality_sets(economy)
    important_ratio_ok = 0
    for k in range(250):
        state = random_state(economy, rng, depleted=(k % 4 == 3))
        caps = {
            fn: _input_capacity(state.S, economy.A, sets, economy.x0, fn)
            for fn in ("leontief", "strongly_critical", "half_critical",
                       "weakly_critical", "linear")
        }
        tol = 1e-9
        assert np.all(caps["leontief"] <= caps["strongly_critical"] + tol)
        assert np.all(caps["strongly_critical"] <= caps["weakly_critical"] + tol)
        assert np.all(caps["half_critical"] <= caps["weakly_critical"] + tol)
        assert np.all(caps["leontief"] <= caps["linear"] + tol)
        # strongly <= half wherever every important input's ratio sits below
        # the baseline capacity
        ratio = np.where(economy.A > 0, state.S / np.where(economy.A > 0, economy.A, 1.0), np.inf)
        cond = np.ones(economy.n_sectors, dtype=bool)
        for j in range(economy.n_sectors):
            imp = sets.important(j)
            imp = imp[economy.A[imp, j] > 0]
            if imp.size:
                cond[j] = np.all(ratio[imp, j] <= economy.x0[j])
            else:
                cond[j] = True
        assert np.all(caps["strongly_critical"][cond] <= caps["half_critical"][cond] + tol)
        important_ratio_ok += int(cond.any())
    assert important_ratio_ok > 0
