from dataclasses import replace
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

from pnetsim import (
    IntegrationConfig,
    initial_state,
    simulate,
    write_trajectory_csv,
)
from pnetsim import IntegrationError, integrate
from pnetsim.dynamics import ModelContext
from pnetsim.fixtures import scenario_for
from pnetsim.integrate import (
    MAX_CONTINUOUS_STEP,
    METHOD_CONTINUOUS,
    METHOD_DISCRETE,
    _boundaries,
    _pack,
    _rhs,
    read_trajectory_csv,
)
from pnetsim.shocks import ShockSchedule


def labor_shock_scenario(economy, magnitude=0.5):
    eps = np.zeros(economy.n_sectors)
    eps[0] = magnitude
    return scenario_for(
        economy,
        key_dates=((date(2020, 3, 15), "lockdown_start"),
                   (date(2020, 6, 1), "lockdown_end")),
        eps_S_L1=eps,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(method="heun")
    with pytest.raises(ValueError):
        IntegrationConfig(dt=1.5)
    with pytest.raises(ValueError):
        IntegrationConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=0.0)


def test_zero_shock_is_flat_both_methods(d2, params):
    scenario = scenario_for(d2)
    for method in (METHOD_DISCRETE, METHOD_CONTINUOUS):
        traj = simulate(d2, scenario, params, IntegrationConfig(method=method), 90.0)
        ref = initial_state(d2)
        for state in traj.states:
            np.testing.assert_allclose(state.x, ref.x, rtol=1e-9)
            np.testing.assert_allclose(state.l, ref.l, rtol=1e-9)
            np.testing.assert_allclose(state.S, ref.S, rtol=1e-9)


def test_discrete_determinism(d3, params):
    scenario = labor_shock_scenario(d3)
    a = simulate(d3, scenario, params, IntegrationConfig(dt=1.0), 120.0)
    b = simulate(d3, scenario, params, IntegrationConfig(dt=1.0), 120.0)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.S, sb.S)
        assert sa.c_agg_d == sb.c_agg_d


def test_continuous_determinism(d3, params):
    scenario = labor_shock_scenario(d3)
    cfg = IntegrationConfig(method=METHOD_CONTINUOUS)
    a = simulate(d3, scenario, params, cfg, 60.0)
    b = simulate(d3, scenario, params, cfg, 60.0)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.l, sb.l)


def test_output_grid_sampling(d2, params):
    scenario = scenario_for(d2)
    grid = (0.0, 10.0, 33.5, 60.0)
    traj = simulate(d2, scenario, params, IntegrationConfig(output_grid=grid), 60.0)
    np.testing.assert_array_equal(traj.times, grid)
    assert len(traj.states) == 4
    assert traj.states[0].t == 0.0


def test_default_grid_is_daily(d2, params):
    traj = simulate(d2, scenario_for(d2), params, IntegrationConfig(), 30.0)
    np.testing.assert_array_equal(traj.times, np.arange(31.0))


def test_bad_grid_rejected(d2, params):
    with pytest.raises(ValueError):
        simulate(d2, scenario_for(d2), params,
                 IntegrationConfig(output_grid=(0.0, 99.0)), 30.0)
    with pytest.raises(ValueError):
        simulate(d2, scenario_for(d2), params, IntegrationConfig(), -1.0)


def test_event_alignment_breakpoints_are_boundaries(d2, params):
    scenario = labor_shock_scenario(d2)
    schedule = ShockSchedule(scenario, d2)
    grid = np.arange(0.0, 121.0)
    bounds = _boundaries(schedule, grid, 120.0)
    for b in schedule.breakpoints:
        if 0.0 < b < 120.0:
            assert b in bounds


def test_steps_never_straddle_events(d2, params):
    # with dt close to one day and a breakpoint at fractional offset the
    # stepper still lands exactly on the event
    scenario = replace(labor_shock_scenario(d2), l1=7.5)
    traj = simulate(d2, scenario, params,
                    IntegrationConfig(output_grid=(0.0, 21.5, 60.0)), 60.0)
    assert traj.times[1] == 21.5


def test_refinement_consistency(d2, params):
    """Halving dt roughly halves the trajectory change (order >= 1)."""
    scenario = labor_shock_scenario(d2)
    grid = tuple(np.arange(0.0, 91.0))
    runs = {}
    for dt in (1.0, 0.5, 0.25):
        traj = simulate(d2, scenario, params,
                        IntegrationConfig(dt=dt, output_grid=grid), 90.0)
        runs[dt] = traj.aggregate_output()
    gap_coarse = np.max(np.abs(runs[1.0] - runs[0.5]))
    gap_fine = np.max(np.abs(runs[0.5] - runs[0.25]))
    assert 0.0 < gap_fine <= 0.6 * gap_coarse


def test_discrete_vs_continuous_close(d2, params):
    scenario = labor_shock_scenario(d2)
    grid = tuple(np.arange(0.0, 91.0))
    a = simulate(d2, scenario, params,
                 IntegrationConfig(dt=1.0, output_grid=grid), 90.0).aggregate_output()
    c = simulate(d2, scenario, params,
                 IntegrationConfig(method=METHOD_CONTINUOUS, output_grid=grid),
                 90.0).aggregate_output()
    assert np.max(np.abs(a - c)) / a[0] < 0.02


def test_continuous_snapshots_conserve_allocations(d3, params):
    scenario = labor_shock_scenario(d3)
    traj = simulate(d3, scenario, params,
                    IntegrationConfig(method=METHOD_CONTINUOUS), 60.0)
    schedule = ShockSchedule(scenario, d3)
    for state in traj.states:
        allocated = state.c + state.f + state.O.sum(axis=1)
        np.testing.assert_allclose(allocated, state.x, rtol=1e-12, atol=1e-12)
        assert np.all(state.S >= 0.0)
        eps_S = schedule.at(state.t).eps_S
        assert np.all(state.l <= (1 - eps_S) * d3.l0 + 1e-9)


def test_trajectory_csv_roundtrip(tmp_path, d2, params):
    scenario = labor_shock_scenario(d2)
    traj = simulate(d2, scenario, params, IntegrationConfig(), 20.0)
    path = write_trajectory_csv(traj, tmp_path / "traj.csv")
    data = read_trajectory_csv(path)
    k = 7
    state = traj.states[k]
    t = float(traj.times[k])
    assert data["x"][(t, "X1")] == state.x[0]
    assert data["l"][(t, "X2")] == state.l[1]
    assert data["x"][(t, "BE")] == pytest.approx(float(state.x.sum()), rel=1e-15)
    assert data["b2b_out"][(t, "X1")] == pytest.approx(float(state.O[0].sum()), rel=1e-15)


def test_trajectory_requires_increasing_times(d2, params):
    traj = simulate(d2, scenario_for(d2), params, IntegrationConfig(), 5.0)
    from pnetsim import Trajectory
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=traj.states[:2],
                   codes=traj.codes, start_date=traj.start_date)


STATE_FIELDS = ("x", "d", "l", "c", "f", "O", "S", "c_agg_d", "l_perm", "d_mem")


def test_adaptive_samples_do_not_depend_on_the_grid(d3, params):
    scenario = labor_shock_scenario(d3)
    daily = simulate(d3, scenario, params,
                     IntegrationConfig(method=METHOD_CONTINUOUS), 120.0)
    sparse = simulate(d3, scenario, params,
                      IntegrationConfig(method=METHOD_CONTINUOUS,
                                        output_grid=(0.0, 45.0, 90.5, 120.0)),
                      120.0)
    for t in (0.0, 45.0, 120.0):
        a = daily.states[int(t)]
        b = sparse.states[list(sparse.times).index(t)]
        for name in STATE_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (t, name)


@pytest.mark.parametrize("economy", ["d2", "d3"])
def test_adaptive_zero_shock_stays_flat_on_a_sparse_grid(economy, params, request):
    economy = request.getfixturevalue(economy)
    traj = simulate(economy, scenario_for(economy), params,
                    IntegrationConfig(method=METHOD_CONTINUOUS,
                                      output_grid=(0.0, 45.0, 90.0)), 90.0)
    ref = initial_state(economy)
    for state in traj.states:
        np.testing.assert_allclose(state.x, ref.x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(state.l, ref.l, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(state.S, ref.S, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("grid", [None, (0.0, 45.0, 90.5, 120.0)])
def test_one_solve_per_kink_segment(d2, params, monkeypatch, grid):
    scenario = labor_shock_scenario(d2)
    schedule = ShockSchedule(scenario, d2)
    kinks = {0.0, 120.0, schedule.pandemic_start}
    kinks.update(b for b in schedule.breakpoints if b < 120.0)
    calls = []
    solve = integrate.solve_ivp

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(integrate, "solve_ivp", counted)
    simulate(d2, scenario, params,
             IntegrationConfig(method=METHOD_CONTINUOUS, output_grid=grid), 120.0)
    assert len(calls) == len(kinks) - 1
    assert all(kw["max_step"] == MAX_CONTINUOUS_STEP == 1.0 for kw in calls)


def test_adaptive_failure_raises_integration_error(d2, params, monkeypatch):
    def failing(fun, t_span, y0, **kwargs):
        return SimpleNamespace(success=False, message="Required step size "
                               "is less than spacing between numbers.")

    monkeypatch.setattr(integrate, "solve_ivp", failing)
    with pytest.raises(IntegrationError) as info:
        simulate(d2, labor_shock_scenario(d2), params,
                 IntegrationConfig(method=METHOD_CONTINUOUS), 30.0)
    message = str(info.value)
    assert "[0.0, 14.0]" in message
    assert "Required step size is less than spacing between numbers." in message


def test_hold_drive_matches_shock_lookup(d3, params):
    scenario = labor_shock_scenario(d3)
    schedule = ShockSchedule(scenario, d3)
    ctx = ModelContext(d3, params, schedule)
    mid = simulate(d3, scenario, params, IntegrationConfig(), 40.0).states[40]
    y = _pack(mid.d_mem, mid.l, mid.c_agg_d, mid.l_perm / ctx.l0_sum, mid.S)
    start = schedule.pandemic_start + scenario.l1  # the lockdown plateau
    assert (start, scenario.day(date(2020, 6, 1))) in schedule.holds
    row = schedule.table([start])
    drive = ctx.drive(row.eps_S, row.eps_D, row.eps_F).at(0)
    for t in (start + 0.1, start + 17.3, start + 40.0):
        assert np.array_equal(_rhs(t, y, ctx, drive), _rhs(t, y, ctx))
