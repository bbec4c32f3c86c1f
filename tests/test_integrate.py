import csv
import logging
import math
from dataclasses import replace
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

from pnetsim import (
    BehavioralParams,
    IntegrationConfig,
    initial_state,
    simulate,
    write_trajectory_csv,
)
from pnetsim import IntegrationError, ValidationError, integrate
from pnetsim.dynamics import ModelContext
from pnetsim.economy import make_economy
from pnetsim.fixtures import scenario_for
from pnetsim.integrate import (
    MAX_CONTINUOUS_STEP,
    METHOD_CONTINUOUS,
    METHOD_DISCRETE,
    SOLVER_ATOL,
    SOLVER_RTOL,
    TOO_SMALL_STEP,
    _boundaries,
    _kinks,
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


def test_default_grid_is_daily(d2, params):
    traj = simulate(d2, scenario_for(d2), params, IntegrationConfig(), 30.0)
    np.testing.assert_array_equal(traj.times, np.arange(31.0))


def test_bad_grid_rejected(d2, params):
    with pytest.raises(ValueError):
        simulate(d2, scenario_for(d2), params, IntegrationConfig(), -1.0)
    with pytest.raises(ValidationError, match="t_end"):
        simulate(d2, scenario_for(d2), params, IntegrationConfig(), math.nan)


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
    # stepper still lands exactly on the event and on a fractional end
    scenario = replace(labor_shock_scenario(d2), l1=7.5)
    traj = simulate(d2, scenario, params, IntegrationConfig(), 21.5)
    np.testing.assert_array_equal(traj.times, [*np.arange(22.0), 21.5])
    assert traj.times[-1] == traj.states[-1].t == 21.5


def test_refinement_consistency(d2, params):
    """Halving dt roughly halves the trajectory change (order >= 1)."""
    scenario = labor_shock_scenario(d2)
    runs = {}
    for dt in (1.0, 0.5, 0.25):
        traj = simulate(d2, scenario, params, IntegrationConfig(dt=dt), 90.0)
        runs[dt] = traj.aggregate_output()
    gap_coarse = np.max(np.abs(runs[1.0] - runs[0.5]))
    gap_fine = np.max(np.abs(runs[0.5] - runs[0.25]))
    assert 0.0 < gap_fine <= 0.6 * gap_coarse


def test_discrete_vs_continuous_close(d2, params):
    scenario = labor_shock_scenario(d2)
    a = simulate(d2, scenario, params,
                 IntegrationConfig(dt=1.0), 90.0).aggregate_output()
    c = simulate(d2, scenario, params,
                 IntegrationConfig(method=METHOD_CONTINUOUS), 90.0).aggregate_output()
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


def test_adaptive_states_own_their_arrays(d3, params):
    # A view would keep its segment's whole solver output alive.
    traj = simulate(d3, labor_shock_scenario(d3), params,
                    IntegrationConfig(method=METHOD_CONTINUOUS), 120.0)
    for state in traj.states:
        for name, value in vars(state).items():
            if isinstance(value, np.ndarray):
                assert value.base is None, (state.t, name)


@pytest.mark.parametrize("dt", [1.0, 0.5])
def test_discrete_states_own_their_arrays(d3, params, dt):
    # A kept state that shared memory with another, say through a buffer a
    # stage reuses from step to step, would change after the fact. Within
    # one state, d_mem is d at a whole-day step.
    traj = simulate(d3, labor_shock_scenario(d3), params,
                    IntegrationConfig(dt=dt), 60.0)
    kept = [(s.t, name, value) for s in traj.states
            for name, value in vars(s).items()
            if isinstance(value, np.ndarray) and not (name == "d_mem" and value is s.d)]
    for k, (t, name, value) in enumerate(kept):
        for t_other, other, array in kept[k + 1:]:
            assert not np.shares_memory(value, array), (t, name, t_other, other)


@pytest.mark.parametrize("method", [METHOD_DISCRETE, METHOD_CONTINUOUS])
def test_zero_labor_sector_stays_inert(method):
    # X2 has output and exogenous demand but employs no labor (l0 = 0): its
    # labor cap is 0, so from the first step on it produces +0.0.
    economy = make_economy(
        codes=("X1", "X2"), Z=[[10.0, 0.0], [0.0, 0.0]], c0=[5.0, 0.0],
        f0=[5.0, 2.0], l0=[5.0, 0.0], n_days_inventory=[1.0, 1.0],
        criticality=np.zeros((2, 2)), on_site=[0, 0],
    )
    traj = simulate(economy, labor_shock_scenario(economy), BehavioralParams(),
                    IntegrationConfig(method=method), 120.0)
    x2 = np.array([state.x[1] for state in traj.states[1:]])
    assert np.all(x2 == 0.0) and not np.signbit(x2).any()
    assert all(state.d[1] == economy.f0[1] for state in traj.states)
    assert min(state.x[0] for state in traj.states) < economy.x0[0]


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


def csv_writer_oracle(traj, path):
    """The trajectory CSV as one ``csv.writer`` row per sector and time."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(integrate.TRAJECTORY_COLUMNS)
        for t, state in zip(traj.times, traj.states):
            day = traj.date_at(t).isoformat()
            b2b = state.O.sum(axis=1)
            series = (state.x, state.d, state.l, state.c, state.f, b2b)
            for i, code in enumerate(traj.codes):
                w.writerow([repr(float(t)), day, code,
                            *(repr(float(v[i])) for v in series)])
            w.writerow([repr(float(t)), day, integrate.AGGREGATE_CODE,
                        *(repr(float(v.sum())) for v in series)])
    return path


def test_trajectory_csv_matches_csv_writer(tmp_path, d3, params):
    traj = simulate(d3, labor_shock_scenario(d3), params, IntegrationConfig(), 4.0)
    awkward = np.array([1e-300, -0.0, 1e17, 0.1])
    for k, state in enumerate(traj.states):
        state.x[:] = np.roll(awkward, k)[:state.x.size]
        state.l[0] = -0.0
        state.O[1, :] = np.roll(awkward, k + 1)[:state.x.size]
    codes = ('A,1', 'B"2', "C3")  # labels csv.writer quotes, and one it does not
    for traj in (traj, replace(traj, codes=codes)):
        ours = write_trajectory_csv(traj, tmp_path / "ours.csv").read_bytes()
        assert ours == csv_writer_oracle(traj, tmp_path / "oracle.csv").read_bytes()


def test_trajectory_requires_increasing_times(d2, params):
    traj = simulate(d2, scenario_for(d2), params, IntegrationConfig(), 5.0)
    from pnetsim import Trajectory
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=traj.states[:2],
                   codes=traj.codes, start_date=traj.start_date)


@pytest.mark.parametrize("economy", ["d2", "d3"])
def test_adaptive_zero_shock_stays_flat(economy, params, request):
    economy = request.getfixturevalue(economy)
    traj = simulate(economy, scenario_for(economy), params,
                    IntegrationConfig(method=METHOD_CONTINUOUS), 90.0)
    ref = initial_state(economy)
    for state in traj.states:
        np.testing.assert_allclose(state.x, ref.x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(state.l, ref.l, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(state.S, ref.S, rtol=1e-12, atol=0.0)


def test_one_solve_per_kink_segment(d2, params, monkeypatch):
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
             IntegrationConfig(method=METHOD_CONTINUOUS), 120.0)
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
    # The labor shock, and a demand shock on the on-site sector S2, so
    # that the release ramp's slow logarithmic branch selects an entry.
    scenario = replace(labor_shock_scenario(d3),
                       eps_D_lockdown=np.array([0.0, 0.4, 0.0]))
    schedule = ShockSchedule(scenario, d3)
    ctx = ModelContext(d3, params, schedule)
    states = simulate(d3, scenario, params, IntegrationConfig(), 140.0).states

    def y_at(t):
        s = states[int(t)]
        return _pack(s.d_mem, s.l, s.c_agg_d, s.l_perm / ctx.l0_sum, s.S)

    start = schedule.pandemic_start + scenario.l1  # the lockdown plateau
    assert (start, scenario.day(date(2020, 6, 1))) in schedule.holds
    row = schedule.table([start])
    drive = ctx.drive(row.eps_S, row.eps_D, row.eps_F).at(0)
    for t in (start + 0.1, start + 17.3, start + 40.0):
        y = y_at(t)
        assert np.array_equal(_rhs(t, y, ctx, drive), _rhs(t, y, ctx))

    # On a ramp, each step attempt's six evaluation times (the stages at
    # t + c h, and t + h) read their rows of one drive block. The linear
    # lockdown ramp, the release ramp, and an attempt that ends where the
    # release does, whose last rows lie in the hold after it.
    release = scenario.day(date(2020, 6, 1))
    assert (schedule.pandemic_start, start) not in schedule.holds
    assert all(release != t0 for t0, _ in schedule.holds)
    for t, h in ((schedule.pandemic_start + 1.3, 0.7), (release + 9.6, 0.45),
                 (release + scenario.l2 - 0.75, 0.75)):
        times = [t + c * h for c in (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)] + [t + h]
        block = ctx.drives(times)
        y = y_at(t)
        for k, tk in enumerate(times):
            assert (_rhs(tk, y, ctx, block.at(k)).tobytes()
                    == _rhs(tk, y, ctx).tobytes()), (t, k)


def _shocked_d3(d3, params):
    scenario = labor_shock_scenario(d3)
    schedule = ShockSchedule(scenario, d3)
    return scenario, schedule, ModelContext(d3, params, schedule)


@pytest.mark.parametrize("sparse", [False, True])
def test_solver_is_bitwise_scipy_rk45(d3, params, sparse):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    _, schedule, ctx = _shocked_d3(d3, params)
    init = initial_state(d3)
    y = _pack(init.d, init.l, init.c_agg_d, 1.0, init.S)
    kinks = _kinks(schedule, 120.0)
    for a, b in zip(kinks, kinks[1:]):
        # daily: every whole day from the segment start; sparse: two
        # off-grid times and the end
        t_eval = ([a + (b - a) / 3, a + (b - a) * 0.7, b] if sparse
                  else [*np.arange(a, b), b])
        kwargs = dict(args=(ctx,), rtol=SOLVER_RTOL, atol=SOLVER_ATOL,
                      max_step=MAX_CONTINUOUS_STEP, t_eval=t_eval)
        ref = scipy_integrate.solve_ivp(_rhs, (a, b), y, method="RK45", **kwargs)
        runs = [integrate.solve_ivp(_rhs, (a, b), y, **kwargs)]
        if not any(t0 <= a < t1 for t0, t1 in schedule.holds):
            # The run path on a ramp: one drive block per step attempt;
            # scipy reads the shocks at each time.
            runs.append(integrate.solve_ivp(
                _rhs, (a, b), y, _drives=ctx.drives, **kwargs))
        assert ref.success
        for ours in runs:
            assert ours.success
            assert np.array_equal(ours.t, ref.t), (a, b)
            assert np.array_equal(ours.y, ref.y), (a, b)
            assert ours.nfev == ref.nfev
            assert ours.naccept > 0
        y = runs[0].y[:, -1]


def test_solver_reports_a_step_below_float_spacing(d2, params, monkeypatch):
    """A right-hand side that turns NaN after t = 0.5 shrinks the step to
    nothing; the real solver reports it, and simulate names the segment."""
    ctx = ModelContext(d2, params, ShockSchedule(labor_shock_scenario(d2), d2))
    init = initial_state(d2)
    y0 = _pack(init.d, init.l, init.c_agg_d, 1.0, init.S)
    rhs = integrate._rhs

    def nan_after_half_a_day(t, y, *args):
        return np.full_like(y, np.nan) if t > 0.5 else rhs(t, y, *args)

    sol = integrate.solve_ivp(nan_after_half_a_day, (0.0, 14.0), y0,
                              args=(ctx,), rtol=1e-6, atol=1e-8, max_step=1.0,
                              t_eval=[0.25, 1.0, 14.0])
    assert not sol.success
    assert sol.message == TOO_SMALL_STEP == (
        "Required step size is less than spacing between numbers.")
    assert sol.nreject > 0
    assert list(sol.t) == [0.25] and np.isfinite(sol.y).all()

    monkeypatch.setattr(integrate, "_rhs", nan_after_half_a_day)
    with pytest.raises(IntegrationError) as info:
        simulate(d2, labor_shock_scenario(d2), params,
                 IntegrationConfig(method=METHOD_CONTINUOUS), 30.0)
    assert str(info.value) == ("adaptive integration failed on the segment "
                               f"[0.0, 14.0] (days): {TOO_SMALL_STEP}")


@pytest.mark.parametrize("t_span, t_eval", [
    ((0.0, 2.0), [1.0, 3.0]),  # past the end: a sample no step reaches
    ((0.0, 2.0), [-1.0, 2.0]),
    ((0.0, 2.0), [2.0, 1.0]),
    ((0.0, 2.0), []),
    ((2.0, 0.0), [1.0]),
])
def test_solver_rejects_samples_outside_its_span(t_span, t_eval):
    with pytest.raises(ValueError):
        integrate.solve_ivp(lambda t, y: -y, t_span, np.ones(2), t_eval=t_eval)


def test_adaptive_run_reads_every_shock_from_a_table(d3, params, monkeypatch):
    scenario, _, _ = _shocked_d3(d3, params)
    lookups, fallbacks = [], []
    at, advance = ShockSchedule.at, integrate._advance

    def counted_at(self, t):
        lookups.append(t)
        return at(self, t)

    def counted_advance(ctx, state, t_new, dt, drive=None, whole=False):
        if drive is None:
            fallbacks.append(t_new)
        return advance(ctx, state, t_new, dt, drive, whole)

    monkeypatch.setattr(ShockSchedule, "at", counted_at)
    monkeypatch.setattr(integrate, "_advance", counted_advance)
    simulate(d3, scenario, params,
             IntegrationConfig(method=METHOD_CONTINUOUS), 120.0)
    assert lookups == [] and fallbacks == []


def test_adaptive_run_logs_solver_statistics(d3, params, monkeypatch, caplog):
    scenario, schedule, _ = _shocked_d3(d3, params)
    calls = []
    rhs = integrate._rhs

    def counted(t, y, *args):
        calls.append(t)
        return rhs(t, y, *args)

    monkeypatch.setattr(integrate, "_rhs", counted)
    with caplog.at_level(logging.DEBUG, logger="pnetsim.integrate"):
        simulate(d3, scenario, params,
                 IntegrationConfig(method=METHOD_CONTINUOUS), 120.0)
    records = [r for r in caplog.records if r.name == "pnetsim.integrate"]
    kinks = _kinks(schedule, 120.0)
    assert [r.args[:2] for r in records] == list(zip(kinks, kinks[1:]))
    assert all(r.levelno == logging.DEBUG for r in records)
    assert sum(r.args[2] for r in records) == len(calls)
    # six evaluations a step attempt, plus two to pick the first step
    assert all(r.args[2] == 6 * (r.args[3] + r.args[4]) + 2 for r in records)
