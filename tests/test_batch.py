"""The batched step kernel reproduces serial runs bit for bit.

Grid search and Monte Carlo simulate several parameter points in one
batched pass; none of their results may depend on that batching, on the
worker count, or on where a run was resumed.
"""

import tracemalloc
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from pnetsim import (
    PRODUCTION_FUNCTIONS,
    BehavioralParams,
    CheckpointError,
    GridSpec,
    IntegrationConfig,
    grid_search,
    monte_carlo,
    simulate,
)
from pnetsim import calibration, integrate
from pnetsim.calibration import (
    OBSERVABLES,
    apply_grid_point,
    apply_sampled,
    parse_distributions,
    synthesize_dataset,
)
from pnetsim.fixtures import scenario_for
from pnetsim.dynamics import ModelContext
from pnetsim.integrate import SERIES, simulate_series
from pnetsim.shocks import ShockSchedule

ALL_SERIES = tuple(SERIES)


@pytest.fixture(scope="module")
def d3_scenario(d3):
    return scenario_for(
        d3,
        key_dates=((date(2020, 3, 15), "lockdown_start"),
                   (date(2020, 5, 4), "lockdown_end")),
        eps_S_L1=np.array([0.3, 0.1, 0.0]),
        eps_D_lockdown=np.array([0.2, 0.0, 0.4]),
    )


def assert_batch_matches_serial(economy, runs, t_end):
    batch = simulate_series(economy, runs, t_end, ALL_SERIES)
    for k, (scenario, params) in enumerate(runs):
        traj = simulate(economy, scenario, params, IntegrationConfig(), t_end)
        np.testing.assert_array_equal(batch.times, traj.times)
        for name in ALL_SERIES:
            serial = traj.series(SERIES[name])
            assert np.array_equal(batch.values[name][k], serial), (k, name)


def mixed_runs(scenario, rule, points):
    return [
        (replace(scenario, l2=l2), BehavioralParams(prod_fn=rule, tau=tau, gamma_F=gamma_F))
        for tau, l2, gamma_F in points
    ]


@pytest.mark.parametrize("rule", PRODUCTION_FUNCTIONS)
def test_batch_matches_serial_runs_d3(d3, d3_scenario, rule):
    # A fractional l2 moves a breakpoint off the whole-day grid, so the
    # points take different numbers of steps, some shorter than a day.
    runs = mixed_runs(d3_scenario, rule, [
        (14.0, 42.0, 28.0), (7.0, 28.0, 14.0), (21.0, 37.5, 35.0), (1.0, 56.0, 7.0),
    ])
    assert_batch_matches_serial(d3, runs, 395.0)
    # One run steps as a single run, also with steps shorter than a day.
    assert_batch_matches_serial(d3, runs[:1], 120.0)
    assert_batch_matches_serial(d3, runs[2:3], 395.0)


def test_one_point_context_steps_as_a_single_run(d3, d3_scenario):
    schedule = ShockSchedule(replace(d3_scenario, l2=37.5), d3)
    ctx = ModelContext(d3, [BehavioralParams()], [schedule])
    assert not ctx.batched
    kept = []
    integrate._march(ctx, integrate._output_grid(120.0), 120.0, 1.0,
                     lambda state, g, rows: kept.append(state))
    assert len(kept) == 121
    for state in kept:
        assert state.x.shape == (3,) and state.S.shape == (3, 3)
        assert isinstance(state.c_agg_d, float) and isinstance(state.t, float)


@pytest.mark.parametrize("rule", PRODUCTION_FUNCTIONS)
def test_batch_matches_serial_runs_be64(be64, ref_scenario, rule):
    runs = mixed_runs(ref_scenario, rule, [
        (14.0, 42.0, 28.0), (7.0, 28.0, 21.0), (28.0, 49.5, 35.0),
    ])
    assert_batch_matches_serial(be64, runs, 150.0)


# Both scenarios start their release ramps (28 days or longer) on day 64, so
# 80-step blocks put a boundary on day 80, inside every ramp (the default
# budget gives one block on d3).
RAMP_BLOCK_STEPS = 80


def drive_budget(budget, points, economy):
    """``DRIVE_BLOCK_BYTES`` for one-step blocks, or for ``RAMP_BLOCK_STEPS``
    steps at ``points`` points."""
    if budget == "one-step":
        return 1
    return RAMP_BLOCK_STEPS * 8 * points * economy.n_sectors


@pytest.mark.parametrize("budget", ["one-step", "mid-ramp"])
@pytest.mark.parametrize("fixture", ["d3", "be64"])
def test_drive_blocks_leave_batch_series_unchanged(request, d3_scenario,
                                                   ref_scenario, monkeypatch,
                                                   fixture, budget):
    economy = request.getfixturevalue(fixture)
    if fixture == "d3":  # l2 37.5 ends one point's steps off the whole days
        runs = mixed_runs(d3_scenario, "half_critical", [
            (14.0, 42.0, 28.0), (7.0, 28.0, 14.0), (21.0, 37.5, 35.0), (1.0, 56.0, 7.0),
        ])
        t_end = 395.0
    else:
        runs = mixed_runs(ref_scenario, "half_critical", [
            (14.0, 42.0, 28.0), (7.0, 28.0, 14.0), (28.0, 37.5, 14.0), (21.0, 42.0, 14.0),
        ])
        t_end = 150.0
    want = simulate_series(economy, runs, t_end, ALL_SERIES)
    monkeypatch.setattr(integrate, "DRIVE_BLOCK_BYTES",
                        drive_budget(budget, len(runs), economy))
    got = simulate_series(economy, runs, t_end, ALL_SERIES)
    for name in ALL_SERIES:
        assert np.array_equal(got.values[name], want.values[name]), name


def test_chunk_working_memory_does_not_grow_with_the_run(be64, ref_scenario):
    # A full grid chunk over the scored horizon. Forming the drive for all
    # its steps at once took about 30 MB beyond the 9.6 MB of series it
    # returns; blocks of steps take about 5 MB.
    runs = mixed_runs(ref_scenario, "half_critical", [
        (tau, l2, 14.0) for tau in (7.0, 14.0, 21.0, 28.0)
        for l2 in (28.0, 37.5, 42.0, 56.0)
    ])
    t_end = calibration.horizon_for(ref_scenario, calibration.DEFAULT_QUARTERS)
    assert len(runs) == calibration.CHUNK_POINTS and t_end == 395.0
    tracemalloc.start()
    try:
        out = simulate_series(be64, runs, t_end, calibration.SCORED_SERIES)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for v in out.values.values())
    assert peak - kept < 10e6, (peak, kept)


def test_batch_rejects_mixed_bottleneck_rules(d3, d3_scenario):
    runs = [(d3_scenario, BehavioralParams(prod_fn="leontief")),
            (d3_scenario, BehavioralParams(prod_fn="linear"))]
    with pytest.raises(ValueError, match="prod_fn"):
        simulate_series(d3, runs, 30.0, ALL_SERIES)


def test_shock_table_rows_equal_point_evaluations(be64, ref_scenario):
    schedule = ShockSchedule(replace(ref_scenario, l2=37.3), be64)
    times = np.concatenate([np.arange(0.0, 500.0), [64.25, 101.7, 300.01]])
    table = schedule.table(times)
    for k, t in enumerate(times):
        sample = schedule.at(float(t))
        for name in ("eps_S", "eps_D", "eps_F"):
            assert np.array_equal(getattr(table, name)[k], getattr(sample, name))
    with pytest.raises(ValueError):
        schedule.table([-1.0])


# -- grid search ---------------------------------------------------------------

@pytest.fixture(scope="module")
def d3_grid(d3, d3_scenario):
    grid = GridSpec((
        ("prod_fn", PRODUCTION_FUNCTIONS),
        ("tau", (7.0, 21.0)),
        ("l2", (28.0, 45.5)),
    ))
    params = BehavioralParams()
    generating = grid.point_at(9)
    scn, prm = apply_grid_point(d3, d3_scenario, params, generating)
    dataset = synthesize_dataset(d3, scn, prm)
    return d3, d3_scenario, params, dataset, grid


def leaderboard(result, path) -> bytes:
    result.write_leaderboard(path)
    return path.read_bytes()


def grid_outputs(d3_grid, out, workers=1) -> dict[str, bytes]:
    """The leaderboard, optimum cells and checkpoint of a grid search."""
    economy, scenario, params, dataset, grid = d3_grid
    ck = out / "ck.jsonl"
    result = grid_search(economy, scenario, params, dataset, grid,
                         workers=workers, checkpoint_path=ck)
    assert result.argmin.aad_total == 0.0
    return {
        "leaderboard": leaderboard(result, out / "leaderboard.csv"),
        "cells": result.write_optimum_cells(out / "cells.csv").read_bytes(),
        "checkpoint": ck.read_bytes(),
    }


@pytest.fixture(scope="module")
def d3_grid_default(d3_grid, tmp_path_factory):
    return grid_outputs(d3_grid, tmp_path_factory.mktemp("default"))


# Cap 1 steps every point as a single run, caps 2 and 3 step batches, and
# cap 16 takes each rule's four points in one chunk.
@pytest.mark.parametrize("workers", [1, 2], ids="workers{}".format)
@pytest.mark.parametrize("cap", [1, 2, 3, 16], ids="cap{}".format)
def test_grid_independent_of_chunking_and_workers(d3_grid, d3_grid_default,
                                                  tmp_path, monkeypatch, cap,
                                                  workers):
    monkeypatch.setattr(calibration, "CHUNK_POINTS", cap)
    assert grid_outputs(d3_grid, tmp_path, workers) == d3_grid_default


def test_grid_resume_mid_chunk(d3_grid, tmp_path):
    economy, scenario, params, dataset, grid = d3_grid
    ck = tmp_path / "ck.jsonl"
    full = grid_search(economy, scenario, params, dataset, grid, checkpoint_path=ck)
    lines = ck.read_text().splitlines()
    # The first chunk holds the four leontief points; stop after two.
    ck.write_text("\n".join(lines[:3]) + "\n")
    resumed = grid_search(economy, scenario, params, dataset, grid,
                          checkpoint_path=ck, resume=True)
    assert (leaderboard(resumed, tmp_path / "resumed.csv")
            == leaderboard(full, tmp_path / "full.csv"))
    assert len(ck.read_text().splitlines()) == 1 + grid.n_points


@pytest.mark.parametrize("cut", ["mid_record", "before_newline"])
def test_resume_after_torn_final_record(d3_grid, tmp_path, cut):
    economy, scenario, params, dataset, grid = d3_grid
    ck = tmp_path / "ck.jsonl"
    full = grid_search(economy, scenario, params, dataset, grid, checkpoint_path=ck)
    want = leaderboard(full, tmp_path / "full.csv")
    data = ck.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1  # start of the final record
    torn = data[:last + 20] if cut == "mid_record" else data[:-1]
    ck.write_bytes(torn)
    resumed = grid_search(economy, scenario, params, dataset, grid,
                          checkpoint_path=ck, resume=True)
    assert leaderboard(resumed, tmp_path / "resumed.csv") == want
    assert ck.read_bytes() == data


def test_corrupt_record_before_the_end_is_rejected(d3_grid, tmp_path):
    economy, scenario, params, dataset, grid = d3_grid
    ck = tmp_path / "ck.jsonl"
    grid_search(economy, scenario, params, dataset, grid, checkpoint_path=ck)
    lines = ck.read_text().splitlines()
    lines[3] = lines[3][:25]
    ck.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="line 4"):
        grid_search(economy, scenario, params, dataset, grid,
                    checkpoint_path=ck, resume=True)


def test_score_point_is_the_same_with_or_without_series_and_scorer(d3_grid):
    economy, scenario, params, dataset, _ = d3_grid
    config = IntegrationConfig()
    t_end = calibration.horizon_for(scenario, calibration.DEFAULT_QUARTERS)
    traj = simulate(economy, scenario, params, config, t_end)
    series = {name: traj.series(SERIES[name]) for name in calibration.SCORED_SERIES}
    scorer = calibration._Scorer(economy, dataset, None, scenario)
    want = calibration.score_point(economy, scenario, params, dataset)
    assert want.aad_total > 0.0  # the dataset comes from another point
    for given in ({"series": series}, {"scorer": scorer},
                  {"series": series, "scorer": scorer}):
        got = calibration.score_point(economy, scenario, params, dataset, **given)
        assert got == want, sorted(given)


# -- Monte Carlo ---------------------------------------------------------------

def per_draw_bands(economy, scenario, params, distributions, n_runs, seed, t_end,
                   observable="gross_output"):
    """Monte Carlo bands from one ``simulate`` call per draw."""
    samplers = parse_distributions(distributions)
    rng = np.random.default_rng(seed)
    draws = [{n: s(rng) for n, s in samplers.items()} for _ in range(n_runs)]
    name = OBSERVABLES[observable]
    series = []
    for sample in draws:
        scn, prm = apply_sampled(scenario, params, sample)
        traj = simulate(economy, scn, prm, IntegrationConfig(), t_end)
        series.append(traj.series(lambda s: float(getattr(s, name).sum())))
    return np.percentile(np.vstack(series), (2.5, 50.0, 97.5), axis=0)


@pytest.mark.parametrize("observable, cap", [
    pytest.param(observable, cap, id=observable + (f"-cap{cap}" if cap else ""))
    for observable in sorted(OBSERVABLES) for cap in (None, 1, 3)
])
def test_monte_carlo_bands_equal_per_draw_path(d3, d3_scenario, monkeypatch,
                                               observable, cap):
    distributions = {
        "eps_S_scale": {"dist": "uniform", "low": 0.8, "high": 1.2},
        "l2": {"dist": "uniform", "low": 28.0, "high": 56.0},
        "tau": {"dist": "normal", "mean": 14.0, "sd": 3.0, "min": 1.0},
        "b": {"dist": "uniform", "low": 0.5, "high": 1.0},
    }
    params = BehavioralParams()
    n_runs = calibration.CHUNK_POINTS + 4  # more than one chunk at every cap
    if cap:
        monkeypatch.setattr(calibration, "CHUNK_POINTS", cap)
    res = monte_carlo(d3, d3_scenario, params, distributions, n_runs=n_runs,
                      seed=11, t_end=120.0, observable=observable)
    want = per_draw_bands(d3, d3_scenario, params, distributions, n_runs, 11,
                          120.0, observable)
    assert np.array_equal(res.bands, want)


@pytest.mark.parametrize("budget", ["one-step", "mid-ramp"])
def test_monte_carlo_bands_do_not_depend_on_drive_blocks(d3, d3_scenario,
                                                        monkeypatch, budget):
    distributions = {
        "l2": {"dist": "uniform", "low": 28.0, "high": 56.0},
        "tau": {"dist": "normal", "mean": 14.0, "sd": 3.0, "min": 1.0},
    }
    n_runs = calibration.CHUNK_POINTS + 4  # a full chunk and a short one

    def bands():
        return monte_carlo(d3, d3_scenario, BehavioralParams(), distributions,
                           n_runs=n_runs, seed=5, t_end=120.0).bands

    want = bands()
    monkeypatch.setattr(integrate, "DRIVE_BLOCK_BYTES",
                        drive_budget(budget, calibration.CHUNK_POINTS, d3))
    assert np.array_equal(bands(), want)


def test_monte_carlo_bands_equal_per_draw_path_be64(be64, ref_scenario):
    distributions = {
        "rho_quarters": {"dist": "uniform", "low": 0.1, "high": 1.0},
        "L_share": {"dist": "uniform", "low": 0.5, "high": 1.0},
        "delta_s": {"dist": "uniform", "low": 0.5, "high": 1.0},
    }
    params = BehavioralParams()
    res = monte_carlo(be64, ref_scenario, params, distributions, n_runs=5,
                      seed=3, t_end=90.0)
    want = per_draw_bands(be64, ref_scenario, params, distributions, 5, 3, 90.0)
    assert np.array_equal(res.bands, want)
