"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one line per
criterion. Tolerances and runtime budgets are fixed here; quantitative
levels from the original Belgian data sources are not reproducible with
the synthetic network, so shape and ordering checks stand in for them
(see README).
"""

import math
import time
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from pnetsim import (
    BehavioralParams,
    GridSpec,
    IntegrationConfig,
    aad_vw,
    grid_search,
    initial_state,
    on_site_release,
    simulate,
)
from pnetsim.calibration import (
    apply_grid_point,
    monte_carlo,
    quarter_of,
    synthesize_dataset,
)
from pnetsim.dynamics import (
    ModelContext,
    _advance,
    _input_capacity,
    derive_criticality_sets,
    initial_inventories,
)
from pnetsim.fixtures import (
    FIXTURE_NAMES,
    fixture_economy,
    reference_scenario,
    scenario_for,
)
from pnetsim.shocks import ShockSchedule

T_END = 395.0  # epoch 2020-03-01 through 2021-03-31


def report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


@pytest.fixture(scope="module")
def be64():
    return fixture_economy("be64")


@pytest.fixture(scope="module")
def ref_scenario():
    return reference_scenario()


@pytest.fixture(scope="module")
def reference_runs(be64, ref_scenario):
    """dt=1, dt=0.5, and adaptive-continuous reference trajectories."""
    params = BehavioralParams()
    runs = {}
    t0 = time.perf_counter()
    runs["dt1"] = simulate(be64, ref_scenario, params,
                           IntegrationConfig(dt=1.0), T_END)
    runs["dt05"] = simulate(be64, ref_scenario, params,
                            IntegrationConfig(dt=0.5), T_END)
    runs["cont"] = simulate(
        be64, ref_scenario, params,
        IntegrationConfig(method="continuous_adaptive"), T_END,
    )
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_01_equilibrium_preservation():
    elapsed = 0.0
    for economy in map(fixture_economy, FIXTURE_NAMES):
        scenario = scenario_for(economy)
        params = BehavioralParams()
        ctx = ModelContext(economy, params, ShockSchedule(scenario, economy))
        state = initial_state(economy)
        ref = initial_state(economy)
        t0 = time.perf_counter()
        for k in range(395):
            state = _advance(ctx, state, float(k + 1), 1.0)
        elapsed += time.perf_counter() - t0
        for name in ("x", "d", "l", "c", "f"):
            got, want = getattr(state, name), getattr(ref, name)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(np.abs(want), 1e-12)), name
        assert np.all(np.abs(state.O - ref.O) <= 1e-9 * np.maximum(ref.O, 1e-12))
        assert np.all(np.abs(state.S - ref.S) <= 1e-9 * np.maximum(ref.S, 1e-12))
        assert abs(state.c_agg_d - ref.c_agg_d) <= 1e-9 * ref.c_agg_d
        assert abs(state.l_perm - ref.l_perm) <= 1e-9 * ref.l_perm
    assert elapsed < 1.0, f"equilibrium runs took {elapsed:.2f}s"
    report(1, f"zero-shock states constant to 1e-9 over 395 steps "
              f"on d2/d3/be64 in {elapsed:.2f}s")


def test_criterion_02_conservation_and_bounds(be64, ref_scenario, reference_runs):
    schedule = ShockSchedule(ref_scenario, be64)
    checked = 0
    for traj in (reference_runs["dt1"], reference_runs["cont"]):
        for state in traj.states:
            allocated = state.c + state.f + state.O.sum(axis=1)
            scale = np.maximum(np.abs(state.x), 1e-12)
            assert np.all(np.abs(allocated - state.x) <= 1e-12 * scale + 1e-12)
            assert np.all(state.S >= 0.0)
            eps_S = schedule.at(state.t).eps_S
            l_max = (1.0 - eps_S) * be64.l0
            assert np.all(state.l >= 0.0)
            assert np.all(state.l <= l_max * (1 + 1e-12) + 1e-12)
            checked += 1
    assert __debug__, "runtime assertions must be active in test builds"
    report(2, f"allocation identity (1e-12), stock and labor bounds hold "
              f"on {checked} stored states; step assertions active")


def test_criterion_03_production_function_ordering(be64):
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    n_states = 0
    for economy in (fixture_economy("d3"), be64):
        sets = derive_criticality_sets(economy)
        targets = initial_inventories(economy)
        state = initial_state(economy)
        for k in range(1000):
            scale = 0.01 if k % 4 == 3 else 1.0
            state.S = rng.uniform(0.0, 2.0, economy.Z.shape) * targets * scale
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
            ratio = np.where(economy.A > 0,
                             state.S / np.where(economy.A > 0, economy.A, 1.0),
                             np.inf)
            soft = np.where(sets.important_mask & (economy.A > 0), ratio, -np.inf)
            cond = np.max(soft, axis=0) <= economy.x0  # all important ratios below x0
            assert np.all(caps["strongly_critical"][cond] <= caps["half_critical"][cond] + tol)
            n_states += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"ordering property took {elapsed:.2f}s"
    report(3, f"bottleneck-rule ordering held on {n_states} random states "
              f"in {elapsed:.2f}s")


def test_criterion_04_release_curve_values():
    expected = 0.80 * math.log(50.5) / math.log(100.0)
    assert abs(on_site_release(0.80, 21.0, 42.0) - expected) <= 1e-12
    assert on_site_release(0.80, 0.0, 42.0) == 0.80
    assert on_site_release(0.80, 42.0, 42.0) == 0.0
    report(4, "logarithmic release curve exact at endpoints and 1e-12 at midpoint")


def test_criterion_05_objective_oracle_equivalence():
    rng = np.random.default_rng(20200315)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        sectors = [f"s{k}" for k in range(n)]
        model = {s: float(rng.uniform(-60, 20)) for s in sectors}
        data = {s: float(rng.uniform(-60, 20)) for s in sectors}
        weights = {s: float(rng.uniform(0.5, 200)) for s in sectors}
        total = sum(weights.values())
        oracle_aad = sum(weights[s] * abs(data[s] - model[s]) for s in sectors) / total
        oracle_ad = sum(weights[s] * (model[s] - data[s]) for s in sectors) / total
        aad, ad = aad_vw(model, data, weights)
        assert abs(aad - oracle_aad) <= 1e-12
        assert abs(ad - oracle_ad) <= 1e-12
        assert abs(ad) <= aad + 1e-15
    report(5, "accuracy/bias scores match the brute-force oracle to 1e-12 "
              "on 100 random triples; |bias| <= accuracy throughout")


def test_criterion_06_grid_recovery_and_reproducibility(be64, ref_scenario, tmp_path):
    t0 = time.perf_counter()
    params = BehavioralParams()
    grid = GridSpec((
        ("prod_fn", ("half_critical", "weakly_critical")),
        ("tau", (7.0, 14.0, 21.0)),
        ("gamma_F", (21.0, 28.0, 35.0)),
    ))
    generating = {"prod_fn": "half_critical", "tau": 14.0, "gamma_F": 28.0}
    scn, prm = apply_grid_point(be64, ref_scenario, params, generating)
    dataset = synthesize_dataset(be64, scn, prm)

    serial = grid_search(be64, ref_scenario, params, dataset, grid, workers=1)
    assert serial.argmin.params == generating
    assert serial.argmin.aad_total <= 1e-9

    parallel = grid_search(be64, ref_scenario, params, dataset, grid, workers=8)
    assert [s.aad_total for s in parallel.scores] == [s.aad_total for s in serial.scores]

    ck = tmp_path / "checkpoint.jsonl"
    with_ck = grid_search(be64, ref_scenario, params, dataset, grid,
                          workers=1, checkpoint_path=ck)
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:1 + grid.n_points // 2]) + "\n")
    resumed = grid_search(be64, ref_scenario, params, dataset, grid,
                          workers=1, checkpoint_path=ck, resume=True)
    assert [s.aad_total for s in resumed.scores] == [s.aad_total for s in with_ck.scores]
    assert resumed.argmin.params == generating
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"grid recovery took {elapsed:.1f}s"
    report(6, f"18-point sub-grid recovers the generating point at zero "
              f"deviation; 1 vs 8 workers and resume identical ({elapsed:.1f}s)")


def test_criterion_07_discretization_robustness(reference_runs):
    base = reference_runs["dt1"].aggregate_output()[0]
    series = {k: reference_runs[k].aggregate_output() for k in ("dt1", "dt05", "cont")}
    worst = 0.0
    for a, b in (("dt1", "dt05"), ("dt1", "cont"), ("dt05", "cont")):
        dev = float(np.max(np.abs(series[a] - series[b])) / base)
        worst = max(worst, dev)
        assert dev < 0.02, f"{a} vs {b}: {100 * dev:.2f}%"
    elapsed = reference_runs["elapsed"]
    assert elapsed < 30.0, f"three reference runs took {elapsed:.1f}s"
    report(7, f"dt=1 / dt=0.5 / adaptive agree pairwise within "
              f"{100 * worst:.2f}% of baseline (< 2%), runs took {elapsed:.1f}s")


def test_criterion_08_restocking_monotonicity(be64, ref_scenario):
    prolonged = replace(
        ref_scenario,
        key_dates=((date(2020, 3, 15), "lockdown_start"),
                   (date(2020, 8, 31), "lockdown_end")),
    )
    t_end = float((date(2020, 12, 31) - prolonged.start_date).days)
    cfg = IntegrationConfig()

    def run(prod_fn, tau):
        traj = simulate(be64, prolonged, BehavioralParams(prod_fn=prod_fn, tau=tau),
                        cfg, t_end)
        return traj.aggregate_output()

    weak_slow = run("weakly_critical", 30.0)
    weak_fast = run("weakly_critical", 1.0)
    strong_fast = run("strongly_critical", 1.0)
    leontief = run("leontief", 14.0)

    assert weak_slow.mean() <= weak_fast.mean()
    gap_pbl = float(np.mean(np.abs(strong_fast - weak_slow)))
    gap_leo_strong = float(np.mean(np.abs(leontief - strong_fast)))
    gap_leo_weak = float(np.mean(np.abs(leontief - weak_slow)))
    assert gap_pbl < gap_leo_strong
    assert gap_pbl < gap_leo_weak
    report(8, "slow restocking lowers time-aggregated output; strict-recipe "
              "curve sits far from both partially binding variants")


def test_criterion_09_sensitivity_ordering(be64, ref_scenario):
    t0 = time.perf_counter()
    params = BehavioralParams()
    perturbations = {
        "eps_S": {"eps_S_scale": {"dist": "uniform", "low": 0.75, "high": 1.25}},
        "b": {"b": {"dist": "uniform", "low": 0.5, "high": 1.0}},
        "rho": {"rho_quarters": {"dist": "uniform", "low": 0.1, "high": 1.0}},
        "L": {"L_share": {"dist": "uniform", "low": 0.5, "high": 1.0}},
        "delta_s": {"delta_s": {"dist": "uniform", "low": 0.5, "high": 1.0}},
    }
    widths = {}
    for name, dists in perturbations.items():
        res = monte_carlo(be64, ref_scenario, params, dists,
                          n_runs=200, seed=20210501, t_end=120.0)
        in_l1 = (res.times >= 14.0) & (res.times <= 80.0)
        trough = res.times[in_l1][np.argmin(res.bands[1, in_l1])]
        widths[name] = res.band_width(float(trough))
    for name in ("b", "rho", "L", "delta_s"):
        assert widths["eps_S"] > widths[name], (name, widths)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"Monte Carlo took {elapsed:.1f}s"
    report(9, "labor-shock uncertainty dominates every behavioral "
              f"perturbation at the first trough "
              f"({widths['eps_S']:.0f} vs max {max(widths[k] for k in widths if k != 'eps_S'):.0f}; "
              f"{elapsed:.1f}s for 5x200 runs)")


def test_criterion_10_macro_shape(reference_runs):
    traj = reference_runs["dt1"]
    output = traj.aggregate_output()
    reduction = 100.0 * (output - output[0]) / output[0]
    labels = [quarter_of(traj.date_at(t)) for t in traj.times]
    means = {}
    for q in ("2020Q2", "2020Q3", "2020Q4"):
        sel = np.asarray([lab == q for lab in labels])
        means[q] = float(reduction[sel].mean())
    assert abs(means["2020Q2"]) > abs(means["2020Q4"]) > abs(means["2020Q3"])
    report(10, "deep spring trough, partial summer recovery, shallower "
               f"autumn dip: Q2 {means['2020Q2']:.1f}%, "
               f"Q3 {means['2020Q3']:.1f}%, Q4 {means['2020Q4']:.1f}%")


@pytest.mark.skip(
    reason="criterion 11 requires the proprietary Belgian tables and "
           "indicator series; see README for the documented procedure"
)
def test_criterion_11_real_data_optimum():  # pragma: no cover
    pass
