import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from pnetsim import (
    ValidationError,
    aggregate_shock,
    load_scenario,
    on_site_release,
    save_scenario,
)
from pnetsim.shocks import ShockSchedule
from pnetsim import belgium


def day(scenario, iso):
    return scenario.day(date.fromisoformat(iso))


# -- on-site release curve ---------------------------------------------------

def test_release_endpoints_exact():
    assert on_site_release(0.80, 0.0, 42.0) == 0.80
    assert on_site_release(0.80, 42.0, 42.0) == 0.0


def test_release_midpoint_value():
    expected = 0.80 * math.log(50.5) / math.log(100.0)
    assert abs(on_site_release(0.80, 21.0, 42.0) - expected) < 1e-15


def test_release_monotone_decreasing():
    values = [on_site_release(0.8, t, 42.0) for t in np.linspace(0, 42, 200)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_release_rejects_out_of_range():
    with pytest.raises(ValueError):
        on_site_release(0.8, -0.1, 42.0)
    with pytest.raises(ValueError):
        on_site_release(0.8, 42.1, 42.0)


# -- aggregate shock ---------------------------------------------------------

def test_aggregate_shock_constant_vector():
    assert aggregate_shock([0.25, 0.25, 0.25], [1.0, 7.0, 2.0]) == pytest.approx(0.25)


def test_aggregate_shock_symmetry():
    assert aggregate_shock([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.5)


def test_aggregate_shock_zero_weights_rejected():
    with pytest.raises(ValueError):
        aggregate_shock([0.5], [0.0])
    with pytest.raises(ValueError):
        aggregate_shock([0.5, 0.5], [1.0, -1.0])


def test_reference_aggregates_match_published_values(be64, ref_scenario):
    # lockdown-plateau aggregates: ~25% labor, ~17% household demand
    order = ref_scenario.index_for(be64.codes)
    labor = aggregate_shock(ref_scenario.eps_S_L1[order], be64.l0)
    household = aggregate_shock(ref_scenario.eps_D_lockdown[order], be64.c0)
    assert abs(labor - 0.25) < 0.03
    assert abs(household - 0.17) < 0.03


# -- schedule evaluation -----------------------------------------------------

def test_epoch_is_shock_free(be64, ref_scenario):
    sample = ShockSchedule(ref_scenario, be64).at(0.0)
    assert np.all(sample.eps_S == 0.0)
    assert np.all(sample.eps_D == 0.0)
    assert np.all(sample.eps_F == 0.0)
    assert sample.b == ref_scenario.b


def test_negative_time_rejected(be64, ref_scenario):
    with pytest.raises(ValueError):
        ShockSchedule(ref_scenario, be64).at(-1.0)


def test_first_lockdown_plateau_values(be64, ref_scenario):
    t = day(ref_scenario, "2020-04-15")  # mid-L1, past the 7-day ramp
    sample = ShockSchedule(ref_scenario, be64).at(t)
    i = be64.sectors.position("I55-56")
    assert sample.eps_D[i] == pytest.approx(0.80, abs=1e-12)
    assert sample.eps_S[i] == pytest.approx(0.925, abs=1e-12)
    assert sample.eps_F[i] == pytest.approx(0.80, abs=1e-12)


def test_second_lockdown_uses_its_own_labor_shocks(be64, ref_scenario):
    t = day(ref_scenario, "2020-11-10")  # inside L2, past the ramp
    sample = ShockSchedule(ref_scenario, be64).at(t)
    i = be64.sectors.position("I55-56")
    assert sample.eps_S[i] == pytest.approx(0.70, abs=1e-12)
    assert sample.eps_D[i] == pytest.approx(0.80, abs=1e-12)


def test_labor_zero_between_lockdowns_and_during_light(be64, ref_scenario):
    for iso in ("2020-08-01", "2021-02-01"):
        sample = ShockSchedule(ref_scenario, be64).at(day(ref_scenario, iso))
        assert np.all(sample.eps_S == 0.0), iso


def test_between_lockdowns_sits_at_residual_level(be64, ref_scenario):
    t = day(ref_scenario, "2020-08-01")  # release done, before L2
    sample = ShockSchedule(ref_scenario, be64).at(t)
    order = ref_scenario.index_for(be64.codes)
    np.testing.assert_allclose(
        sample.eps_D, ref_scenario.r * ref_scenario.eps_D_lockdown[order],
        rtol=0, atol=1e-12,
    )


def test_full_recovery_when_ratio_zero(be64, ref_scenario):
    scenario = replace(ref_scenario, r=0.0)
    sample = ShockSchedule(scenario, be64).at(day(scenario, "2020-08-01"))
    assert np.all(sample.eps_D == 0.0)
    assert np.all(sample.eps_F == 0.0)


def test_lockdown_light_scaling_property(be64, ref_scenario):
    # during the light plateau the demand shock equals r times the lockdown one
    t = day(ref_scenario, "2021-03-01")
    sample = ShockSchedule(ref_scenario, be64).at(t)
    order = ref_scenario.index_for(be64.codes)
    np.testing.assert_allclose(
        sample.eps_D, ref_scenario.r * ref_scenario.eps_D_lockdown[order],
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        sample.eps_F, ref_scenario.r * ref_scenario.eps_F_lockdown[order],
        rtol=0, atol=1e-12,
    )


def test_after_final_release_everything_is_zero(be64, ref_scenario):
    sample = ShockSchedule(ref_scenario, be64).at(day(ref_scenario, "2021-08-01"))
    for vec in (sample.eps_S, sample.eps_D, sample.eps_F):
        assert np.all(vec == 0.0)


def test_bounds_everywhere(be64, ref_scenario):
    schedule = ShockSchedule(ref_scenario, be64)
    for t in np.linspace(0.0, 550.0, 1101):
        sample = schedule.at(float(t))
        for vec in (sample.eps_S, sample.eps_D, sample.eps_F):
            assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


def test_hold_spans_keep_at_values_and_exclude_ramps(be64, ref_scenario):
    schedule = ShockSchedule(ref_scenario, be64)

    def span_of(t):
        return next((s for s in schedule.holds if s[0] <= t < s[1]), None)

    for t in (0.0, 30.0, day(ref_scenario, "2020-04-15")):
        t0, _ = span_of(t)
        held, at = schedule.at(t0), schedule.at(t)
        for name in ("eps_S", "eps_D", "eps_F"):
            assert np.array_equal(getattr(held, name), getattr(at, name))
        assert held.b == at.b
    ramp = day(ref_scenario, "2020-03-18")  # inside the 7-day L1 entry ramp
    assert span_of(ramp) is None
    ends = {t for span in schedule.holds for t in span if 0.0 < t < math.inf}
    assert ends <= set(schedule.breakpoints.tolist())
    with pytest.raises(ValueError):
        schedule.at(-1.0)


def test_continuity_no_jump_beyond_ramp_slope(be64, ref_scenario):
    schedule = ShockSchedule(ref_scenario, be64)
    dt = 0.25
    # steepest admissible slope: the log release near its end
    log_slope = 99.0 / (math.log(100.0) * ref_scenario.l2)
    bound = max(1.0 / ref_scenario.l1, log_slope) * dt * 1.0 + 1e-9
    prev = schedule.at(0.0)
    for t in np.arange(dt, 550.0, dt):
        cur = schedule.at(float(t))
        for a, b in ((prev.eps_S, cur.eps_S), (prev.eps_D, cur.eps_D),
                     (prev.eps_F, cur.eps_F)):
            assert np.max(np.abs(b - a)) <= bound, t
        prev = cur


def test_on_site_release_monotone_after_lockdown(be64, ref_scenario):
    schedule = ShockSchedule(ref_scenario, be64)
    t0 = day(ref_scenario, "2020-05-04")
    on_site = schedule.on_site
    prev = schedule.at(t0).eps_D
    for t in np.linspace(t0, t0 + ref_scenario.l2, 100)[1:]:
        cur = schedule.at(float(t)).eps_D
        assert np.all(cur[on_site] <= prev[on_site] + 1e-12)
        prev = cur


def test_on_site_release_slower_than_linear(be64, ref_scenario):
    # halfway through the release, on-site sectors retain more of the shock
    scenario = replace(ref_scenario, r=0.0)
    schedule = ShockSchedule(scenario, be64)
    t = day(scenario, "2020-05-04") + scenario.l2 / 2.0
    sample = schedule.at(t)
    i = be64.sectors.position("I55-56")   # on-site
    j = be64.sectors.position("G46")      # not on-site
    order = scenario.index_for(be64.codes)
    frac_on = sample.eps_D[i] / scenario.eps_D_lockdown[order][i]
    frac_off = sample.eps_D[j] / scenario.eps_D_lockdown[order][j]
    assert frac_off == pytest.approx(0.5, abs=1e-9)
    assert frac_on > 0.65


def test_ramp_in_is_linear(be64, ref_scenario):
    t_start = day(ref_scenario, "2020-03-15")
    i = be64.sectors.position("I55-56")
    half = ShockSchedule(ref_scenario, be64).at(t_start + 3.5).eps_S[i]
    assert half == pytest.approx(0.925 / 2.0, abs=1e-12)


# -- scenario construction and IO -------------------------------------------

def test_scenario_requires_increasing_dates(be64, ref_scenario):
    with pytest.raises(ValidationError):
        replace(ref_scenario, key_dates=tuple(reversed(ref_scenario.key_dates)))


def test_scenario_rejects_out_of_range_magnitudes(ref_scenario):
    bad = np.array(ref_scenario.eps_D_lockdown)
    bad[0] = 1.5
    with pytest.raises(ValidationError):
        replace(ref_scenario, eps_D_lockdown=bad)


def test_scenario_rejects_unclosed_phase(ref_scenario, be64):
    scenario = replace(
        ref_scenario,
        key_dates=((date(2020, 3, 15), "lockdown_start"),),
    )
    with pytest.raises(ValidationError):
        ShockSchedule(scenario, be64)


def test_scenario_roundtrip(tmp_path, ref_scenario):
    path = save_scenario(ref_scenario, tmp_path / "scenario.json")
    again = load_scenario(path)
    assert again.key_dates == ref_scenario.key_dates
    assert again.codes == ref_scenario.codes
    np.testing.assert_array_equal(again.eps_S_L1, ref_scenario.eps_S_L1)
    np.testing.assert_array_equal(again.eps_D_lockdown, ref_scenario.eps_D_lockdown)
    assert again.r == ref_scenario.r and again.b == ref_scenario.b
    assert again.l1 == ref_scenario.l1 and again.l2 == ref_scenario.l2


def test_evaluate_aligns_to_economy_order(be64, ref_scenario):
    shuffled = tuple(reversed(ref_scenario.codes))
    pos = {c: i for i, c in enumerate(ref_scenario.codes)}
    perm = [pos[c] for c in shuffled]
    scenario = replace(
        ref_scenario,
        codes=shuffled,
        eps_S_L1=ref_scenario.eps_S_L1[perm],
        eps_S_L2=ref_scenario.eps_S_L2[perm],
        eps_D_lockdown=ref_scenario.eps_D_lockdown[perm],
        eps_F_lockdown=ref_scenario.eps_F_lockdown[perm],
        on_site=ref_scenario.on_site[perm],
    )
    t = day(ref_scenario, "2020-04-15")
    a = ShockSchedule(ref_scenario, be64).at(t)
    b = ShockSchedule(scenario, be64).at(t)
    np.testing.assert_array_equal(a.eps_D, b.eps_D)
    np.testing.assert_array_equal(a.eps_S, b.eps_S)


def test_missing_sector_rejected(be64, ref_scenario):
    scenario = replace(
        ref_scenario,
        codes=ref_scenario.codes[:-1],
        eps_S_L1=ref_scenario.eps_S_L1[:-1],
        eps_S_L2=ref_scenario.eps_S_L2[:-1],
        eps_D_lockdown=ref_scenario.eps_D_lockdown[:-1],
        eps_F_lockdown=ref_scenario.eps_F_lockdown[:-1],
        on_site=ref_scenario.on_site[:-1],
    )
    with pytest.raises(ValidationError):
        ShockSchedule(scenario, be64).at(0.0)


def test_reference_key_dates_match_timeline(ref_scenario):
    assert ref_scenario.key_dates == belgium.KEY_DATES
    assert ref_scenario.start_date == date(2020, 3, 1)
    assert day(ref_scenario, "2020-03-15") == 14.0
