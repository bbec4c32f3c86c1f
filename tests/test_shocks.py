import json
import math
import re
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest

from pnetsim import (
    BehavioralParams,
    IntegrationConfig,
    SchemaError,
    ValidationError,
    aggregate_shock,
    load_economy,
    load_scenario,
    on_site_release,
    save_scenario,
    simulate,
)
from pnetsim.cli import main
from pnetsim.fixtures import fixture_paths, scenario_for
from pnetsim.integrate import _kinks
from pnetsim.shocks import ShockSchedule

from golden.gen_fixtures import KEY_DATES


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


def test_negative_time_rejected(be64, ref_scenario):
    with pytest.raises(ValueError):
        ShockSchedule(ref_scenario, be64).at(-1.0)


def test_first_lockdown_plateau_values(be64, ref_scenario):
    t = day(ref_scenario, "2020-04-15")  # mid-L1, past the 7-day ramp
    sample = ShockSchedule(ref_scenario, be64).at(t)
    i = be64.codes.index("I55-56")
    assert sample.eps_D[i] == pytest.approx(0.80, abs=1e-12)
    assert sample.eps_S[i] == pytest.approx(0.925, abs=1e-12)
    assert sample.eps_F[i] == pytest.approx(0.80, abs=1e-12)


def test_second_lockdown_uses_its_own_labor_shocks(be64, ref_scenario):
    t = day(ref_scenario, "2020-11-10")  # inside L2, past the ramp
    sample = ShockSchedule(ref_scenario, be64).at(t)
    i = be64.codes.index("I55-56")
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
    ramp = day(ref_scenario, "2020-03-18")  # inside the 7-day L1 entry ramp
    assert span_of(ramp) is None
    ends = {t for span in schedule.holds for t in span if 0.0 < t < math.inf}
    assert ends <= set(schedule.breakpoints.tolist())
    with pytest.raises(ValueError):
        schedule.at(-1.0)


# Phases that start while the previous ramp still runs (l1 = 7, l2 = 42).
CUT_RAMPS = {
    "reference": None,
    "lockdown_16_days_into_the_release": (
        ("2020-03-15", "lockdown_start"), ("2020-05-04", "lockdown_end"),
        ("2020-05-20", "lockdown_start"), ("2020-06-30", "lockdown_end")),
    "lockdown_shorter_than_l1": (
        ("2020-03-15", "lockdown_start"), ("2020-03-19", "lockdown_end")),
    "light_phase_ends_in_its_entry_ramp": (
        ("2020-03-15", "lockdown_start"), ("2020-04-15", "lockdown_light_start"),
        ("2020-05-01", "lockdown_light_end")),
}


def cut_ramps(schedule):
    return [seg for seg in schedule._segments
            if not seg.is_hold and seg.t1 < seg.t0 + seg.dur]


@pytest.mark.parametrize("case", CUT_RAMPS)
def test_at_is_bitwise_a_row_of_table(be64, ref_scenario, case):
    scenario = ref_scenario
    if CUT_RAMPS[case] is not None:
        scenario = replace(ref_scenario, key_dates=tuple(
            (date.fromisoformat(d), event) for d, event in CUT_RAMPS[case]))
    schedule = ShockSchedule(scenario, be64)
    assert bool(cut_ramps(schedule)) == (case != "reference")
    times, styles = [], set()
    for seg in schedule._segments:
        end = min(seg.t1, seg.t0 + 60.0)
        inside = [seg.t0, math.nextafter(seg.t0, math.inf),
                  seg.t0 + 0.37 * (end - seg.t0), math.nextafter(end, -math.inf)]
        if math.isfinite(seg.t1):
            inside.append(seg.t1)  # a ramp's end: where the next segment starts
        times += inside
        styles.add(seg.style)
    assert styles == {"hold", "linear", "release"}
    table = schedule.table(times)  # every segment at once: the masked rows
    for k, t in enumerate(times):
        one, row = schedule.at(t), schedule.table([t])
        for name in ("eps_S", "eps_D", "eps_F"):
            got = getattr(one, name)
            assert got.shape == (len(schedule.codes),)
            assert got.tobytes() == getattr(row, name)[0].tobytes(), (t, name)
            assert got.tobytes() == getattr(table, name)[k].tobytes(), (t, name)


def random_key_dates(rng, start):
    """One to four phases with lengths and gaps of 1 to 79 days; a light
    phase may start the moment a lockdown ends."""
    events, t = [], int(rng.integers(0, 30))
    for k in range(int(rng.integers(1, 5))):
        light = bool(rng.random() < 0.4)
        if light and events and events[-1][1] == "lockdown_end" and rng.random() < 0.5:
            t = events.pop()[0]
        elif k:
            t += int(rng.integers(1, 80))
        events.append((t, "lockdown_light_start" if light else "lockdown_start"))
        t += int(rng.integers(1, 80))
        events.append((t, "lockdown_light_end" if light else "lockdown_end"))
    return tuple((start + timedelta(days=d), event) for d, event in events)


def test_random_phase_sequences_tile_and_keep_their_kinks(be64, ref_scenario):
    rng = np.random.default_rng(16)
    with_cuts = 0
    for _ in range(300):
        scenario = replace(
            ref_scenario, key_dates=random_key_dates(rng, ref_scenario.start_date),
            l1=float(rng.uniform(0.5, 30.0)), l2=float(rng.uniform(0.5, 90.0)))
        schedule = ShockSchedule(scenario, be64)
        segs = schedule._segments
        assert segs[0].t0 == 0.0 and segs[-1].t1 == math.inf
        for seg, nxt in zip(segs, segs[1:]):
            assert seg.t0 < seg.t1 == nxt.t0
            # The next segment starts from where this one stands.
            here = (seg.to if seg.is_hold else
                    [v[0] for v in seg._ramp(np.array([nxt.t0]))])
            for v, w in zip(here, nxt.frm):
                np.testing.assert_allclose(v, w, rtol=0, atol=1e-12)
        ends = sorted(seg.t1 for seg in segs if math.isfinite(seg.t1))
        assert schedule.breakpoints.tolist() == ends
        t_end = float(rng.uniform(1.0, 400.0))
        if 0.0 < schedule.pandemic_start < t_end:
            assert schedule.pandemic_start in _kinks(schedule, t_end)
        with_cuts += bool(cut_ramps(schedule))
    assert with_cuts > 100


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
    i = be64.codes.index("I55-56")   # on-site
    j = be64.codes.index("G46")      # not on-site
    order = scenario.index_for(be64.codes)
    frac_on = sample.eps_D[i] / scenario.eps_D_lockdown[order][i]
    frac_off = sample.eps_D[j] / scenario.eps_D_lockdown[order][j]
    assert frac_off == pytest.approx(0.5, abs=1e-9)
    assert frac_on > 0.65


def test_schedule_release_is_on_site_release(be64, ref_scenario):
    # One lockdown only, so its release runs down to zero.
    scenario = replace(ref_scenario, key_dates=ref_scenario.key_dates[:2])
    schedule = ShockSchedule(scenario, be64)
    t_end = day(scenario, "2020-05-04")
    eps_D = scenario.eps_D_lockdown[scenario.index_for(be64.codes)]
    on_site = np.flatnonzero(schedule.on_site)
    assert on_site.size
    l2 = scenario.l2
    for t_rel in (0.0, l2 / 4.0, l2 / 2.0, l2):
        sample = schedule.at(t_end + t_rel)
        for i in on_site:
            want = on_site_release(eps_D[i], t_rel, l2)
            assert abs(sample.eps_D[i] - want) <= 1e-15, (t_rel, be64.codes[i])


def test_economy_on_site_flags_drive_the_release(tmp_path, d3):
    # S2 is d3's one on-site sector; turning it off through the override
    # file must change a run with an S2 demand shock.
    scenario = scenario_for(d3, eps_D_lockdown=np.array([0.0, 0.6, 0.0]))
    off = tmp_path / "on_site.csv"
    off.write_text("code,on_site\nS1,0\nS2,0\nS3,0\n")
    p = fixture_paths("d3")
    flagged = load_economy(p["io_table"], p["initial_states"], p["criticality"])
    unflagged = load_economy(p["io_table"], p["initial_states"],
                             p["criticality"], on_site_path=off)
    assert flagged.on_site.tolist() == [False, True, False]
    assert not unflagged.on_site.any()
    np.testing.assert_array_equal(ShockSchedule(scenario, unflagged).on_site,
                                  unflagged.on_site)
    runs = [simulate(e, scenario, BehavioralParams(), IntegrationConfig(), 200.0)
            for e in (flagged, unflagged)]
    assert not np.array_equal(runs[0].series(lambda s: s.x),
                              runs[1].series(lambda s: s.x))


def test_ramp_in_is_linear(be64, ref_scenario):
    t_start = day(ref_scenario, "2020-03-15")
    i = be64.codes.index("I55-56")
    half = ShockSchedule(ref_scenario, be64).at(t_start + 3.5).eps_S[i]
    assert half == pytest.approx(0.925 / 2.0, abs=1e-12)


# -- scenario construction and IO -------------------------------------------

def test_scenario_requires_increasing_dates(be64, ref_scenario):
    with pytest.raises(ValidationError):
        replace(ref_scenario, key_dates=tuple(reversed(ref_scenario.key_dates)))


def test_scenario_rejects_out_of_range_magnitudes(tmp_path, ref_scenario):
    bad = np.array(ref_scenario.eps_D_lockdown)
    bad[0] = 1.5
    with pytest.raises(ValidationError):
        replace(ref_scenario, eps_D_lockdown=bad)
    # A file that parses but holds such a value is invalid, not malformed.
    path = save_scenario(ref_scenario, tmp_path / "scenario.json")
    doc = json.loads(path.read_text())
    doc["shocks"][ref_scenario.codes[0]]["eps_D"] = 1.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="eps_D_lockdown"):
        load_scenario(path)


def test_scenario_rejects_unclosed_phase(ref_scenario, be64):
    scenario = replace(
        ref_scenario,
        key_dates=((date(2020, 3, 15), "lockdown_start"),),
    )
    with pytest.raises(ValidationError):
        ShockSchedule(scenario, be64)


@pytest.mark.parametrize("change, message", [
    ({"eps_S_L1": np.zeros(3)}, "eps_S_L1 has shape"),
    ({"r": 1.5}, "r = 1.5 outside"),
    ({"l1": 0.0}, "ramp lengths"),
    ({"l1": math.inf}, "ramp lengths l1 and l2 must be finite"),
    ({"l2": math.inf}, "ramp lengths l1 and l2 must be finite"),
    ({"l1": math.nan}, "ramp lengths l1 and l2 must be finite"),
    ({"l2": math.nan}, "ramp lengths l1 and l2 must be finite"),
    ({"key_dates": ((date(2020, 3, 15), "curfew_start"),)}, "unknown event"),
    ({"key_dates": ((date(2020, 2, 1), "lockdown_start"),)}, "precedes start date"),
], ids=["vector-shape", "r-above-one", "l1-zero", "l1-inf", "l2-inf", "l1-nan",
        "l2-nan", "unknown-event", "key-date-before-start"])
def test_scenario_rejects_invalid_fields(ref_scenario, change, message):
    with pytest.raises(ValidationError, match=message):
        replace(ref_scenario, **change)


@pytest.mark.parametrize("events, message", [
    (("lockdown_start", "lockdown_start"), "lockdown_start on .* open phase"),
    (("lockdown_light_start", "lockdown_light_start"),
     "lockdown_light_start on .* open phase"),
    (("lockdown_start", "lockdown_light_end"), "without an open light phase"),
    (("lockdown_end",), "lockdown_end on .* without an open lockdown"),
    (("lockdown_light_start", "lockdown_end"), "without an open lockdown"),
    (("lockdown_light_start", "lockdown_start"), "lockdown_start on .* open phase"),
], ids=["lockdown-inside-lockdown", "light-inside-light", "light-end-without-light",
        "lockdown-end-first", "lockdown-end-inside-light", "lockdown-inside-light"])
def test_phases_reject_misplaced_events(be64, ref_scenario, events, message):
    key_dates = tuple((date(2020, 3, 15) + timedelta(days=30 * k), event)
                      for k, event in enumerate(events))
    with pytest.raises(ValidationError, match=message):
        ShockSchedule(replace(ref_scenario, key_dates=key_dates), be64)


@pytest.mark.parametrize("text, message", [
    ("{not json", "invalid JSON"),
    ('{"start_date": "2020-03-01"}', "malformed scenario"),
    ('{"start_date": "2020-03-01", "start_date": "2020-03-02"}',
     "key 'start_date' listed twice"),
], ids=["not-json", "no-key-dates", "key-listed-twice"])
def test_scenario_file_with_malformed_content_rejected(tmp_path, text, message):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        load_scenario(path)


def test_scenario_roundtrip(tmp_path, ref_scenario):
    path = save_scenario(ref_scenario, tmp_path / "scenario.json")
    again = load_scenario(path)
    assert again.key_dates == ref_scenario.key_dates
    assert again.codes == ref_scenario.codes
    np.testing.assert_array_equal(again.eps_S_L1, ref_scenario.eps_S_L1)
    np.testing.assert_array_equal(again.eps_D_lockdown, ref_scenario.eps_D_lockdown)
    assert again.r == ref_scenario.r and again.b == ref_scenario.b
    assert again.l1 == ref_scenario.l1 and again.l2 == ref_scenario.l2


def test_scenario_with_on_site_flags_rejected(tmp_path, ref_scenario, capsys):
    path = save_scenario(ref_scenario, tmp_path / "scenario.json")
    doc = json.loads(path.read_text())
    doc["shocks"]["I55-56"]["on_site"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="on_site"):
        load_scenario(path)
    assert main(["simulate", "--fixture", "be64", "--scenario", str(path),
                 "--days", "5", "--out", str(tmp_path / "run")]) == 1
    assert "--on-site" in capsys.readouterr().err


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
    )
    last = ref_scenario.codes[-1]
    with pytest.raises(ValidationError, match=re.escape(f"missing ['{last}']")):
        ShockSchedule(scenario, be64).at(0.0)
    with pytest.raises(ValidationError, match=re.escape(f"extra ['{last}']")):
        ref_scenario.index_for(be64.codes[:-1])


def test_reference_key_dates_match_timeline(ref_scenario):
    assert ref_scenario.key_dates == KEY_DATES
    assert ref_scenario.start_date == date(2020, 3, 1)
    assert day(ref_scenario, "2020-03-15") == 14.0
