import hashlib
import json
import math
import re
from dataclasses import fields, replace
from datetime import date

import numpy as np
import pytest

from pnetsim import (
    BehavioralParams,
    CheckpointError,
    GridSpec,
    IntegrationConfig,
    SchemaError,
    ValidationError,
    aad_vw,
    default_grid,
    grid_search,
    load_dataset,
    load_scenario,
    make_economy,
    monte_carlo,
    quarterly_average,
    score_point,
    simulate,
    total_aad,
)
from pnetsim.calibration import (
    AGGREGATE_CODE,
    GRID_AXIS_ORDER,
    SAMPLEABLE,
    EmpiricalDataset,
    apply_grid_point,
    apply_sampled,
    horizon_for,
    indicator_weights,
    load_grid,
    load_sector_mapping,
    model_quarterly,
    nace21_section,
    parse_distributions,
    quarter_end,
    quarter_of,
    save_dataset,
    scale_to_aggregate,
    synthesize_dataset,
)
from pnetsim.fixtures import (
    fixture_economy,
    reference_scenario,
    scenario_for,
    sector_mapping_path,
)

QUARTERS = ("2020Q2", "2020Q3", "2020Q4", "2021Q1")


# -- quarters ------------------------------------------------------------------

def test_quarter_labels():
    assert quarter_of(date(2020, 4, 1)) == "2020Q2"
    assert quarter_of(date(2020, 12, 31)) == "2020Q4"
    assert quarter_end("2020Q2") == date(2020, 6, 30)
    assert quarter_end("2021Q4") == date(2021, 12, 31)


def test_quarterly_average_constant_series():
    series = [(date(2020, 4, d), -10.0) for d in range(1, 20)]
    out = quarterly_average(series, QUARTERS)
    assert out == {"2020Q2": -10.0}


def test_quarterly_average_mean_of_two():
    series = [(date(2020, 5, 1), -10.0), (date(2020, 6, 1), -20.0)]
    assert quarterly_average(series, QUARTERS)["2020Q2"] == -15.0


def test_quarterly_average_daily_mean_91_days(d2, params):
    scenario = scenario_for(d2)
    traj = simulate(d2, scenario, params, IntegrationConfig(), horizon_for(scenario, QUARTERS))
    model = model_quarterly(traj, d2, None, QUARTERS)
    sel = [k for k, t in enumerate(traj.times)
           if quarter_of(traj.date_at(t)) == "2020Q2"]
    assert len(sel) == 91
    assert model["gdp"][("X1", "2020Q2")] == pytest.approx(0.0, abs=1e-9)


def test_empty_quarter_excluded():
    out = quarterly_average([(date(2020, 5, 1), -3.0)], QUARTERS)
    assert "2020Q3" not in out


# -- objective -----------------------------------------------------------------

def test_aad_perfect_fit_is_zero():
    model = {"a": -10.0, "b": -20.0}
    aad, ad = aad_vw(model, dict(model), {"a": 1.0, "b": 2.0})
    assert aad == 0.0 and ad == 0.0


def test_aad_hand_computed_case():
    weights = {"a": 110.0, "b": 100.0}
    data = {"a": -10.0, "b": -20.0}
    model = {"a": -12.0, "b": -15.0}
    aad, ad = aad_vw(model, data, weights)
    assert aad == pytest.approx((110 * 2 + 100 * 5) / 210, rel=1e-14)
    assert ad == pytest.approx((110 * -2 + 100 * 5) / 210, rel=1e-14)
    assert ad > 0  # the model is too optimistic on net


def test_aad_oracle_equivalence_randomized(rng):
    """Matches a plain-loop oracle to 1e-12; bias never exceeds accuracy."""
    for _ in range(100):
        n = int(rng.integers(1, 6))
        sectors = [f"s{k}" for k in range(n)]
        model = {s: float(rng.uniform(-50, 10)) for s in sectors}
        data = {s: float(rng.uniform(-50, 10)) for s in sectors}
        weights = {s: float(rng.uniform(0.1, 100)) for s in sectors}
        total_w = sum(weights.values())
        want_aad = sum(weights[s] * abs(data[s] - model[s]) for s in sectors) / total_w
        want_ad = sum(weights[s] * (model[s] - data[s]) for s in sectors) / total_w
        aad, ad = aad_vw(model, data, weights)
        assert abs(aad - want_aad) < 1e-12
        assert abs(ad - want_ad) < 1e-12
        assert abs(ad) <= aad + 1e-15


def test_aad_misaligned_sectors_rejected():
    with pytest.raises(ValueError):
        aad_vw({"a": 1.0}, {"b": 1.0}, {"a": 1.0, "b": 1.0})


def test_aad_zero_weights_rejected():
    with pytest.raises(ValueError):
        aad_vw({"a": 1.0}, {"a": 2.0}, {"a": 0.0})


def test_monotone_weighting_property(rng):
    for _ in range(50):
        sectors = ["a", "b", "c"]
        model = {s: float(rng.uniform(-30, 0)) for s in sectors}
        data = {s: float(rng.uniform(-30, 0)) for s in sectors}
        weights = {s: float(rng.uniform(1, 10)) for s in sectors}
        errors = {s: abs(data[s] - model[s]) for s in sectors}
        worst = max(sectors, key=errors.get)
        before, _ = aad_vw(model, data, weights)
        weights[worst] *= 2.0
        after, _ = aad_vw(model, data, weights)
        assert after >= before - 1e-12


def test_total_aad():
    cells = {("gdp", q): (4.69, 0.0) for q in QUARTERS}
    assert total_aad(cells) == pytest.approx(4.69)
    assert total_aad({("gdp", "2020Q2"): (0.0, 0.0),
                      ("b2b", "2020Q2"): (10.0, -1.0)}) == 5.0
    with pytest.raises(ValueError):
        total_aad({})


# -- dataset -------------------------------------------------------------------

def test_dataset_roundtrip(tmp_path):
    ds = EmpiricalDataset({
        "gdp": [(date(2020, 5, 15), "X1", -12.5), (date(2020, 8, 15), "X1", -6.25)],
        "employment": [(date(2020, 5, 15), "BE", -20.0)],
    })
    path = save_dataset(ds, tmp_path / "data.csv")
    again = load_dataset(path)
    assert again.indicators == ("gdp", "employment")
    assert again.observations["gdp"] == ds.observations["gdp"]


def test_dataset_rejects_unknown_indicator(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("indicator,date,sector,value_pct\nfoo,2020-05-01,X1,-1\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


@pytest.mark.parametrize("load", [load_dataset, load_grid, load_sector_mapping,
                                  load_scenario])
def test_loaders_reject_a_missing_file(tmp_path, load):
    with pytest.raises(SchemaError, match="file not found"):
        load(tmp_path / "missing.csv")


@pytest.mark.parametrize("text, message", [
    ("indicator,date,sector\ngdp,2020-05-01,X1\n", "does not match"),
    ("indicator,date,sector,value_pct\ngdp,2020-13-01,X1,-1\n", "line 2"),
], ids=["wrong-header", "bad-date"])
def test_dataset_rejects_malformed_content(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dataset_rejects_a_non_finite_value(tmp_path, value):
    path = tmp_path / "data.csv"
    path.write_text("indicator,date,sector,value_pct\n"
                    f"gdp,2020-05-01,X1,-1\ngdp,2020-05-02,X1,{value}\n")
    with pytest.raises(SchemaError, match=f"line 3: value_pct '{value}' is not finite"):
        load_dataset(path)


def test_dataset_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "indicator,date,sector,value_pct\n"
        "gdp,2020-05-01,X1,-1\ngdp,2020-05-01,X1,-2\n"
    )
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_sector_mapping_with_a_code_listed_twice_rejected(tmp_path):
    path = tmp_path / "mapping.csv"
    path.write_text("nace64,nace21\nS1,A\nS2,A\nS1,B\n")
    with pytest.raises(SchemaError) as err:
        load_sector_mapping(path)
    assert str(err.value) == f"{path}: code 'S1' listed twice"


def test_sector_mapping_file_matches_first_letter_rule():
    mapping = load_sector_mapping(sector_mapping_path())
    for code, letter in mapping.items():
        assert letter == code[0]


def test_nace21_section_prefers_the_mapping():
    assert nace21_section("C10-12") == "C"
    assert nace21_section("C10-12", {"C10-12": "Food"}) == "Food"
    assert nace21_section("G46", {"C10-12": "Food"}) == "G"


# -- model-to-indicator extraction ----------------------------------------------

def test_zero_shock_model_reductions_are_zero(d3, params):
    scenario = scenario_for(d3)
    traj = simulate(d3, scenario, params, IntegrationConfig(),
                    horizon_for(scenario, QUARTERS))
    model = model_quarterly(traj, d3, None, QUARTERS)
    for ind in ("gdp", "revenue", "employment", "b2b"):
        for value in model[ind].values():
            assert value == pytest.approx(0.0, abs=1e-9)


def test_indicator_weights(be64):
    w = indicator_weights(be64, "gdp")
    assert w["I55-56"] == float(be64.x0[be64.codes.index("I55-56")])
    w = indicator_weights(be64, "employment")
    assert w["O84"] == float(be64.l0[be64.codes.index("O84")])
    w21 = indicator_weights(be64, "b2b")
    rows = be64.Z.sum(axis=1)
    want_c = sum(float(rows[i]) for i, c in enumerate(be64.codes) if c.startswith("C"))
    assert w21["C"] == pytest.approx(want_c, rel=1e-12)


def test_b2b_aggregates_by_mapping(be64, params):
    scenario = reference_scenario()
    traj = simulate(be64, scenario, params, IntegrationConfig(), 50.0)
    mapping = {code: nace21_section(code) for code in be64.codes}
    model = model_quarterly(traj, be64, mapping, ("2020Q1", "2020Q2"))
    groups = {g for (g, _) in model["b2b"]}
    assert groups <= set(mapping.values())


# -- grid mechanics --------------------------------------------------------------

def test_default_grid_size():
    assert default_grid().n_points == 1_555_200


def test_grid_point_order_is_lexicographic():
    grid = GridSpec((("a", (1, 2)), ("b", (10, 20, 30))))
    points = [p for _, p in grid]
    assert points[0] == {"a": 1, "b": 10}
    assert points[1] == {"a": 1, "b": 20}
    assert points[3] == {"a": 2, "b": 10}
    assert grid.n_points == 6


def test_grid_json_roundtrip(tmp_path):
    grid = default_grid()
    path = tmp_path / "grid.json"
    path.write_text(grid.to_json())
    again = GridSpec.from_json(path.read_text())
    assert again == grid


def test_grid_duplicate_axis_rejected():
    with pytest.raises(ValidationError):
        GridSpec((("a", (1,)), ("a", (2,))))


def test_grid_rejects_an_empty_axis_and_an_index_out_of_range():
    with pytest.raises(ValidationError, match="'tau' has no values"):
        GridSpec((("tau", ()),))
    grid = GridSpec((("tau", (7.0, 14.0)),))
    for index in (-1, 2):
        with pytest.raises(IndexError):
            grid.point_at(index)


NOT_AN_ARRAY = "malformed grid spec: axis 'tau' values are not a JSON array"


# A string or an object as an axis's values would iterate into its
# characters or keys.
@pytest.mark.parametrize("text, message", [
    ("{not json", "malformed grid spec"),
    ('{"axes": [["tau"]]}', "malformed grid spec"),
    ('{"axes": [["tau", [7.0]]], "axes": [["l2", [28.0]]]}', "malformed grid spec"),
    ('{"axes": [["tau", "714"]]}', NOT_AN_ARRAY),
    ('{"axes": [["tau", {"7": 1, "14": 2}]]}', NOT_AN_ARRAY),
    ('{"axes": [["tau", 7.0]]}', NOT_AN_ARRAY),
], ids=["not-json", "axis-without-values", "axes-twice", "axis-string",
        "axis-object", "axis-number"])
def test_grid_file_with_malformed_content_rejected(tmp_path, text, message):
    path = tmp_path / "grid.json"
    path.write_text(text)
    with pytest.raises(SchemaError, match=message):
        load_grid(path)


def test_scale_to_aggregate(be64, ref_scenario):
    order = ref_scenario.index_for(be64.codes)
    eps = ref_scenario.eps_F_lockdown[order]
    scaled = scale_to_aggregate(eps, be64.f0, 0.10)
    agg = float(np.sum(scaled * be64.f0) / be64.f0.sum())
    assert agg == pytest.approx(0.10, rel=1e-9)
    assert np.all(scaled <= 1.0)
    with pytest.raises(ValueError):
        scale_to_aggregate(np.zeros(3), np.ones(3), 0.1)
    np.testing.assert_array_equal(
        scale_to_aggregate(np.zeros(3), np.ones(3), 0.0), np.zeros(3)
    )
    # Shocks are clipped at 1 sector by sector, so a large target falls short.
    capped = scale_to_aggregate(eps, be64.f0, 0.175)
    assert float(np.sum(capped * be64.f0) / be64.f0.sum()) == pytest.approx(
        0.17473, abs=5e-6)
    for target in (-0.05, 1.5, math.nan):
        with pytest.raises(ValidationError, match="outside"):
            scale_to_aggregate(eps, be64.f0, target)


def test_apply_grid_point_overrides(be64, ref_scenario):
    point = {
        "prod_fn": "weakly_critical",
        "eps_D_abc": 0.30,
        "eps_D_retail": 0.0,
        "eps_D_consumer_facing": 1.0,
        "eps_F_aggregate": 0.10,
        "tau": 21.0,
        "gamma_F": 14.0,
        "l2": 35.0,
    }
    scn, prm = apply_grid_point(be64, ref_scenario, BehavioralParams(), point)
    codes = scn.codes
    eps_D = scn.eps_D_lockdown
    assert eps_D[codes.index("C20")] == 0.30
    assert eps_D[codes.index("G46")] == 0.0
    assert eps_D[codes.index("I55-56")] == 1.0
    assert eps_D[codes.index("H49")] == ref_scenario.eps_D_lockdown[codes.index("H49")]
    assert scn.l2 == 35.0
    assert prm.prod_fn == "weakly_critical"
    assert prm.tau == 21.0 and prm.gamma_F == 14.0 and prm.hiring_speed == 28.0


def test_apply_grid_point_rejects_unknown_key(be64, ref_scenario):
    with pytest.raises(ValueError):
        apply_grid_point(be64, ref_scenario, BehavioralParams(), {"bogus": 1})


# -- scoring and recovery ---------------------------------------------------------

@pytest.fixture(scope="module")
def d3_setup():
    economy = fixture_economy("d3")
    eps_S = np.array([0.3, 0.1, 0.0])
    eps_D = np.array([0.2, 0.0, 0.4])
    scenario = scenario_for(
        economy,
        key_dates=((date(2020, 3, 15), "lockdown_start"),
                   (date(2020, 5, 4), "lockdown_end")),
        eps_S_L1=eps_S, eps_D_lockdown=eps_D,
    )
    return economy, scenario


def test_self_scored_dataset_is_exact(d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams(tau=14.0)
    dataset = synthesize_dataset(economy, scenario, params)
    score = score_point(economy, scenario, params, dataset)
    assert score.aad_total <= 1e-12
    assert len(score.cells) == 16
    for aad, ad in score.cells.values():
        assert abs(ad) <= aad + 1e-15


def test_sectors_the_economy_lacks_do_not_change_a_score(d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams(tau=7.0)
    dataset = synthesize_dataset(economy, scenario, BehavioralParams())
    extra = {ind: obs + [(d, "ZZ9", -50.0) for d, _, _ in obs]
             for ind, obs in dataset.observations.items()}
    plain = score_point(economy, scenario, params, dataset)
    padded = score_point(economy, scenario, params, EmpiricalDataset(extra))
    assert padded == plain and plain.aad_total > 0


def d2_without_x2_labor():
    """d2 with no labor in X2, so X2's employment baseline is 0."""
    d2 = fixture_economy("d2")
    return make_economy(codes=d2.codes, Z=d2.Z, c0=d2.c0, f0=d2.f0, l0=[55.0, 0.0],
                        n_days_inventory=d2.n_days_inventory,
                        criticality=d2.criticality, on_site=d2.on_site, x0=d2.x0)


def reference_score(economy, scenario, params, dataset, mapping):
    """The dict path: ``model_quarterly`` of the ``simulate`` trajectory,
    ``aad_vw`` on each cell's sectors that the model reports, ``total_aad``."""
    traj = simulate(economy, scenario, params, IntegrationConfig(),
                    horizon_for(scenario, QUARTERS))
    model = model_quarterly(traj, economy, mapping, QUARTERS)
    cells = {}
    for ind in dataset.indicators:
        data_q = dataset.quarterly(ind, QUARTERS)
        weights = indicator_weights(economy, ind, mapping)
        for q in QUARTERS:
            sectors = sorted(s for (s, qq) in data_q
                             if qq == q and (s, q) in model[ind] and s in weights)
            if sectors:
                cells[(ind, q)] = aad_vw({s: model[ind][(s, q)] for s in sectors},
                                         {s: data_q[(s, q)] for s in sectors},
                                         {s: weights[s] for s in sectors})
    return total_aad(cells), cells


def scoring_case(case):
    """(economy, scenario, scored params, dataset, mapping) for ``case``. The
    dataset also names a sector the economy lacks, the aggregate code and a
    quarter that is not scored."""
    if case == "d2-zero-labor":
        economy = d2_without_x2_labor()
        scenario = scenario_for(economy, eps_S_L1=np.array([0.3, 0.0]),
                                eps_D_lockdown=np.array([0.2, 0.1]))
        dataset = synthesize_dataset(economy, scenario, BehavioralParams())
        extra = {"employment": [(date(2020, 8, 15), "X2", -12.0)]}
    elif case == "d3":
        economy = fixture_economy("d3")
        scenario = scenario_for(economy, eps_S_L1=np.array([0.3, 0.1, 0.0]),
                                eps_D_lockdown=np.array([0.2, 0.0, 0.4]))
        dataset = synthesize_dataset(economy, scenario, BehavioralParams())
        extra = {}
    else:
        economy, scenario = fixture_economy("be64"), reference_scenario()
        dataset = synthesize_dataset(economy, scenario, BehavioralParams(tau=14.0))
        extra = {}
    mapping = (load_sector_mapping(sector_mapping_path())
               if case == "be64-mapping" else None)
    observations = {}
    for ind, rows in dataset.observations.items():
        first = rows[0][1]
        observations[ind] = rows + extra.get(ind, []) + [
            (date(2020, 5, 15), "ZZ9", -50.0),
            (date(2020, 5, 15), AGGREGATE_CODE, -40.0),
            (date(2021, 5, 15), first, -30.0),  # 2021Q2 is not scored
        ]
    return (economy, scenario, BehavioralParams(tau=7.0, prod_fn="half_critical"),
            EmpiricalDataset(observations), mapping)


@pytest.mark.parametrize("case", ["d2-zero-labor", "d3", "be64", "be64-mapping"])
def test_scorer_is_bitwise_the_dict_path(case):
    economy, scenario, params, dataset, mapping = scoring_case(case)
    want_total, want_cells = reference_score(economy, scenario, params, dataset,
                                             mapping)
    score = score_point(economy, scenario, params, dataset, mapping)
    assert score.cells == want_cells
    assert score.aad_total == want_total > 0


def test_a_dataset_naming_only_zero_baseline_sectors_is_refused(tmp_path):
    economy = d2_without_x2_labor()
    scenario = scenario_for(economy)
    dataset = EmpiricalDataset({"employment": [(date(2020, 5, 15), "X2", -10.0)]})
    ck = tmp_path / "ck.jsonl"
    with pytest.raises(ValidationError, match="scores no cell"):
        grid_search(economy, scenario, BehavioralParams(), dataset,
                    GridSpec((("tau", (7.0, 14.0)),)), checkpoint_path=ck)
    assert not ck.exists()
    with pytest.raises(ValidationError, match="scores no cell"):
        score_point(economy, scenario, BehavioralParams(), dataset)


def test_resume_without_a_checkpoint_is_refused(d3_setup):
    economy, scenario = d3_setup
    dataset = synthesize_dataset(economy, scenario, BehavioralParams())
    with pytest.raises(ValidationError, match="resume needs a checkpoint"):
        grid_search(economy, scenario, BehavioralParams(), dataset,
                    GridSpec((("tau", (7.0, 14.0)),)), resume=True)


def test_toy_grid_recovers_generating_point(d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    grid = GridSpec((("tau", (7.0, 14.0)), ("gamma_F", (14.0, 28.0))))
    gen = {"tau": 14.0, "gamma_F": 28.0}
    scn, prm = apply_grid_point(economy, scenario, params, gen)
    dataset = synthesize_dataset(economy, scn, prm)
    result = grid_search(economy, scenario, params, dataset, grid)
    assert result.argmin.params == gen
    assert result.argmin.aad_total <= 1e-9
    others = [s.aad_total for s in result.scores if s.params != gen]
    assert min(others) > 1e-6


def test_axis_permutation_leaves_scores_unchanged(d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    gen = {"tau": 14.0, "gamma_F": 28.0}
    scn, prm = apply_grid_point(economy, scenario, params, gen)
    dataset = synthesize_dataset(economy, scn, prm)
    grid_a = GridSpec((("tau", (7.0, 14.0)), ("gamma_F", (14.0, 28.0))))
    grid_b = GridSpec((("gamma_F", (14.0, 28.0)), ("tau", (7.0, 14.0))))
    ra = grid_search(economy, scenario, params, dataset, grid_a)
    rb = grid_search(economy, scenario, params, dataset, grid_b)
    assert ra.argmin.params == rb.argmin.params
    scores_a = {tuple(sorted(s.params.items())): s.aad_total for s in ra.scores}
    scores_b = {tuple(sorted(s.params.items())): s.aad_total for s in rb.scores}
    assert scores_a == scores_b


def test_recovery_with_noise_stays_within_one_cell(d3_setup, rng):
    economy, scenario = d3_setup
    params = BehavioralParams()
    grid = GridSpec((("tau", (7.0, 14.0, 21.0)),))
    gen = {"tau": 14.0}
    scn, prm = apply_grid_point(economy, scenario, params, gen)
    dataset = synthesize_dataset(economy, scn, prm)
    noisy = {
        ind: [(d, s, v + float(rng.normal(0.0, 0.1))) for d, s, v in rows]
        for ind, rows in dataset.observations.items()
    }
    result = grid_search(economy, scenario, params, EmpiricalDataset(noisy), grid)
    assert result.argmin.params["tau"] in (7.0, 14.0, 21.0)
    assert abs(result.argmin.params["tau"] - 14.0) <= 7.0


def test_worker_count_does_not_change_result(d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    grid = GridSpec((("tau", (7.0, 14.0)),))
    dataset = synthesize_dataset(economy, scenario, params)
    r1 = grid_search(economy, scenario, params, dataset, grid, workers=1)
    r2 = grid_search(economy, scenario, params, dataset, grid, workers=2)
    assert [s.aad_total for s in r1.scores] == [s.aad_total for s in r2.scores]
    assert r1.argmin.params == r2.argmin.params


def test_checkpoint_resume_reproduces_full_run(tmp_path, d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    grid = GridSpec((("tau", (7.0, 14.0, 21.0)), ("gamma_F", (14.0, 28.0))))
    dataset = synthesize_dataset(economy, scenario, params)
    ck = tmp_path / "ck.jsonl"
    full = grid_search(economy, scenario, params, dataset, grid,
                       checkpoint_path=ck)
    lines = ck.read_text().splitlines()
    assert len(lines) == 1 + grid.n_points
    # simulate an interruption halfway through
    ck.write_text("\n".join(lines[:4]) + "\n")
    resumed = grid_search(economy, scenario, params, dataset, grid,
                          checkpoint_path=ck, resume=True)
    assert [s.aad_total for s in resumed.scores] == [s.aad_total for s in full.scores]
    assert resumed.argmin.params == full.argmin.params


def test_rerun_without_resume_starts_the_checkpoint_afresh(tmp_path, d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    dataset = synthesize_dataset(economy, scenario, params)
    grid = GridSpec((("tau", (7.0, 14.0)),))
    ck, fresh = tmp_path / "ck.jsonl", tmp_path / "fresh.jsonl"
    grid_search(economy, scenario, params, dataset,
                GridSpec((("tau", (7.0, 14.0, 21.0)),)), checkpoint_path=ck)
    grid_search(economy, scenario, params, dataset, grid, checkpoint_path=ck)
    assert len(ck.read_text().splitlines()) == 1 + grid.n_points
    grid_search(economy, scenario, params, dataset, grid, checkpoint_path=fresh)
    assert ck.read_bytes() == fresh.read_bytes()


def test_checkpoint_grid_mismatch_rejected(tmp_path, d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    dataset = synthesize_dataset(economy, scenario, params)
    ck = tmp_path / "ck.jsonl"
    grid_search(economy, scenario, params, dataset,
                GridSpec((("tau", (7.0,)),)), checkpoint_path=ck)
    with pytest.raises(CheckpointError):
        grid_search(economy, scenario, params, dataset,
                    GridSpec((("tau", (14.0,)),)), checkpoint_path=ck,
                    resume=True)


def other_inputs(economy, scenario, params, dataset, change):
    """``grid_search``'s inputs but the grid, with the one named ``change``
    made different."""
    inputs = dict(economy=economy, scenario=scenario, params=params,
                  dataset=dataset, mapping=None)
    if change == "economy":
        inputs["economy"] = make_economy(
            codes=economy.codes, Z=economy.Z, c0=economy.c0, f0=economy.f0,
            l0=economy.l0, n_days_inventory=economy.n_days_inventory + 1.0,
            criticality=economy.criticality, on_site=economy.on_site)
    elif change == "scenario":
        inputs["scenario"] = replace(scenario, r=scenario.r / 2)
    elif change == "params":
        inputs["params"] = replace(params, delta_s=0.5)
    elif change == "dataset":  # made at another tau
        inputs["dataset"] = synthesize_dataset(economy, scenario,
                                               replace(params, tau=21.0))
    else:
        inputs["mapping"] = {"S1": "S", "S2": "S", "S3": "T"}
    return inputs


@pytest.mark.parametrize("change", ["economy", "scenario", "params", "dataset",
                                    "mapping"])
def test_resume_refuses_a_checkpoint_written_for_other_inputs(tmp_path, d3_setup,
                                                              change):
    economy, scenario = d3_setup
    params = BehavioralParams()
    dataset = synthesize_dataset(economy, scenario, params)
    grid = GridSpec((("tau", (7.0, 14.0, 21.0)),))
    ck = tmp_path / "ck.jsonl"
    grid_search(economy, scenario, params, dataset, grid, checkpoint_path=ck)
    before = ck.read_bytes()
    with pytest.raises(CheckpointError, match="written for other inputs"):
        grid_search(**other_inputs(economy, scenario, params, dataset, change),
                    grid=grid, checkpoint_path=ck, resume=True)
    assert ck.read_bytes() == before


def test_resume_refuses_a_checkpoint_of_an_earlier_version(tmp_path, d3_setup):
    economy, scenario = d3_setup
    grid = GridSpec((("tau", (7.0, 14.0)),))
    dataset = synthesize_dataset(economy, scenario, BehavioralParams())
    ck = tmp_path / "ck.jsonl"
    # Its header held the hash of the grid alone.
    grid_hash = hashlib.sha256(json.dumps([["tau", [7.0, 14.0]]]).encode()).hexdigest()
    ck.write_text(json.dumps({"grid_hash": grid_hash}) + "\n")
    with pytest.raises(CheckpointError, match="or by an earlier version"):
        grid_search(economy, scenario, BehavioralParams(), dataset, grid,
                    checkpoint_path=ck, resume=True)


class RecordingPool:
    """In-process stand-in for ``ProcessPoolExecutor``; records ``max_workers``."""

    sizes: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("rules, started", [
    (("leontief", "linear"), [2]),  # two chunks
    (("leontief",), []),  # one chunk runs serially
])
def test_grid_search_starts_no_more_workers_than_chunks(monkeypatch, d3_setup,
                                                        rules, started):
    import concurrent.futures

    from pnetsim import calibration

    economy, scenario = d3_setup
    params = BehavioralParams()
    dataset = synthesize_dataset(economy, scenario, params)
    grid = GridSpec((("prod_fn", rules), ("tau", (7.0, 14.0))))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(calibration, "_WORKER_JOB", None)  # set in-process
    pooled = grid_search(economy, scenario, params, dataset, grid, workers=64)
    assert RecordingPool.sizes == started
    serial = grid_search(economy, scenario, params, dataset, grid)
    assert pooled.scores == serial.scores


def test_chunks_group_by_key_in_first_seen_order(monkeypatch):
    from pnetsim import calibration

    monkeypatch.setattr(calibration, "CHUNK_POINTS", 2)
    got = []
    calibration._run_chunks(lambda job, chunk: (job, chunk), "job",
                            {4: "b", 0: "a", 1: "b", 2: "b", 3: "a"}, 1, got.append)
    assert got == [("job", [4, 1]), ("job", [2]), ("job", [0, 3])]


def test_the_pool_is_shut_down_when_a_record_fails(monkeypatch):
    import concurrent.futures

    from pnetsim import calibration

    exits = []

    class ExitRecordingPool(RecordingPool):
        def __exit__(self, *exc):
            exits.append(exc[0])
            return False

    def record(result):
        raise OSError("no space left on device")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ExitRecordingPool)
    monkeypatch.setattr(ExitRecordingPool, "sizes", [])
    monkeypatch.setattr(calibration, "_WORKER_JOB", None)  # set in-process
    with pytest.raises(OSError):
        calibration._run_chunks(lambda job, chunk: chunk, None, {0: "a", 1: "b"},
                                2, record)
    assert ExitRecordingPool.sizes == [2] and exits == [OSError]


@pytest.mark.parametrize("resume", [False, True])
def test_invalid_workers_leave_the_checkpoint_untouched(tmp_path, d3_setup, resume):
    # Without resume the checkpoint would be deleted; with it, the torn
    # final record would be cut off.
    economy, scenario = d3_setup
    params = BehavioralParams()
    dataset = synthesize_dataset(economy, scenario, params)
    grid = GridSpec((("tau", (7.0, 14.0)),))
    ck = tmp_path / "ck.jsonl"
    grid_search(economy, scenario, params, dataset, grid, checkpoint_path=ck)
    with ck.open("a") as fh:
        fh.write('{"index": 1, "par')
    before = ck.read_bytes()
    for workers in (0, 1.5):
        with pytest.raises(ValidationError, match=f"workers = {workers} "):
            grid_search(economy, scenario, params, dataset, grid, workers=workers,
                        checkpoint_path=ck, resume=resume)
        assert ck.read_bytes() == before


@pytest.mark.parametrize("value", [-0.05, 1.5, math.nan])
def test_grid_rejects_an_aggregate_final_demand_shock_outside_the_unit_interval(
        tmp_path, d3_setup, value):
    economy, scenario = d3_setup
    scenario = replace(scenario, eps_F_lockdown=np.array([0.1, 0.0, 0.2]))
    grid = GridSpec((("eps_F_aggregate", (0.0, value)),))
    ck = tmp_path / "ck.jsonl"
    ck.write_bytes(b'{"grid_hash": "from an earlier grid"}\n')
    with pytest.raises(ValidationError, match="eps_F_aggregate"):
        grid_search(economy, scenario, BehavioralParams(), EmpiricalDataset({}),
                    grid, checkpoint_path=ck)
    assert ck.read_bytes() == b'{"grid_hash": "from an earlier grid"}\n'


def test_checkpoint_with_an_unterminated_header_is_rejected(tmp_path, d3_setup):
    economy, scenario = d3_setup
    grid = GridSpec((("tau", (7.0, 14.0)),))
    ck = tmp_path / "ck.jsonl"
    ck.write_text(json.dumps({"inputs_hash": "a hash"}))
    dataset = synthesize_dataset(economy, scenario, BehavioralParams())
    with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
        grid_search(economy, scenario, BehavioralParams(), dataset,
                    grid, checkpoint_path=ck, resume=True)


def test_leaderboard_export(tmp_path, d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    grid = GridSpec((("tau", (7.0, 14.0)),))
    dataset = synthesize_dataset(economy, scenario, params)
    result = grid_search(economy, scenario, params, dataset, grid)
    lb = result.write_leaderboard(tmp_path / "leaderboard.csv")
    lines = lb.read_text().splitlines()
    assert lines[0] == "rank,grid_index,aad_total,tau"
    assert len(lines) == 3
    cells = result.write_optimum_cells(tmp_path / "cells.csv")
    assert cells.read_text().startswith("indicator,quarter,aad_vw,ad_vw")


# -- Monte Carlo -------------------------------------------------------------------

def test_monte_carlo_degenerate_distributions_collapse_band(d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    dists = {"tau": {"dist": "fixed", "value": 14.0}}
    res = monte_carlo(economy, scenario, params, dists, n_runs=5, seed=7,
                      t_end=60.0)
    assert np.allclose(res.bands[0], res.bands[-1])
    single = simulate(economy, scenario, params, IntegrationConfig(), 60.0)
    np.testing.assert_allclose(res.bands[1], single.aggregate_output(), rtol=1e-12)


def test_monte_carlo_seed_reproducibility(d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    dists = {"tau": {"dist": "normal", "mean": 14.0, "sd": 2.0, "min": 1.0}}
    a = monte_carlo(economy, scenario, params, dists, n_runs=8, seed=42, t_end=40.0)
    b = monte_carlo(economy, scenario, params, dists, n_runs=8, seed=42, t_end=40.0)
    np.testing.assert_array_equal(a.bands, b.bands)
    c = monte_carlo(economy, scenario, params, dists, n_runs=8, seed=43, t_end=40.0)
    assert not np.array_equal(a.bands, c.bands)


def test_monte_carlo_single_run_band_is_trajectory(d3_setup):
    economy, scenario = d3_setup
    params = BehavioralParams()
    dists = {"l2": {"dist": "uniform", "low": 28.0, "high": 56.0}}
    res = monte_carlo(economy, scenario, params, dists, n_runs=1, seed=3,
                      t_end=40.0)
    assert np.array_equal(res.bands[0], res.bands[1])
    assert np.array_equal(res.bands[1], res.bands[2])


@pytest.mark.parametrize("change, message", [
    ({"observable": "wages"}, "unknown observable 'wages'"),
    ({"seed": -1}, "seed = -1"),
    ({"seed": 1.5}, "seed = 1.5"),
    ({"n_runs": 0}, "n_runs = 0 must be an integer, at least 1"),
    ({"n_runs": 2.5}, "n_runs = 2.5 must be an integer, at least 1"),
], ids=["unknown-observable", "negative-seed", "fractional-seed", "no-runs",
        "fractional-runs"])
def test_monte_carlo_rejects_invalid_input(d3_setup, change, message):
    economy, scenario = d3_setup
    kwargs = {"n_runs": 2, "seed": 1, "t_end": 20.0, **change}
    with pytest.raises(ValidationError, match=message):
        monte_carlo(economy, scenario, BehavioralParams(),
                    {"tau": {"dist": "fixed", "value": 14.0}}, **kwargs)


def test_monte_carlo_refuses_an_infinite_ramp_draw_before_any_run(
        d3_setup, monkeypatch):
    from pnetsim import calibration
    economy, scenario = d3_setup
    monkeypatch.setattr(calibration, "_run_chunks", None)  # no run may start
    with pytest.raises(ValidationError, match="must be finite and positive"):
        monte_carlo(economy, scenario, BehavioralParams(),
                    {"l2": {"dist": "fixed", "value": math.inf}},
                    n_runs=2, seed=1, t_end=20.0)


@pytest.mark.parametrize("spec, message", [
    ({"dist": "uniform", "low": 2.0, "high": 1.0}, "empty uniform range"),
    (14.0, "spec must be a JSON object"),
], ids=["empty-uniform-range", "not-an-object"])
def test_parse_distributions_rejects_malformed_specs(spec, message):
    with pytest.raises(ValidationError, match=f"tau: {message}"):
        parse_distributions({"tau": spec})


def test_parse_distributions_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        parse_distributions({"nonsense": {"dist": "fixed", "value": 1.0}})
    with pytest.raises(ValueError):
        parse_distributions({"tau": {"dist": "cauchy"}})


def test_grid_points_and_draws_overlay_shared_names_alike(be64, ref_scenario):
    params = BehavioralParams()
    shared = {"tau": 21.0, "gamma_F": 7.0, "l2": 35.0}
    scn_g, prm_g = apply_grid_point(be64, ref_scenario, params, shared)
    scn_s, prm_s = apply_sampled(ref_scenario, params, shared)
    assert prm_g == prm_s == replace(params, tau=21.0, gamma_F=7.0)
    for field in fields(ref_scenario):
        a, b = getattr(scn_g, field.name), getattr(scn_s, field.name)
        assert np.array_equal(a, b), field.name
    assert scn_g.l2 == 35.0
    for name in set(SAMPLEABLE) - set(GRID_AXIS_ORDER):
        with pytest.raises(ValidationError, match=re.escape(repr([name]))):
            apply_grid_point(be64, ref_scenario, params, {name: 0.5})
    for name in set(GRID_AXIS_ORDER) - set(SAMPLEABLE):
        with pytest.raises(ValidationError, match=re.escape(repr(name))):
            apply_sampled(ref_scenario, params, {name: 0.5})


def test_apply_sampled_conversions(ref_scenario):
    params = BehavioralParams()
    scn, prm = apply_sampled(ref_scenario, params,
                             {"rho_quarters": 0.6, "eps_S_scale": 2.0, "b": 0.5})
    assert prm.rho == pytest.approx(1.0 - 0.4 / 90.0)
    assert np.all(scn.eps_S_L1 <= 1.0)
    assert scn.eps_S_L1[list(scn.codes).index("I55-56")] == 1.0  # clipped
    assert scn.b == 0.5


@pytest.mark.parametrize("sample", [
    {"eps_S_scale": -1.0}, {"eps_S_scale": math.nan},
    {"rho_quarters": 1.5}, {"rho_quarters": -0.1}, {"rho_quarters": math.nan},
], ids=["scale-negative", "scale-nan", "rho-above-one", "rho-negative", "rho-nan"])
def test_apply_sampled_rejects_out_of_range_draws(ref_scenario, sample):
    (name,) = sample
    with pytest.raises(ValidationError, match=f"{name} = "):
        apply_sampled(ref_scenario, BehavioralParams(), sample)


def test_apply_sampled_accepts_the_ends_of_the_ranges(ref_scenario):
    scn, prm = apply_sampled(ref_scenario, BehavioralParams(),
                             {"eps_S_scale": 0.0, "rho_quarters": 1.0})
    assert not scn.eps_S_L1.any() and not scn.eps_S_L2.any()
    assert prm.rho == 1.0 - 1e-12
    _, prm = apply_sampled(ref_scenario, BehavioralParams(), {"rho_quarters": 0.0})
    assert prm.rho == 1.0 - 1.0 / 90.0


def test_normal_sampler_truncates_at_floor(rng):
    sampler = parse_distributions(
        {"tau": {"dist": "normal", "mean": 1.0, "sd": 5.0, "min": 1.0}}
    )["tau"]
    draws = [sampler(rng) for _ in range(200)]
    assert min(draws) >= 1.0
