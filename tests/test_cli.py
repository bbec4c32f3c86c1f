import csv
import json
from dataclasses import replace
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

from pnetsim import (
    GridSpec, BehavioralParams, calibration, dynamics, integrate, load_scenario,
    save_scenario, write_economy,
)
from pnetsim.calibration import apply_grid_point, save_dataset, synthesize_dataset
from pnetsim.cli import main
from pnetsim.fixtures import (
    fixture_economy, reference_scenario_path, scenario_for, sector_mapping_path,
)


@pytest.fixture()
def d2_files(tmp_path):
    economy = fixture_economy("d2")
    paths = write_economy(economy, tmp_path / "economy")
    scenario = scenario_for(
        economy,
        key_dates=((date(2020, 3, 15), "lockdown_start"),
                   (date(2020, 5, 4), "lockdown_end")),
        eps_S_L1=np.array([0.5, 0.0]),
        eps_D_lockdown=np.array([0.2, 0.1]),
    )
    scenario_path = save_scenario(scenario, tmp_path / "scenario.json")
    return economy, paths, scenario, scenario_path


def economy_flags(paths):
    return [
        "--io-table", str(paths["io_table"]),
        "--initial-states", str(paths["initial_states"]),
        "--criticality", str(paths["criticality"]),
    ]


def test_validate_data_ok(d2_files, capsys):
    _, paths, _, _ = d2_files
    assert main(["validate-data", *economy_flags(paths)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "2 sectors" in out


def test_validate_data_fixture_shortcut(capsys):
    assert main(["validate-data", "--fixture", "be64"]) == 0


def test_validate_data_corrupted_cell(d2_files, capsys):
    _, paths, _, _ = d2_files
    text = paths["io_table"].read_text().replace("40.0", "abc", 1)
    paths["io_table"].write_text(text)
    assert main(["validate-data", *economy_flags(paths)]) == 1
    out = capsys.readouterr().out
    assert "abc" in out


def test_validate_data_identity_violation_names_sector(d2_files, capsys):
    _, paths, _, _ = d2_files
    lines = paths["initial_states"].read_text().splitlines()
    cols = lines[1].split(",")
    cols[3] = repr(float(cols[3]) * 1.05)  # +5% on f0 of X1
    lines[1] = ",".join(cols)
    paths["initial_states"].write_text("\n".join(lines) + "\n")
    assert main(["validate-data", *economy_flags(paths)]) == 1
    out = capsys.readouterr().out
    assert "X1" in out


def test_validate_data_row_listed_twice(d2_files, capsys):
    # The last of two X2 rows, with n_days 99, used to win.
    _, paths, _, _ = d2_files
    lines = paths["initial_states"].read_text().splitlines()
    cols = lines[2].split(",")
    cols[5] = "99"
    paths["initial_states"].write_text("\n".join(lines + [",".join(cols)]) + "\n")
    assert main(["validate-data", *economy_flags(paths)]) == 1
    out = capsys.readouterr().out
    assert out == f"INVALID: {paths['initial_states']}: code 'X2' listed twice\n"


def test_validate_data_refuses_a_non_finite_cell(d2_files, capsys):
    _, paths, _, _ = d2_files
    text = paths["io_table"].read_text().replace("40.0", "nan", 1)
    paths["io_table"].write_text(text)
    assert main(["validate-data", *economy_flags(paths)]) == 1
    assert "Z contains non-finite entries" in capsys.readouterr().out


def test_simulate_zero_shock_constant_output(tmp_path, capsys):
    economy = fixture_economy("d2")
    paths = write_economy(economy, tmp_path / "economy")
    scenario_path = save_scenario(scenario_for(economy), tmp_path / "scn.json")
    out_dir = tmp_path / "run"
    rc = main([
        "simulate", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--days", "30", "--out", str(out_dir),
    ])
    assert rc == 0
    rows = (out_dir / "trajectory.csv").read_text().splitlines()
    x1 = [float(r.split(",")[3]) for r in rows[1:] if r.split(",")[2] == "X1"]
    assert max(x1) - min(x1) < 1e-9 * 110.0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert len(manifest["inputs"]) == 4
    for entry in manifest["inputs"].values():
        assert len(entry["sha256"]) == 64


def test_simulate_is_deterministic(d2_files, tmp_path):
    _, paths, _, scenario_path = d2_files
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main([
            "simulate", *economy_flags(paths),
            "--scenario", str(scenario_path),
            "--days", "60", "--out", str(out_dir),
        ]) == 0
        outs.append([(out_dir / f).read_bytes()
                     for f in ("trajectory.csv", "manifest.json")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("horizon, last", [
    (["--days", "10.5"], "10.5,2020-03-11"),
    ([], "395.0,2021-03-31"),  # the end of the scored quarters
])
def test_simulate_ends_at_the_horizon(d2_files, tmp_path, horizon, last):
    _, paths, _, scenario_path = d2_files
    out_dir = tmp_path / "run"
    assert main([
        "simulate", *economy_flags(paths),
        "--scenario", str(scenario_path), "--out", str(out_dir), *horizon,
    ]) == 0
    rows = (out_dir / "aggregate.csv").read_text().splitlines()
    assert rows[-1].startswith(last + ",")


@pytest.mark.parametrize("column", ["l0", "c0"])
def test_economy_with_a_zero_total_gives_validation_exit(d2_files, tmp_path,
                                                         capsys, column):
    economy, paths, _, scenario_path = d2_files
    with paths["initial_states"].open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if column == "c0":  # keep the accounting identity: c0 moves to f0
            row["f0"] = repr(float(row["f0"]) + float(row["c0"]))
        row[column] = "0.0"
    with paths["initial_states"].open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["validate-data", *economy_flags(paths)]) == 1
    assert f"{column} sums to 0" in capsys.readouterr().out
    assert main([
        "simulate", *economy_flags(paths), "--scenario", str(scenario_path),
        "--days", "5", "--out", str(tmp_path / "run"),
    ]) == 1
    assert f"{column} sums to 0" in capsys.readouterr().err


def test_simulate_continuous_method(d2_files, tmp_path):
    _, paths, _, scenario_path = d2_files
    out_dir = tmp_path / "cont"
    assert main([
        "simulate", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--method", "continuous_adaptive",
        "--days", "30", "--out", str(out_dir),
    ]) == 0
    assert (out_dir / "aggregate.csv").exists()


def test_simulate_continuous_failure_gives_runtime_exit(d2_files, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.setattr(
        integrate, "solve_ivp",
        lambda *args, **kwargs: SimpleNamespace(success=False,
                                                message="step size too small"),
    )
    _, paths, _, scenario_path = d2_files
    assert main([
        "simulate", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--method", "continuous_adaptive",
        "--days", "30", "--out", str(tmp_path / "cont"),
    ]) == 2
    assert "step size too small" in capsys.readouterr().err


def test_simulate_reference_dips_and_recovers(tmp_path):
    out_dir = tmp_path / "be"
    rc = main([
        "simulate", "--fixture", "be64",
        "--scenario", str(reference_scenario_path()),
        "--days", "200", "--out", str(out_dir),
    ])
    assert rc == 0
    rows = (out_dir / "aggregate.csv").read_text().splitlines()[1:]
    x_total = {float(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    baseline = x_total[0.0]
    trough = min(x_total.values())
    assert trough < 0.9 * baseline            # deep dip inside the lockdown
    assert x_total[200.0] > trough * 1.05     # partial recovery by late summer
    assert x_total[200.0] < baseline          # but not a full one


def test_aggregate_csv_rows_are_the_trajectory_totals(tmp_path):
    economy = fixture_economy("d3")
    scenario = scenario_for(economy, eps_S_L1=np.array([0.3, 0.1, 0.0]),
                            eps_D_lockdown=np.array([0.2, 0.5, 0.1]))
    scenario_path = save_scenario(scenario, tmp_path / "d3.json")
    out_dir = tmp_path / "run"
    assert main([
        "simulate", "--fixture", "d3", "--scenario", str(scenario_path),
        "--days", "60", "--out", str(out_dir),
    ]) == 0
    with (out_dir / "trajectory.csv").open(newline="") as fh:
        totals = {row[0]: row[3:] for row in csv.reader(fh) if row[2] == "BE"}
    with (out_dir / "aggregate.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][2:] == ["x_total", "d_total", "l_total", "c_total",
                           "f_total", "b2b_total"]
    assert len(rows) - 1 == len(totals) == 61
    for row in rows[1:]:
        assert row[2:] == totals[row[0]], row[0]


def test_override_files_apply_with_fixture(tmp_path):
    scenario = scenario_for(fixture_economy("d3"), eps_S_L1=np.array([0.3, 0.1, 0.0]),
                            eps_D_lockdown=np.array([0.2, 0.5, 0.1]))
    scenario_path = save_scenario(scenario, tmp_path / "d3.json")
    overrides = {
        "--on-site": ("on_site", "code,on_site\nS1,0\nS2,0\nS3,0\n"),
        "--inventory-targets": ("inventory_targets",
                                "code,n_days\nS1,2.0\nS2,1.0\nS3,1.5\n"),
    }
    runs = {}
    for flag in (None, *overrides):
        out_dir = tmp_path / (flag or "plain").lstrip("-")
        extra = []
        if flag:
            name, text = overrides[flag]
            (tmp_path / f"{name}.csv").write_text(text)
            extra = [flag, str(tmp_path / f"{name}.csv")]
        assert main([
            "simulate", "--fixture", "d3", "--scenario", str(scenario_path),
            "--days", "200", "--out", str(out_dir), *extra,
        ]) == 0
        runs[flag] = (out_dir / "trajectory.csv").read_bytes()
        inputs = json.loads((out_dir / "manifest.json").read_text())["inputs"]
        if flag:
            assert inputs[name]["path"] == str(tmp_path / f"{name}.csv")
    for flag in overrides:
        assert runs[flag] != runs[None], flag


def test_compare_identical_and_different(d2_files, tmp_path, capsys):
    _, paths, _, scenario_path = d2_files
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out_dir, dt in ((a, "1.0"), (b, "0.5")):
        main([
            "simulate", *economy_flags(paths),
            "--scenario", str(scenario_path),
            "--dt", dt, "--days", "30", "--out", str(out_dir),
        ])
    assert main(["compare", str(a / "trajectory.csv"),
                 str(a / "trajectory.csv")]) == 0
    out = capsys.readouterr().out
    assert "max deviation 0" in out
    assert main(["compare", str(a / "trajectory.csv"),
                 str(b / "trajectory.csv")]) == 0


def test_missing_input_gives_validation_exit(tmp_path, capsys):
    rc = main(["validate-data", "--io-table", str(tmp_path / "nope.csv"),
               "--initial-states", str(tmp_path / "nope.csv"),
               "--criticality", str(tmp_path / "nope.csv")])
    assert rc == 1


@pytest.mark.parametrize("flags", [
    ["--tau", "0.5"],
    ["--dt", "1.5"],
    ["--end-date", "2020-13-01"],
    ["--days", "0"],
    ["--days", "-3"],
    ["--days", "inf"],
    ["--delta-s", "-3"],
    ["--delta-s", "1.5"],
    ["--tau", "nan"],
    ["--gamma-f", "nan"],
    ["--end-date", "2019-12-31"],  # precedes the scenario start
])
def test_invalid_simulate_parameters_give_validation_exit(d2_files, tmp_path,
                                                          capsys, flags):
    _, paths, _, scenario_path = d2_files
    assert main([
        "simulate", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--days", "5", "--out", str(tmp_path / "run"), *flags,
    ]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("usage_error, flags", [
    ("invalid choice: 'bogus'", ["simulate", "--prod-fn", "bogus"]),
    ("invalid choice: 'foo'", ["montecarlo", "--observable", "foo"]),
    ("invalid int value: 'x'", ["montecarlo", "--n", "x"]),
], ids=["simulate-prod-fn", "montecarlo-observable", "montecarlo-n"])
def test_usage_errors_give_validation_exit(d2_files, tmp_path, capsys,
                                           usage_error, flags):
    _, paths, _, scenario_path = d2_files
    command, *options = flags
    assert main([
        command, *economy_flags(paths), "--scenario", str(scenario_path),
        "--out", str(tmp_path / "run"), *options,
    ]) == 1
    assert usage_error in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--help"])
    assert info.value.code == 0
    assert "--prod-fn" in capsys.readouterr().out


def test_broken_invariant_gives_runtime_exit(d2_files, tmp_path, monkeypatch,
                                             capsys):
    restock = dynamics._restock
    monkeypatch.setattr(dynamics, "_restock",
                        lambda *args: restock(*args) - 1e9)
    _, paths, _, scenario_path = d2_files
    assert main([
        "simulate", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--days", "5", "--out", str(tmp_path / "run"),
    ]) == 2
    assert "negative inventory at t = 1.0" in capsys.readouterr().err


def test_broken_invariant_gives_runtime_exit_adaptive(d2_files, tmp_path,
                                                      monkeypatch, capsys):
    restock = dynamics._restock
    monkeypatch.setattr(dynamics, "_restock",
                        lambda *args: restock(*args) - 1e9)
    _, paths, _, scenario_path = d2_files
    assert main([
        "simulate", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--method", "continuous_adaptive",
        "--days", "5", "--out", str(tmp_path / "run"),
    ]) == 2
    assert "negative inventory at t = 0.0" in capsys.readouterr().err


def test_grid_search_cli_roundtrip(d2_files, tmp_path, capsys):
    economy, paths, scenario, scenario_path = d2_files
    params = BehavioralParams()
    grid = GridSpec((("tau", (7.0, 14.0)),))
    gen = {"tau": 14.0}
    scn, prm = apply_grid_point(economy, scenario, params, gen)
    dataset = synthesize_dataset(economy, scn, prm)
    dataset_path = save_dataset(dataset, tmp_path / "data.csv")
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid.to_json())

    def run(out_name, workers, extra=()):
        out_dir = tmp_path / out_name
        rc = main([
            "grid-search", *economy_flags(paths),
            "--scenario", str(scenario_path),
            "--dataset", str(dataset_path),
            "--grid", str(grid_path),
            "--workers", str(workers),
            "--out", str(out_dir), *extra,
        ])
        assert rc == 0
        return (out_dir / "leaderboard.csv").read_bytes()

    lb1 = run("w1", 1)
    out = capsys.readouterr().out
    assert "'tau': 14.0" in out and "total AAD_vw: 0.000000" in out
    lb2 = run("w2", 2)
    assert lb1 == lb2
    manifest = json.loads((tmp_path / "w2" / "manifest.json").read_text())
    assert manifest["config"]["workers"] == 2

    # checkpoint interruption and resume
    ck = tmp_path / "ck.jsonl"
    lb3 = run("ck1", 1, ("--checkpoint", str(ck)))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:2]) + "\n")
    lb4 = run("ck2", 1, ("--checkpoint", str(ck), "--resume"))
    assert lb3 == lb4 == lb1


def test_grid_search_without_mapping_scores_as_the_packaged_one(be64, tmp_path):
    scenario_path = reference_scenario_path()
    scn, prm = apply_grid_point(be64, load_scenario(scenario_path),
                                BehavioralParams(), {"tau": 14.0})
    dataset_path = save_dataset(synthesize_dataset(be64, scn, prm),
                                tmp_path / "data.csv")
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(GridSpec((("tau", (7.0, 14.0)),)).to_json())
    outputs = []
    for name, extra in (("default", []),
                        ("packaged", ["--mapping", str(sector_mapping_path())])):
        out_dir = tmp_path / name
        assert main([
            "grid-search", "--fixture", "be64", "--scenario", str(scenario_path),
            "--dataset", str(dataset_path), "--grid", str(grid_path),
            "--out", str(out_dir), *extra,
        ]) == 0
        outputs.append([(out_dir / f).read_bytes()
                        for f in ("leaderboard.csv", "optimum_cells.csv")])
    assert outputs[0] == outputs[1]


def test_montecarlo_cli(d2_files, tmp_path):
    _, paths, _, scenario_path = d2_files
    dists = {"tau": {"dist": "fixed", "value": 14.0}}
    dist_path = tmp_path / "dists.json"
    dist_path.write_text(json.dumps(dists))
    out_dir = tmp_path / "mc"
    rc = main([
        "montecarlo", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--distributions", str(dist_path),
        "--n", "1", "--seed", "7", "--out", str(out_dir),
    ])
    assert rc == 0
    lines = (out_dir / "bands.csv").read_text().splitlines()
    assert lines[0] == "t,date,observable,p2.5,p50,p97.5"
    first = lines[1].split(",")
    assert first[3] == first[4] == first[5]  # single run: degenerate band
    config = json.loads((out_dir / "manifest.json").read_text())["config"]
    assert config["n"] == 1
    assert config["prod_fn"] == "half_critical"  # the base parameters too


def test_montecarlo_default_distributions(d2_files, tmp_path):
    _, paths, _, scenario_path = d2_files
    out_dir = tmp_path / "mc2"
    rc = main([
        "montecarlo", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--n", "3", "--seed", "9", "--out", str(out_dir),
    ])
    assert rc == 0


@pytest.mark.parametrize("flags, distributions", [
    (["--n", "0"], None),
    (["--n", "-2"], None),
    ([], {"foo": {"dist": "fixed", "value": 1.0}}),
    ([], {"tau": {"dist": "cauchy"}}),
    ([], {"tau": {"dist": "normal", "mean": 14.0}}),  # no "sd"
    ([], "{not json"),
    (["--distributions", "no-such-file.json"], None),
    (["--seed", "7"],  # both draws land above 1
     {"delta_s": {"dist": "uniform", "low": 0.5, "high": 1.5}}),
    ([], [{"tau": {"dist": "fixed", "value": 14.0}}]),
    (["--seed", "-1"], None),
    ([], {"eps_S_scale": {"dist": "fixed", "value": -1.0}}),
], ids=["n-zero", "n-negative", "unknown-parameter", "unknown-distribution",
        "missing-key", "malformed-json", "missing-file", "delta-s-draw-above-one",
        "not-an-object", "seed-negative", "eps-S-scale-negative"])
def test_invalid_montecarlo_input_gives_validation_exit(d2_files, tmp_path, capsys,
                                                        flags, distributions):
    _, paths, _, scenario_path = d2_files
    if distributions is not None:
        dist_path = tmp_path / "dists.json"
        dist_path.write_text(distributions if isinstance(distributions, str)
                             else json.dumps(distributions))
        flags = [*flags, "--distributions", str(dist_path)]
    assert main([
        "montecarlo", *economy_flags(paths), "--scenario", str(scenario_path),
        "--n", "2", "--out", str(tmp_path / "mc"), *flags,
    ]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "mc").exists()


def test_montecarlo_failure_during_the_run_gives_runtime_exit(d2_files, tmp_path,
                                                              monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("failed during the run")

    monkeypatch.setattr(calibration, "simulate_series", failing)
    _, paths, _, scenario_path = d2_files
    assert main([
        "montecarlo", *economy_flags(paths), "--scenario", str(scenario_path),
        "--n", "2", "--out", str(tmp_path / "mc"),
    ]) == 2


def test_montecarlo_defaults_match_reference_ensemble():
    from pnetsim.cli import build_parser

    parser = build_parser()
    args = parser.parse_args([
        "montecarlo", "--fixture", "d2", "--scenario", "s.json", "--out", "o",
    ])
    assert args.n == 200
    assert args.seed == 12345


@pytest.fixture()
def d3_grid_files(tmp_path):
    """d3's default scenario, a dataset it generates, and its file paths."""
    economy = fixture_economy("d3")
    scenario = scenario_for(economy)
    dataset = synthesize_dataset(economy, scenario, BehavioralParams())
    return (save_scenario(scenario, tmp_path / "scenario.json"),
            save_dataset(dataset, tmp_path / "data.csv"))


def grid_search_d3(tmp_path, scenario_path, dataset_path, grid, *flags):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid.to_json())
    return main([
        "grid-search", "--fixture", "d3", "--scenario", str(scenario_path),
        "--dataset", str(dataset_path), "--grid", str(grid_path),
        "--out", str(tmp_path / "out"), *flags,
    ])


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_give_validation_exit(d3_grid_files, tmp_path, capsys,
                                                workers):
    rc = grid_search_d3(tmp_path, *d3_grid_files,
                        GridSpec((("tau", (7.0, 14.0)),)), "--workers", workers)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: workers = {workers} must be an integer, at least 1")
    assert not (tmp_path / "out").exists()


def test_grid_search_manifest_records_the_base_parameters(d3_grid_files,
                                                         tmp_path):
    assert grid_search_d3(tmp_path, *d3_grid_files,
                          GridSpec((("gamma_F", (14.0, 28.0)),)),
                          "--tau", "7") == 0
    config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert config["tau"] == 7.0 and config["n_points"] == 2


def test_missing_mapping_file_gives_validation_exit(d3_grid_files, tmp_path,
                                                    capsys):
    missing = tmp_path / "missing.csv"
    rc = grid_search_d3(tmp_path, *d3_grid_files, GridSpec((("tau", (7.0, 14.0)),)),
                        "--mapping", str(missing))
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: file not found: {missing}\n"
    assert not (tmp_path / "out").exists()


def test_empty_grid_gives_validation_exit(d3_grid_files, tmp_path, capsys):
    # GridSpec(()) is written as {"axes": []}.
    rc = grid_search_d3(tmp_path, *d3_grid_files, GridSpec(()))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: empty grid")
    assert not (tmp_path / "out").exists()


def test_grid_the_scenario_cannot_take_fails_before_any_point(d3_grid_files,
                                                              tmp_path, capsys):
    # d3's default scenario has no final-demand shock to scale, so
    # eps_F_aggregate 0.05 cannot be set. The points with 0.0 come first and
    # fill more than one chunk.
    taus = tuple(float(t) for t in range(1, calibration.CHUNK_POINTS + 2))
    grid = GridSpec((("eps_F_aggregate", (0.0, 0.05)), ("tau", taus)))
    ck = tmp_path / "ck.jsonl"
    rc = grid_search_d3(tmp_path, *d3_grid_files, grid, "--checkpoint", str(ck))
    assert rc == 1
    assert "eps_F_aggregate" in capsys.readouterr().err
    records = ck.read_text().splitlines()[1:] if ck.exists() else []
    assert records == []
    assert not (tmp_path / "out").exists()


def test_scenario_shocks_not_an_object_gives_validation_exit(d2_files, tmp_path,
                                                             capsys):
    _, paths, _, scenario_path = d2_files
    doc = json.loads(scenario_path.read_text())
    doc["shocks"] = list(doc["shocks"].values())
    scenario_path.write_text(json.dumps(doc))
    assert main([
        "simulate", *economy_flags(paths), "--scenario", str(scenario_path),
        "--days", "5", "--out", str(tmp_path / "run"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'shocks'" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def edited_dataset(dataset_path, target, value: str):
    """A copy of the dataset whose first value is ``value``."""
    lines = dataset_path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + value
    target.write_text("\n".join(lines) + "\n")
    return target


def test_grid_search_refuses_a_non_finite_dataset_value(d3_grid_files, tmp_path,
                                                        capsys):
    scenario_path, dataset_path = d3_grid_files
    nan_data = edited_dataset(dataset_path, tmp_path / "nan.csv", "nan")
    rc = grid_search_d3(tmp_path, scenario_path, nan_data,
                        GridSpec((("tau", (7.0, 14.0)),)))
    assert rc == 1
    assert "line 2: value_pct 'nan' is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_resume_against_another_dataset_exits_2_and_keeps_the_checkpoint(
        d3_grid_files, tmp_path, capsys):
    scenario_path, dataset_path = d3_grid_files
    grid = GridSpec((("tau", (7.0, 14.0)),))
    ck = tmp_path / "ck.jsonl"
    assert grid_search_d3(tmp_path, scenario_path, dataset_path, grid,
                          "--checkpoint", str(ck)) == 0
    before = ck.read_bytes()
    other = edited_dataset(dataset_path, tmp_path / "other.csv", "-99.0")
    rc = grid_search_d3(tmp_path, scenario_path, other, grid,
                        "--checkpoint", str(ck), "--resume")
    assert rc == 2
    assert "written for other inputs" in capsys.readouterr().err
    assert ck.read_bytes() == before


def lockdown_end_first(tmp_path):
    scenario = scenario_for(fixture_economy("d3"),
                            key_dates=((date(2020, 3, 15), "lockdown_end"),))
    return save_scenario(scenario, tmp_path / "end-first.json")


@pytest.mark.parametrize("scenario, axis", [
    ("be64", ("eps_F_aggregate", (0.0, 0.05))),
    ("be64", ("tau", (7.0, 14.0))),
    ("end-first", ("tau", (7.0, 14.0))),
], ids=["other-sectors-eps-F", "other-sectors", "lockdown-end-first"])
def test_scenario_that_does_not_fit_leaves_the_checkpoint_alone(
        d3_grid_files, tmp_path, capsys, scenario, axis):
    scenario_path = (reference_scenario_path() if scenario == "be64"
                     else lockdown_end_first(tmp_path))
    ck = tmp_path / "ck.jsonl"
    ck.write_bytes(b'{"grid_hash": "from an earlier grid"}\n{"index": 0}\n')
    before = ck.read_bytes()
    rc = grid_search_d3(tmp_path, scenario_path, d3_grid_files[1],
                        GridSpec((axis,)), "--checkpoint", str(ck))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ck.read_bytes() == before
    assert not (tmp_path / "out").exists()


def test_grid_value_of_the_wrong_type_gives_validation_exit(d3_grid_files,
                                                           tmp_path, capsys):
    rc = grid_search_d3(tmp_path, *d3_grid_files, GridSpec((("tau", (None,)),)))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: grid axis 'tau' value None")
    assert not (tmp_path / "out").exists()


def test_checkpoint_directory_is_created_only_for_valid_input(d3_grid_files,
                                                              tmp_path):
    ck = tmp_path / "new" / "ck.jsonl"
    grid = GridSpec((("tau", (7.0, 14.0)),))
    flags = ("--checkpoint", str(ck))
    assert grid_search_d3(tmp_path, *d3_grid_files, grid, *flags,
                          "--workers", "0") == 1
    assert not ck.parent.exists()
    assert grid_search_d3(tmp_path, *d3_grid_files, grid, *flags) == 0
    assert len(ck.read_text().splitlines()) == 1 + grid.n_points


def tree(root):
    return sorted((str(p.relative_to(root)), p.read_bytes() if p.is_file() else None)
                  for p in root.rglob("*"))


@pytest.mark.parametrize("case", [
    "simulate-scenario", "grid-dataset", "grid-checkpoint", "grid-checkpoint-resume",
])
def test_directory_given_as_a_file_gives_validation_exit(d3_grid_files, tmp_path,
                                                         capsys, case):
    scenario_path, dataset_path = d3_grid_files
    folder = tmp_path / "folder"
    folder.mkdir()
    (folder / "kept.txt").write_text("left alone\n")
    before = tree(folder)
    grid = GridSpec((("tau", (7.0, 14.0)),))
    if case == "simulate-scenario":
        rc = main(["simulate", "--fixture", "d3", "--scenario", str(folder),
                   "--days", "5", "--out", str(tmp_path / "out")])
    elif case == "grid-dataset":
        rc = grid_search_d3(tmp_path, scenario_path, folder, grid)
    else:
        resume = ("--resume",) if case.endswith("resume") else ()
        rc = grid_search_d3(tmp_path, scenario_path, dataset_path, grid,
                            "--checkpoint", str(folder), *resume)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert tree(folder) == before
    assert not (tmp_path / "out").exists()


def test_scenario_with_a_sector_listed_twice_gives_validation_exit(d3_grid_files,
                                                                 tmp_path, capsys):
    scenario_path = d3_grid_files[0]
    text = scenario_path.read_text()
    first = text.index('"S1": {')
    entry = text[first:text.index("}", first) + 1]
    scenario_path.write_text(text.replace(entry, entry + ", " + entry, 1))
    rc = main(["simulate", "--fixture", "d3", "--scenario", str(scenario_path),
               "--days", "5", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {scenario_path}: key 'S1' listed twice\n")
    assert not (tmp_path / "out").exists()


def test_mapping_with_a_code_listed_twice_gives_validation_exit(d3_grid_files,
                                                               tmp_path, capsys):
    mapping = tmp_path / "mapping.csv"
    mapping.write_text("nace64,nace21\nS1,A\nS2,B\nS3,C\nS1,B\n")
    rc = grid_search_d3(tmp_path, *d3_grid_files, GridSpec((("tau", (7.0, 14.0)),)),
                        "--mapping", str(mapping))
    assert rc == 1
    assert capsys.readouterr().err == f"error: {mapping}: code 'S1' listed twice\n"
    assert not (tmp_path / "out").exists()


TRAJECTORY_HEADER = "t,date,sector,x,d,l,c,f,b2b_out\n"
DELTA_S = '{"dist": "uniform", "low": 0.5, "high": 0.6}'
D3 = ["--fixture", "d3", "--out", "{out}"]
#: A valid d3 grid search; a later flag overrides one of its files.
GRID_SEARCH = ["grid-search", *D3, "--scenario", "{scenario}",
               "--dataset", "{dataset}", "--grid", "{grid}"]
MONTECARLO = ["montecarlo", *D3, "--scenario", "{scenario}", "--n", "2"]
SIMULATE = ["simulate", *D3, "--days", "5"]

#: A malformed input file, by case: the file's name and content (None: no
#: file), and the command that reads it as ``{bad}``.
MALFORMED = {
    "mapping-short-row": ("mapping.csv", "nace64,nace21\nS1\nS2,B\nS3,C\n",
                          [*GRID_SEARCH, "--mapping", "{bad}"]),
    "dataset-short-row": ("data.csv", "indicator,date,sector,value_pct\ngdp,2020-05-01\n",
                          [*GRID_SEARCH, "--dataset", "{bad}"]),
    "dataset-not-utf8": ("data.csv", b"indicator,date\xff\n",
                         [*GRID_SEARCH, "--dataset", "{bad}"]),
    "grid-not-json": ("grid.json", "{not json", [*GRID_SEARCH, "--grid", "{bad}"]),
    "grid-axes-twice": ("grid.json",
                        '{"axes": [["tau", [7.0]]], "axes": [["tau", [14.0]]]}',
                        [*GRID_SEARCH, "--grid", "{bad}"]),
    "grid-axis-string": ("grid.json", '{"axes": [["tau", "714"]]}',
                         [*GRID_SEARCH, "--grid", "{bad}",
                          "--checkpoint", "{out}/ck.jsonl"]),
    "scenario-not-json": ("scenario.json", "{not json",
                          [*SIMULATE, "--scenario", "{bad}"]),
    "scenario-key-twice": ("scenario.json",
                           '{"start_date": "2020-03-01", "start_date": "2020-03-02"}',
                           [*SIMULATE, "--scenario", "{bad}"]),
    "distributions-not-json": ("dists.json", "{not json",
                               [*MONTECARLO, "--distributions", "{bad}"]),
    "distributions-key-twice": ("dists.json",
                                f'{{"delta_s": {DELTA_S}, "delta_s": {DELTA_S}}}',
                                [*MONTECARLO, "--distributions", "{bad}"]),
    "compare-not-a-trajectory": ("bad.csv", "not,a,trajectory\n1,2,3\n",
                                 ["compare", "{bad}", "{bad}"]),
    "compare-missing": ("bad.csv", None, ["compare", "{bad}", "{bad}"]),
    "compare-short-row": ("bad.csv", TRAJECTORY_HEADER + "0.0,2020-03-01,S1,1.0\n",
                          ["compare", "{bad}", "{bad}"]),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_file_gives_validation_exit(d3_grid_files, tmp_path, capsys,
                                                    case):
    name, content, command = MALFORMED[case]
    bad = tmp_path / "bad" / name
    bad.parent.mkdir()
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    grid = tmp_path / "grid.json"
    grid.write_text(GridSpec((("tau", (7.0, 14.0)),)).to_json())
    scenario, dataset = d3_grid_files
    out = tmp_path / "out"
    assert main([arg.format(bad=bad, grid=grid, scenario=scenario, dataset=dataset,
                            out=out) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(bad) in err
    assert not out.exists()


@pytest.mark.parametrize("rows", ["", "gdp,2020-05-15,ZZ9,-1.0\n"],
                         ids=["header-only", "unknown-sector"])
def test_dataset_that_scores_no_cell_gives_validation_exit(d3_grid_files, tmp_path,
                                                           capsys, rows):
    scenario_path, dataset_path = d3_grid_files
    dataset_path.write_text("indicator,date,sector,value_pct\n" + rows)
    checkpoint = tmp_path / "ck" / "ck.jsonl"
    rc = grid_search_d3(tmp_path, scenario_path, dataset_path,
                        GridSpec((("tau", (7.0, 14.0)),)), "--checkpoint", str(checkpoint))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "scores no cell" in err
    assert not checkpoint.parent.exists()
    assert not (tmp_path / "out").exists()


def test_dataset_naming_only_zero_baseline_sectors_gives_validation_exit(
        d2_files, tmp_path, capsys):
    economy, _, _, scenario_path = d2_files
    d2 = write_economy(replace(economy, l0=np.array([55.0, 0.0])), tmp_path / "no-labor")
    dataset = tmp_path / "data.csv"
    dataset.write_text("indicator,date,sector,value_pct\nemployment,2020-05-15,X2,-10.0\n")
    grid = tmp_path / "grid.json"
    grid.write_text(GridSpec((("tau", (7.0, 14.0)),)).to_json())
    checkpoint = tmp_path / "ck.jsonl"
    rc = main(["grid-search", *economy_flags(d2), "--scenario", str(scenario_path),
               "--dataset", str(dataset), "--grid", str(grid),
               "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "scores no cell" in capsys.readouterr().err
    assert not checkpoint.exists()
    assert not (tmp_path / "out").exists()


def test_resume_without_a_checkpoint_gives_validation_exit(d3_grid_files, tmp_path,
                                                          capsys):
    rc = grid_search_d3(tmp_path, *d3_grid_files, GridSpec((("tau", (7.0, 14.0)),)),
                        "--resume")
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: resume needs a checkpoint")
    assert not (tmp_path / "out").exists()
