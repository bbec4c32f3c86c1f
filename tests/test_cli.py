import json
from datetime import date
from types import SimpleNamespace

import numpy as np
import pytest

from pnetsim import (
    GridSpec, BehavioralParams, calibration, dynamics, integrate, write_economy,
    save_scenario,
)
from pnetsim.calibration import apply_grid_point, save_dataset, synthesize_dataset
from pnetsim.cli import main
from pnetsim.fixtures import d2_economy, scenario_for


@pytest.fixture()
def d2_files(tmp_path):
    economy = d2_economy()
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


def test_simulate_zero_shock_constant_output(tmp_path, capsys):
    economy = d2_economy()
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
        outs.append((out_dir / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


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
    from pnetsim.fixtures import reference_scenario_path

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


def test_unreadable_trajectory_gives_runtime_exit(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trajectory\n1,2,3\n")
    rc = main(["compare", str(bad), str(bad)])
    assert rc == 2


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

    # checkpoint interruption and resume
    ck = tmp_path / "ck.jsonl"
    lb3 = run("ck1", 1, ("--checkpoint", str(ck)))
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:2]) + "\n")
    lb4 = run("ck2", 1, ("--checkpoint", str(ck), "--resume"))
    assert lb3 == lb4 == lb1


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
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["n"] == 1


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
], ids=["n-zero", "n-negative", "unknown-parameter", "unknown-distribution",
        "missing-key", "malformed-json", "missing-file"])
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


def test_workers_env_override(d2_files, tmp_path, monkeypatch, capsys):
    economy, paths, scenario, scenario_path = d2_files
    dataset = synthesize_dataset(economy, scenario, BehavioralParams())
    dataset_path = save_dataset(dataset, tmp_path / "d.csv")
    grid_path = tmp_path / "g.json"
    grid_path.write_text(GridSpec((("tau", (14.0,)),)).to_json())
    monkeypatch.setenv("PNETSIM_WORKERS", "2")
    out_dir = tmp_path / "envrun"
    rc = main([
        "grid-search", *economy_flags(paths),
        "--scenario", str(scenario_path),
        "--dataset", str(dataset_path),
        "--grid", str(grid_path),
        "--out", str(out_dir),
    ])
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["workers"] == 2
