"""Command-line interface: validate data, simulate, calibrate, export CSV.

Exit codes: 0 success, 1 input validation failure, 2 runtime failure.
Every output directory receives exactly one ``manifest.json`` with the
resolved configuration and content hashes of all input files, sufficient
to reproduce the run bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import date, datetime, timezone
from pathlib import Path

from . import __version__
from .calibration import (
    DEFAULT_QUARTERS,
    OBSERVABLES,
    default_distributions,
    grid_search,
    horizon_for,
    load_dataset,
    load_grid,
    load_sector_mapping,
    monte_carlo,
    parse_distributions,
)
from .dynamics import PRODUCTION_FUNCTIONS, BehavioralParams
from .economy import Economy, load_economy
from .errors import PnetError, SchemaError, ValidationError
from .fixtures import fixture_paths, sector_mapping_path
from .integrate import (
    METHOD_DISCRETE,
    METHODS,
    IntegrationConfig,
    read_trajectory_csv,
    simulate,
    write_trajectory_csv,
)
from .shocks import Scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

WORKERS_ENV = "PNETSIM_WORKERS"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict,
                    input_paths: dict) -> Path:
    manifest = {
        "tool": "pnetsim",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(p)}
            for name, p in input_paths.items()
        },
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _add_economy_args(p: argparse.ArgumentParser):
    p.add_argument("--fixture", choices=("d2", "d3", "be64"),
                   help="use a packaged fixture instead of explicit paths")
    p.add_argument("--io-table", type=Path)
    p.add_argument("--initial-states", type=Path)
    p.add_argument("--criticality", type=Path)
    p.add_argument("--inventory-targets", type=Path,
                   help="optional code,n_days override file")
    p.add_argument("--on-site", type=Path,
                   help="optional code,on_site override file")


def _economy_paths(args) -> dict:
    if args.fixture:
        return dict(fixture_paths(args.fixture))
    required = ("io_table", "initial_states", "criticality")
    missing = [r for r in required if getattr(args, r) is None]
    if missing:
        raise SchemaError(
            "missing economy inputs: "
            + ", ".join("--" + m.replace("_", "-") for m in missing)
        )
    paths = {r: getattr(args, r) for r in required}
    if args.inventory_targets:
        paths["inventory_targets"] = args.inventory_targets
    if args.on_site:
        paths["on_site"] = args.on_site
    return paths


def _load_economy(paths: dict) -> Economy:
    return load_economy(
        paths["io_table"], paths["initial_states"], paths["criticality"],
        inventory_targets_path=paths.get("inventory_targets"),
        on_site_path=paths.get("on_site"),
    )


def _argument(convert, *args, **kwargs):
    """``convert(*args, **kwargs)``; a ``ValueError`` is invalid input."""
    try:
        return convert(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _add_param_args(p: argparse.ArgumentParser):
    """The behavioural flags ``_params_from_args`` reads."""
    p.add_argument("--prod-fn", choices=PRODUCTION_FUNCTIONS)
    p.add_argument("--tau", type=float)
    p.add_argument("--gamma-f", type=float)
    p.add_argument("--delta-s", type=float)


def _params_from_args(args) -> BehavioralParams:
    fields = {"prod_fn": "prod_fn", "tau": "tau", "gamma_f": "gamma_F",
              "delta_s": "delta_s"}  # command-line flag -> field
    kwargs = {field: getattr(args, flag) for flag, field in fields.items()
              if getattr(args, flag, None) is not None}
    return _argument(BehavioralParams, **kwargs)


def _horizon(args, scenario: Scenario) -> float:
    if args.end_date is not None:
        end = _argument(date.fromisoformat, args.end_date)
        days = float((end - scenario.start_date).days)
        if days <= 0:
            raise ValidationError("end date precedes the scenario start")
        return days
    if args.days is not None:
        if not 0.0 < args.days < math.inf:
            raise ValidationError(f"--days {args.days:g} is not a positive "
                                  "number of days")
        return float(args.days)
    return horizon_for(scenario, DEFAULT_QUARTERS)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate_data(args) -> int:
    paths = _economy_paths(args)
    try:
        economy = _load_economy(paths)
    except ValidationError as exc:
        print(f"INVALID: {exc}")
        for detail in exc.details:
            print(f"  - {detail}")
        return EXIT_VALIDATION
    except SchemaError as exc:
        print(f"INVALID: {exc}")
        return EXIT_VALIDATION
    print(
        f"OK: {economy.n_sectors} sectors, accounting identity within "
        "tolerance, criticality ratings valid"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    paths = _economy_paths(args)
    economy = _load_economy(paths)
    scenario = load_scenario(args.scenario)
    params = _params_from_args(args)
    config = _argument(IntegrationConfig, method=args.method, dt=args.dt)
    t_end = _horizon(args, scenario)
    traj = simulate(economy, scenario, params, config, t_end)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "trajectory.csv")
    _write_aggregate_csv(traj, out / "aggregate.csv")
    _write_manifest(
        out, "simulate",
        {
            "method": config.method, "dt": config.dt, "t_end": t_end,
            "prod_fn": params.prod_fn, "tau": params.tau,
            "gamma_F": params.gamma_F, "gamma_H": params.hiring_speed,
            "delta_s": params.delta_s, "rho": params.rho,
            "L_share": params.L_share,
        },
        {**paths, "scenario": Path(args.scenario)},
    )
    print(f"wrote {out / 'trajectory.csv'} ({len(traj.times)} samples)")
    return EXIT_OK


def _write_aggregate_csv(traj, path: Path):
    import csv as _csv

    with path.open("w", newline="", encoding="utf-8") as fh:
        w = _csv.writer(fh)
        w.writerow(["t", "date", "x_total", "d_total", "l_total",
                    "c_total", "f_total", "b2b_total"])
        for t, state in zip(traj.times, traj.states):
            w.writerow([
                repr(float(t)), traj.date_at(t).isoformat(),
                repr(float(state.x.sum())), repr(float(state.d.sum())),
                repr(float(state.l.sum())), repr(float(state.c.sum())),
                repr(float(state.f.sum())), repr(float(state.O.sum())),
            ])


def cmd_grid_search(args) -> int:
    paths = _economy_paths(args)
    economy = _load_economy(paths)
    scenario = load_scenario(args.scenario)
    dataset = load_dataset(args.dataset)
    grid = load_grid(args.grid)
    params = _params_from_args(args)
    mapping = (load_sector_mapping(args.mapping) if args.mapping
               else _default_mapping_for(economy))
    workers = args.workers
    if os.environ.get(WORKERS_ENV):
        workers = int(os.environ[WORKERS_ENV])

    result = grid_search(
        economy, scenario, params, dataset, grid,
        mapping=mapping, workers=workers,
        checkpoint_path=args.checkpoint, resume=args.resume,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.write_leaderboard(out / "leaderboard.csv")
    result.write_optimum_cells(out / "optimum_cells.csv")
    inputs = {**paths, "scenario": Path(args.scenario),
              "dataset": Path(args.dataset), "grid": Path(args.grid)}
    if args.mapping:
        inputs["mapping"] = Path(args.mapping)
    _write_manifest(
        out, "grid-search",
        {"workers": workers, "n_points": grid.n_points,
         "checkpoint": str(args.checkpoint) if args.checkpoint else None},
        inputs,
    )
    best = result.argmin
    print(f"argmin: {best.params}")
    print(f"total AAD_vw: {best.aad_total:.6f}")
    return EXIT_OK


def _default_mapping_for(economy: Economy):
    path = sector_mapping_path()
    if path.exists() and set(economy.codes) <= set(load_sector_mapping(path)):
        return load_sector_mapping(path)
    return None


def cmd_montecarlo(args) -> int:
    paths = _economy_paths(args)
    economy = _load_economy(paths)
    scenario = load_scenario(args.scenario)
    params = _params_from_args(args)
    # Checked before the run: a ValueError raised by the run itself exits 2.
    if args.n < 1:
        raise ValidationError(f"--n {args.n} is not a positive number of runs")
    raw = default_distributions()
    if args.distributions:
        try:
            raw = json.loads(Path(args.distributions).read_text(encoding="utf-8"))
            parse_distributions(raw)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(
                f"{args.distributions}: invalid distributions ({exc})") from None
    result = monte_carlo(
        economy, scenario, params, raw, n_runs=args.n, seed=args.seed,
        observable=args.observable,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.write_csv(out / "bands.csv")
    inputs = {**paths, "scenario": Path(args.scenario)}
    if args.distributions:
        inputs["distributions"] = Path(args.distributions)
    _write_manifest(
        out, "montecarlo",
        {"n": args.n, "seed": args.seed, "observable": args.observable,
         "distributions": raw},
        inputs,
    )
    print(f"wrote {out / 'bands.csv'} ({args.n} runs, seed {args.seed})")
    return EXIT_OK


def cmd_compare(args) -> int:
    a = read_trajectory_csv(args.left)
    b = read_trajectory_csv(args.right)
    worst = 0.0
    total, count = 0.0, 0
    for col in a:
        keys = set(a[col]) & set(b[col])
        missing = set(a[col]) ^ set(b[col])
        if missing:
            print(f"warning: {len(missing)} rows only on one side for {col}")
        for key in keys:
            dev = abs(a[col][key] - b[col][key])
            worst = max(worst, dev)
            total += dev
            count += 1
    mean = total / count if count else 0.0
    print(f"compared {count} values: max deviation {worst:.6g}, "
          f"mean deviation {mean:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnetsim",
        description="Production-network shock propagation simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-data", help="check economy files")
    _add_economy_args(p)
    p.set_defaults(func=cmd_validate_data)

    p = sub.add_parser("simulate", help="run one simulation and export CSV")
    _add_economy_args(p)
    p.add_argument("--scenario", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--method", default=METHOD_DISCRETE, choices=METHODS)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--end-date", help="ISO date of the last simulated day")
    p.add_argument("--days", type=float, help="horizon in days since epoch")
    _add_param_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("grid-search", help="score a parameter grid")
    _add_economy_args(p)
    p.add_argument("--scenario", required=True, type=Path)
    p.add_argument("--dataset", required=True, type=Path)
    p.add_argument("--grid", required=True, type=Path)
    p.add_argument("--mapping", type=Path,
                   help="nace64,nace21 aggregation CSV")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", type=Path)
    p.add_argument("--resume", action="store_true")
    _add_param_args(p)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("montecarlo", help="confidence bands under sampled parameters")
    _add_economy_args(p)
    p.add_argument("--scenario", required=True, type=Path)
    p.add_argument("--distributions", type=Path,
                   help="JSON of parameter distributions; defaults to the "
                        "reference uncertainty set")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--observable", default="gross_output",
                   choices=tuple(OBSERVABLES))
    p.add_argument("--out", required=True, type=Path)
    _add_param_args(p)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("compare", help="diff two trajectory CSVs")
    p.add_argument("left", type=Path)
    p.add_argument("right", type=Path)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            for detail in exc.details:
                print(f"  - {detail}", file=sys.stderr)
        return EXIT_VALIDATION
    except PnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
