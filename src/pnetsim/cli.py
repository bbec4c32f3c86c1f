"""Command-line interface: validate data, simulate, calibrate, export CSV.

Exit codes: 0 success, 1 input validation failure, 2 runtime failure.
The library raises ``SchemaError`` or ``ValidationError`` (exit 1) where it
reads a malformed file or uses an invalid value; the CLI itself checks only
the ``--end-date`` string and reads the ``--distributions`` file itself,
through the package's one JSON parser (``_files.parse_json``).
Every output directory receives exactly one ``manifest.json`` with the
resolved configuration and content hashes of all input files, sufficient
to reproduce the run bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from datetime import date
from pathlib import Path

from . import __version__
from ._files import parse_json, read_text
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
)
from .dynamics import PRODUCTION_FUNCTIONS, BehavioralParams
from .economy import Economy, load_economy
from .errors import PnetError, SchemaError, ValidationError
from .fixtures import FIXTURE_NAMES, fixture_paths
from .integrate import (
    METHOD_DISCRETE,
    METHODS,
    IntegrationConfig,
    read_trajectory_csv,
    simulate,
    write_aggregate_csv,
    write_trajectory_csv,
)
from .shocks import Scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict,
                    params: BehavioralParams, input_paths: dict) -> Path:
    """Record the run: ``config`` with the base parameters, which every
    grid point or Monte Carlo draw that does not override them uses."""
    manifest = {
        "tool": "pnetsim",
        "version": __version__,
        "command": command,
        "config": {**config, **dataclasses.asdict(params),
                   "gamma_H": params.hiring_speed},
        "inputs": {
            name: {"path": str(p), "sha256": _sha256(p)}
            for name, p in input_paths.items()
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def _add_economy_args(p: argparse.ArgumentParser):
    p.add_argument("--fixture", choices=FIXTURE_NAMES,
                   help="use a packaged fixture instead of explicit paths")
    p.add_argument("--io-table", type=Path)
    p.add_argument("--initial-states", type=Path)
    p.add_argument("--criticality", type=Path)
    p.add_argument("--inventory-targets", type=Path,
                   help="optional code,n_days override file")
    p.add_argument("--on-site", type=Path,
                   help="optional code,on_site override file")


def _economy_paths(args) -> dict:
    """The fixture's or the explicit economy files, with the optional
    override files on top of either."""
    if args.fixture:
        paths = dict(fixture_paths(args.fixture))
    else:
        paths = {r: getattr(args, r)
                 for r in ("io_table", "initial_states", "criticality")}
    missing = [r for r, p in paths.items() if p is None]
    if missing:
        raise SchemaError(
            "missing economy inputs: "
            + ", ".join("--" + m.replace("_", "-") for m in missing)
        )
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
    return BehavioralParams(**kwargs)


def _horizon(args, scenario: Scenario) -> float:
    """Days to ``--end-date``, or ``--days``, or to the end of the scored
    quarters; ``simulate`` rejects a horizon outside (0, inf)."""
    if args.end_date is not None:
        try:
            end = date.fromisoformat(args.end_date)
        except ValueError as exc:
            raise ValidationError(f"--end-date {args.end_date}: {exc}") from None
        return float((end - scenario.start_date).days)
    if args.days is not None:
        return args.days
    return horizon_for(scenario, DEFAULT_QUARTERS)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate_data(args) -> int:
    paths = _economy_paths(args)
    try:
        economy = _load_economy(paths)
    except (SchemaError, ValidationError) as exc:
        print(f"INVALID: {exc}")
        for detail in getattr(exc, "details", ()):
            print(f"  - {detail}")
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
    config = IntegrationConfig(method=args.method, dt=args.dt)
    t_end = _horizon(args, scenario)
    traj = simulate(economy, scenario, params, config, t_end)

    out = Path(args.out)
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_aggregate_csv(traj, out / "aggregate.csv")
    _write_manifest(
        out, "simulate",
        {"method": config.method, "dt": config.dt, "t_end": t_end}, params,
        {**paths, "scenario": Path(args.scenario)},
    )
    print(f"wrote {out / 'trajectory.csv'} ({len(traj.times)} samples)")
    return EXIT_OK


def cmd_grid_search(args) -> int:
    paths = _economy_paths(args)
    economy = _load_economy(paths)
    scenario = load_scenario(args.scenario)
    dataset = load_dataset(args.dataset)
    grid = load_grid(args.grid)
    params = _params_from_args(args)
    mapping = load_sector_mapping(args.mapping) if args.mapping else None

    result = grid_search(
        economy, scenario, params, dataset, grid,
        mapping=mapping, workers=args.workers,
        checkpoint_path=args.checkpoint, resume=args.resume,
    )
    out = Path(args.out)
    result.write_leaderboard(out / "leaderboard.csv")
    result.write_optimum_cells(out / "optimum_cells.csv")
    inputs = {**paths, "scenario": Path(args.scenario),
              "dataset": Path(args.dataset), "grid": Path(args.grid)}
    if args.mapping:
        inputs["mapping"] = Path(args.mapping)
    _write_manifest(
        out, "grid-search",
        {"workers": args.workers, "n_points": grid.n_points,
         "checkpoint": str(args.checkpoint) if args.checkpoint else None},
        params, inputs,
    )
    best = result.argmin
    print(f"argmin: {best.params}")
    print(f"total AAD_vw: {best.aad_total:.6f}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    paths = _economy_paths(args)
    economy = _load_economy(paths)
    scenario = load_scenario(args.scenario)
    params = _params_from_args(args)
    raw = default_distributions()
    if args.distributions:
        raw = parse_json(read_text(args.distributions), args.distributions)
    result = monte_carlo(
        economy, scenario, params, raw, n_runs=args.n, seed=args.seed,
        observable=args.observable,
    )
    out = Path(args.out)
    result.write_csv(out / "bands.csv")
    inputs = {**paths, "scenario": Path(args.scenario)}
    if args.distributions:
        inputs["distributions"] = Path(args.distributions)
    _write_manifest(
        out, "montecarlo",
        {"n": args.n, "seed": args.seed, "observable": args.observable,
         "distributions": raw},
        params, inputs,
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help and --version
            raise
        # argparse has printed the usage error; its exit code 2 would
        # read as a runtime failure here.
        return EXIT_VALIDATION
    try:
        return args.func(args)
    except (SchemaError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for detail in getattr(exc, "details", ()):
            print(f"  - {detail}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PnetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
