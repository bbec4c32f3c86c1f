"""Deterministic synthetic economies and the reference scenario.

Three fixtures ship with the package:

* ``d2`` -- a two-sector desk example small enough to verify every number
  by hand;
* ``d3`` -- three sectors with one critical and one important input, the
  smallest network where the production-function variants differ;
* ``be64`` -- a 64-sector economy with Belgian NACE-64 codes. Sectoral
  accounts, inventory targets, and on-site flags use the published Belgian
  reference values; the inter-industry flow matrix and the input
  criticality ratings are synthetic (generated from a fixed seed via
  iterative proportional fitting against the published margins), since the
  source tables are not redistributable.

Regenerate everything with ``python -m pnetsim.fixtures <output-dir>``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import belgium
from ._files import write_csv
from .calibration import nace21_section
from .economy import Economy, make_economy, write_economy
from .shocks import Scenario, save_scenario

FIXTURE_NAMES = ("d2", "d3", "be64")
BE64_SEED = 20200301
# Suppliers rated critical, then important, for each be64 buyer.
N_CRITICAL, N_IMPORTANT = 4, 6

_DATA_DIR = Path(__file__).parent / "data"


def data_dir() -> Path:
    return _DATA_DIR


def fixture_dir(name: str) -> Path:
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    return _DATA_DIR / "fixtures" / name


def fixture_paths(name: str) -> dict[str, Path]:
    base = fixture_dir(name)
    return {
        "io_table": base / "io_table.csv",
        "initial_states": base / "initial_states.csv",
        "criticality": base / "criticality.csv",
    }


def reference_scenario_path() -> Path:
    return _DATA_DIR / "scenarios" / "be_covid_2020.json"


def sector_mapping_path() -> Path:
    return _DATA_DIR / "nace64_to_nace21.csv"


# ---------------------------------------------------------------------------
# Desk fixtures
# ---------------------------------------------------------------------------

def d2_economy() -> Economy:
    """Two sectors; all quantities chosen for hand verification."""
    return make_economy(
        codes=("X1", "X2"),
        Z=[[20.0, 30.0], [40.0, 10.0]],
        c0=[30.0, 40.0],
        f0=[30.0, 10.0],
        l0=[55.0, 50.0],
        n_days_inventory=[10.0, 5.0],
        criticality=np.zeros((2, 2)),
        on_site=[0, 0],
        x0=[110.0, 100.0],
    )


def d3_economy() -> Economy:
    """Three sectors; X1 is critical and X2 important for X3's production."""
    criticality = np.zeros((3, 3))
    criticality[0, 2] = 1.0
    criticality[1, 2] = 0.5
    return make_economy(
        codes=("S1", "S2", "S3"),
        Z=[[10.0, 20.0, 30.0], [15.0, 5.0, 20.0], [25.0, 10.0, 5.0]],
        c0=[25.0, 30.0, 20.0],
        f0=[15.0, 10.0, 12.0],
        l0=[50.0, 40.0, 30.0],
        n_days_inventory=[8.0, 6.0, 9.0],
        criticality=criticality,
        on_site=[0, 1, 0],
        x0=[100.0, 80.0, 72.0],
    )


# ---------------------------------------------------------------------------
# 64-sector synthetic economy
# ---------------------------------------------------------------------------

def be64_economy() -> Economy:
    """Synthetic Belgian-style network fitted to the published margins.

    Row totals of the flow matrix reproduce each sector's intermediate
    sales (output minus final demand); column totals take a uniform
    intermediate-cost share, keeping every technical-coefficient column
    sum well below one.
    """
    accounts = belgium.initial_accounts()
    codes = belgium.SECTOR_CODES
    n = len(codes)
    x_ref = np.asarray([accounts[c][0] for c in codes], dtype=float)
    c0 = np.asarray([accounts[c][1] for c in codes], dtype=float)
    f0 = np.asarray([accounts[c][2] for c in codes], dtype=float)
    l0 = np.asarray([accounts[c][3] for c in codes], dtype=float)

    # Intermediate sales implied by the accounts; published rounding can
    # leave a unit-level negative residual, clamped to zero.
    rows = np.maximum(x_ref - c0 - f0, 0.0)
    cols = x_ref * (rows.sum() / x_ref.sum())

    rng = np.random.default_rng(BE64_SEED)
    W = np.outer(rows, cols) * rng.lognormal(mean=0.0, sigma=0.8, size=(n, n))
    for _ in range(200):
        rsum = W.sum(axis=1)
        W *= np.where(rows > 0, rows / np.where(rsum > 0, rsum, 1.0), 0.0)[:, None]
        csum = W.sum(axis=0)
        W *= np.where(cols > 0, cols / np.where(csum > 0, csum, 1.0), 0.0)[None, :]
    rsum = W.sum(axis=1)
    W *= np.where(rows > 0, rows / np.where(rsum > 0, rsum, 1.0), 0.0)[:, None]

    n_days = np.asarray([belgium.inventory_days()[c] for c in codes])
    shocks = belgium.shock_percentages()
    on_site = np.asarray([shocks[c][4] for c in codes], dtype=bool)

    economy = make_economy(
        codes=codes, Z=W, c0=c0, f0=f0, l0=l0,
        n_days_inventory=n_days,
        criticality=_synthetic_criticality(W, x_ref, on_site),
        on_site=on_site,
    )
    return economy


def _synthetic_criticality(Z: np.ndarray, x_ref: np.ndarray,
                           on_site: np.ndarray) -> np.ndarray:
    """Rate each buyer's largest upstream cost shares critical, next important.

    Sectors whose consumption happens on site (hospitality, recreation,
    personal services) are never rated as production-critical inputs: a
    closed restaurant does not halt a construction site.
    """
    share = Z / np.where(x_ref > 0, x_ref, 1.0)[np.newaxis, :]
    crit = np.zeros_like(Z)
    for j in range(Z.shape[1]):
        col = np.where(~on_site & (share[:, j] > 0), share[:, j], 0.0)
        ranked = [i for i in np.argsort(col)[::-1] if col[i] > 0]
        for i in ranked[:N_CRITICAL]:
            crit[i, j] = 1.0
        for i in ranked[N_CRITICAL:N_CRITICAL + N_IMPORTANT]:
            crit[i, j] = 0.5
    return crit


def fixture_economy(name: str) -> Economy:
    builders = {"d2": d2_economy, "d3": d3_economy, "be64": be64_economy}
    if name not in builders:
        raise ValueError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    return builders[name]()


# ---------------------------------------------------------------------------
# Reference scenario (Belgian 2020-2021 pandemic)
# ---------------------------------------------------------------------------

def _belgian_timeline(**fields) -> Scenario:
    """A scenario on the Belgian key dates, residual ratio, furlough
    fraction and ramp lengths; ``fields`` gives its sectors and shocks and
    may override any other field."""
    return Scenario(**{
        "start_date": belgium.SIMULATION_START,
        "key_dates": belgium.KEY_DATES,
        "r": belgium.INTER_LOCKDOWN_RATIO,
        "b": belgium.FURLOUGH_FRACTION,
        "l1": belgium.RAMP_IN_DAYS,
        "l2": belgium.RAMP_OUT_DAYS,
        **fields,
    })


def reference_scenario() -> Scenario:
    shocks = belgium.shock_percentages()
    codes = belgium.SECTOR_CODES
    pct = np.asarray([shocks[c][:4] for c in codes], dtype=float) / 100.0
    return _belgian_timeline(codes=codes, eps_S_L1=pct[:, 0], eps_S_L2=pct[:, 1],
                             eps_D_lockdown=pct[:, 2], eps_F_lockdown=pct[:, 3])


def scenario_for(economy: Economy, **overrides) -> Scenario:
    """Reference-shaped scenario restricted to the economy's sectors.

    For desk fixtures whose codes are not NACE, shocks default to zero and
    can be overridden per field (fractions in [0, 1]).
    """
    zeros = np.zeros(economy.n_sectors)
    return _belgian_timeline(**{
        "codes": tuple(economy.codes),
        "eps_S_L1": zeros, "eps_S_L2": zeros,
        "eps_D_lockdown": zeros, "eps_F_lockdown": zeros,
        **overrides,
    })


# ---------------------------------------------------------------------------
# File generation
# ---------------------------------------------------------------------------

def write_sector_mapping(path) -> Path:
    return write_csv(path, ["nace64", "nace21"],
                     ([code, nace21_section(code)] for code in belgium.SECTOR_CODES))


def generate_all(base_dir=None) -> dict[str, Path]:
    """Write every shipped data file; byte-identical across runs."""
    base = Path(base_dir) if base_dir is not None else _DATA_DIR
    written = {}
    for name in FIXTURE_NAMES:
        economy = fixture_economy(name)
        paths = write_economy(economy, base / "fixtures" / name)
        written.update({f"{name}/{k}": v for k, v in paths.items()})
    written["scenario"] = save_scenario(
        reference_scenario(), base / "scenarios" / "be_covid_2020.json"
    )
    written["mapping"] = write_sector_mapping(base / "nace64_to_nace21.csv")
    return written


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else None
    for key, path in generate_all(target).items():
        print(f"{key}: {path}")
