"""Write every data file shipped in ``src/pnetsim/data``; the record of how
the fixtures and the reference scenario were made.

* ``d2`` -- a two-sector desk example small enough to verify every number
  by hand;
* ``d3`` -- three sectors with one critical and one important input, the
  smallest network where the production-function variants differ;
* ``be64`` -- 63 sectors with Belgian NACE-64 codes. Sectoral
  accounts, inventory targets, and on-site flags use the published Belgian
  reference values; the inter-industry flow matrix and the input
  criticality ratings are synthetic (generated from a fixed seed via
  iterative proportional fitting against the published margins), since the
  source tables are not redistributable.

Per-sector Belgian rows (``SECTOR_TABLE``): lockdown shock magnitudes in
percent (labor supply during the first and second lockdowns, household
demand, exogenous demand), the on-site consumption flag, the targeted days
of input inventory, and the pre-pandemic annual accounts in million EUR
(gross output, household consumption, exogenous consumption, labor
compensation). The reference scenario puts these shocks on the 2020-2021
Belgian timeline below.

Generation is deterministic. From the repository root:

    python3 tests/golden/gen_fixtures.py            # rewrite src/pnetsim/data
    python3 tests/golden/gen_fixtures.py /tmp/out   # or another directory
"""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[2]
# Run from a checkout without an install: the checkout's package writes
# the checkout's data.
sys.path.insert(0, str(_ROOT / "src"))

from pnetsim._files import write_csv  # noqa: E402
from pnetsim.calibration import nace21_section  # noqa: E402
from pnetsim.economy import Economy, make_economy, write_economy  # noqa: E402
from pnetsim.shocks import Scenario, save_scenario  # noqa: E402

BE64_SEED = 20200301
# Suppliers rated critical, then important, for each be64 buyer.
N_CRITICAL, N_IMPORTANT = 4, 6

# code, eps_S_L1 %, eps_S_L2 %, eps_D %, eps_F %, on_site,
# n_days, x0, c0, f0, l0
SECTOR_TABLE = (
    ("A01",    6.5,  5.0, 10.0, 13.8, 0, 32.2, 16782,  2489,  3363,   491),
    ("A02",    6.5,  5.0, 10.0, 11.9, 0, 39.2,   648,    93,   163,    23),
    ("A03",    6.5,  5.0, 10.0, 14.8, 0, 73.4,   429,   206,    77,    28),
    ("B05-09", 6.5,  5.0, 10.0, 15.3, 0, 16.8, 24251,    25,  9447,   266),
    ("C10-12", 8.5,  3.0, 10.0, 15.0, 0, 38.5, 56386, 14792, 23096,  4324),
    ("C13-15", 61.0, 8.0, 10.0, 13.4, 0, 50.6, 12802,  3979,  6544,   880),
    ("C16",   30.0,  5.0, 10.0, 11.2, 0, 32.2,  4890,   228,  1672,   487),
    ("C17",   30.0,  5.0, 10.0, 14.1, 0, 28.8,  7857,   377,  3138,   642),
    ("C18",   28.1,  4.0, 10.0,  9.4, 0, 16.8,  3193,    63,   640,   674),
    ("C19",   14.0,  1.0, 10.0, 14.8, 0, 21.5, 32573,  3435, 15024,   233),
    ("C20",   14.0,  1.0, 10.0, 14.7, 0, 39.9, 62834,  1310, 39364,  3669),
    ("C21",   14.0,  1.0, 10.0, 14.9, 0, 47.6, 21378,  1304, 14566,  1548),
    ("C22",   19.0,  2.0, 10.0, 14.0, 0, 32.8, 14087,   559,  7425,  1410),
    ("C23",   19.0,  2.0, 10.0, 13.0, 0, 36.5,  8864,   351,  3015,  1491),
    ("C24",   15.0,  6.0, 10.0, 15.0, 0, 49.6, 29681,    49, 17145,  1975),
    ("C25",   15.0,  6.0, 10.0, 14.4, 0, 38.5, 14444,   246,  7317,  2274),
    ("C26",   13.5,  3.0, 10.0, 14.9, 0, 52.0, 15089,   803, 11006,   672),
    ("C27",   25.5,  8.0, 10.0, 14.9, 0, 46.3, 10145,  1134,  6066,  1007),
    ("C28",   25.5,  8.0, 10.0, 15.0, 0, 44.2, 23306,   223, 18380,  1812),
    ("C29",   57.0,  0.0, 10.0, 14.8, 0, 24.5, 42488,  3705, 31168,  1602),
    ("C30",   57.0,  0.0, 10.0, 15.1, 0, 64.4,  4474,   474,  3014,   425),
    ("C31-32", 67.5, 6.0, 10.0, 14.7, 0, 39.2, 17193,  2909, 12780,   721),
    ("C33",   28.1,  4.0, 10.0, 11.8, 0, 37.5,  8468,   214,  1920,  2325),
    ("D35",    0.0,  0.0,  0.0, 14.8, 0, 13.1, 19084,  5719,  4627,  2008),
    ("E36",    0.0,  0.0,  0.0, 14.8, 0,  5.7,  1233,   762,     0,   433),
    ("E37-39", 0.0,  0.0,  0.0,  7.6, 0, 11.7, 14748,  1255,  3681,  1581),
    ("F41-43", 43.5, 4.0, 10.0, 15.2, 0, 64.4, 68328,   609, 37917,  9383),
    ("G45",   42.7, 18.7, 80.0, 15.0, 1, 43.6, 11646,  4234,  4285,  3127),
    ("G46",   42.7, 18.7, 10.0, 15.0, 0, 18.4, 56373,  6329, 25408, 14907),
    ("G47",   42.7, 18.7, 10.0, 14.1, 1, 31.8, 23611, 22494,  1117,  8209),
    ("H49",   61.5,  6.0, 67.0, 14.9, 1,  1.7, 27054,  2217,  8686,  5460),
    ("H50",   61.5,  6.0, 67.0, 15.0, 1,  2.0,  5171,    10,  3027,   208),
    ("H51",   45.0,  1.0, 67.0, 15.0, 1,  1.7,  7891,   572,  2638,   477),
    ("H52",   14.0,  2.0,  0.0, 15.0, 1, 25.8, 31465,   263, 13833,  5370),
    ("H53",   61.5,  6.0,  0.0, 14.8, 1,  1.3,  4405,   191,   715,  1487),
    ("I55-56", 92.5, 70.0, 80.0, 80.0, 1, 7.4, 19527, 11300,  1693,  4036),
    ("J58",   16.0,  3.0,  0.0, 14.7, 0,  7.0,  6022,  1151,  1714,   802),
    ("J59-60", 16.0, 3.0,  0.0,  9.9, 0, 11.4,  5167,   868,  1500,   755),
    ("J61",   16.0,  3.0,  0.0, 15.0, 0,  6.0, 14003,  4335,  3237,  1797),
    ("J62-63", 16.0, 3.0,  0.0, 13.6, 0,  6.4, 21334,     0,  9662,  5509),
    ("K64",    2.5,  1.0,  0.0, 14.9, 0,  9.4, 20798,  3302,  2537,  3898),
    ("K65",    2.5,  1.0,  0.0, 14.9, 0,  9.7,  9448,  4150,   944,  2021),
    ("K66",    2.5,  1.0,  0.0, 15.0, 0,  9.4, 20464,  2691,  6250,  3569),
    ("L68",    0.0,  0.0,  0.0, 15.0, 1, 34.2, 46378, 33438,   214,  1166),
    ("M69-70", 17.0, 4.5,  0.0, 14.4, 1, 21.8, 20233,   546, 19687,  6691),
    ("M71",   17.0,  4.5,  0.0, 15.1, 0, 14.7, 13253,    94,  5477,  2433),
    ("M72",   17.0,  4.5,  0.0, 14.9, 0,  8.4, 20054,     0, 18169,  4925),
    ("M73",   17.0,  4.5,  0.0, 14.0, 0,  3.4,  9887,     3,  3821,   798),
    ("M74-75", 17.0, 4.5,  0.0, 14.6, 0,  8.4,  2779,   397,   322,   241),
    ("N77",   35.7,  4.3, 80.0, 80.0, 1,  3.4, 17691,  2292,  4093,  1214),
    ("N78",   15.5,  5.0,  0.0, 14.1, 0,  3.4,  7661,     0,    50,  6943),
    ("N79",   68.5, 45.0, 80.0, 80.0, 1,  3.4,  3225,  2770,    17,   365),
    ("N80-82", 24.0, 6.5,  0.0, 14.1, 0,  3.4, 13999,  1714,  2375,  5543),
    ("O84",    0.0,  0.0,  0.0,  0.7, 1,  9.4, 33807,  2729, 30292, 23682),
    ("P85",    0.0,  0.0,  0.0,  1.8, 1,  4.0, 27168,  1212, 24225, 21167),
    ("Q86",   40.0,  0.0,  0.0,  0.2, 1,  3.0, 32665,  6366, 22548, 10263),
    ("Q87-88", 40.0, 0.0,  0.0,  0.2, 1,  3.0, 15209,  6653,  8557, 11628),
    ("R90-92", 74.0, 57.0, 80.0, 80.0, 1, 2.3,  4914,  1983,  1886,  1279),
    ("R93",   74.0, 57.0, 80.0, 80.0, 1,  2.3,  2869,   961,   786,   622),
    ("S94",   74.0, 57.0, 10.0, 80.0, 1,  2.3,  6231,   115,  3090,  2437),
    ("S95",   28.1,  4.0, 10.0,  8.5, 1,  2.3,  1057,   582,    28,   106),
    ("S96",   74.0, 57.0, 80.0, 80.0, 1,  2.3,  3640,  3241,     7,   620),
    ("T97-98", 97.0, 85.0, 0.0, 14.8, 1,  9.4,   425,   425,     0,   425),
)

SECTOR_CODES = tuple(row[0] for row in SECTOR_TABLE)

# 2020-2021 Belgian pandemic timeline.
SIMULATION_START = date(2020, 3, 1)
KEY_DATES = (
    (date(2020, 3, 15), "lockdown_start"),
    (date(2020, 5, 4), "lockdown_end"),
    (date(2020, 10, 19), "lockdown_start"),
    (date(2020, 11, 16), "lockdown_light_start"),
    (date(2021, 5, 17), "lockdown_light_end"),
)

# Reference scalars: 70% of lost labor income reimbursed, one-week shock
# ramp-in, six-week ramp-out, residual shock ratio between lockdowns fixed
# at the midpoint of its plausible [0, 1] range.
FURLOUGH_FRACTION = 0.7
RAMP_IN_DAYS = 7.0
RAMP_OUT_DAYS = 42.0
INTER_LOCKDOWN_RATIO = 0.5


def shock_percentages() -> dict[str, tuple[float, float, float, float, int]]:
    """Per-code (eps_S_L1, eps_S_L2, eps_D, eps_F, on_site), percents."""
    return {row[0]: (row[1], row[2], row[3], row[4], row[5])
            for row in SECTOR_TABLE}


def inventory_days() -> dict[str, float]:
    return {row[0]: row[6] for row in SECTOR_TABLE}


def initial_accounts() -> dict[str, tuple[float, float, float, float]]:
    """Per-code (x0, c0, f0, l0) in million EUR per year."""
    return {row[0]: (float(row[7]), float(row[8]), float(row[9]), float(row[10]))
            for row in SECTOR_TABLE}


def data_dir() -> Path:
    return _ROOT / "src" / "pnetsim" / "data"


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
    accounts = initial_accounts()
    codes = SECTOR_CODES
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

    n_days = np.asarray([inventory_days()[c] for c in codes])
    shocks = shock_percentages()
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


# ---------------------------------------------------------------------------
# Reference scenario (Belgian 2020-2021 pandemic)
# ---------------------------------------------------------------------------

def reference_scenario() -> Scenario:
    shocks = shock_percentages()
    pct = np.asarray([shocks[c][:4] for c in SECTOR_CODES], dtype=float) / 100.0
    return Scenario(
        start_date=SIMULATION_START, key_dates=KEY_DATES, codes=SECTOR_CODES,
        eps_S_L1=pct[:, 0], eps_S_L2=pct[:, 1],
        eps_D_lockdown=pct[:, 2], eps_F_lockdown=pct[:, 3],
        r=INTER_LOCKDOWN_RATIO, b=FURLOUGH_FRACTION,
        l1=RAMP_IN_DAYS, l2=RAMP_OUT_DAYS,
    )


# ---------------------------------------------------------------------------
# File generation
# ---------------------------------------------------------------------------

def write_sector_mapping(path) -> Path:
    return write_csv(path, ["nace64", "nace21"],
                     ([code, nace21_section(code)] for code in SECTOR_CODES))


def generate_all(base_dir=None) -> dict[str, Path]:
    """Write every shipped data file; byte-identical across runs."""
    base = Path(base_dir) if base_dir is not None else data_dir()
    written = {}
    for name, build in (("d2", d2_economy), ("d3", d3_economy), ("be64", be64_economy)):
        paths = write_economy(build(), base / "fixtures" / name)
        written.update({f"{name}/{k}": v for k, v in paths.items()})
    written["scenario"] = save_scenario(
        reference_scenario(), base / "scenarios" / "be_covid_2020.json"
    )
    written["mapping"] = write_sector_mapping(base / "nace64_to_nace21.csv")
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else None
    for key, path in generate_all(target).items():
        print(f"{key}: {path}")
