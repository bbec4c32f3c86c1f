"""The data files shipped with the package, and loaders for them.

Three fixture economies ship in ``data/fixtures``:

* ``d2`` -- a two-sector desk example small enough to verify every number
  by hand;
* ``d3`` -- three sectors with one critical and one important input, the
  smallest network where the production-function variants differ;
* ``be64`` -- 63 sectors with Belgian NACE-64 codes: published
  Belgian accounts, inventory targets and on-site flags, with a synthetic
  flow matrix and criticality ratings.

``data/scenarios/be_covid_2020.json`` is the Belgian 2020-2021 reference
scenario, and ``data/nace64_to_nace21.csv`` maps be64's codes to NACE-21
sections. Everything here loads those files. How they were made is
recorded in ``tests/golden/gen_fixtures.py``, which writes them all.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .economy import Economy, load_economy
from .errors import ValidationError
from .shocks import Scenario, load_scenario

FIXTURE_NAMES = ("d2", "d3", "be64")

_DATA_DIR = Path(__file__).parent / "data"


def fixture_paths(name: str) -> dict[str, Path]:
    if name not in FIXTURE_NAMES:
        raise ValidationError(f"unknown fixture {name!r}; expected one of {FIXTURE_NAMES}")
    base = _DATA_DIR / "fixtures" / name
    return {
        "io_table": base / "io_table.csv",
        "initial_states": base / "initial_states.csv",
        "criticality": base / "criticality.csv",
    }


def reference_scenario_path() -> Path:
    return _DATA_DIR / "scenarios" / "be_covid_2020.json"


def sector_mapping_path() -> Path:
    return _DATA_DIR / "nace64_to_nace21.csv"


def fixture_economy(name: str) -> Economy:
    return load_economy(*fixture_paths(name).values())


def reference_scenario() -> Scenario:
    return load_scenario(reference_scenario_path())


def scenario_for(economy: Economy, **overrides) -> Scenario:
    """The reference scenario's timeline, ratio, furlough fraction and ramp
    lengths over the economy's sectors.

    For desk fixtures whose codes are not NACE, shocks default to zero and
    can be overridden per field (fractions in [0, 1]).
    """
    zeros = np.zeros(economy.n_sectors)
    return replace(reference_scenario(), **{
        "codes": tuple(economy.codes),
        "eps_S_L1": zeros, "eps_S_L2": zeros,
        "eps_D_lockdown": zeros, "eps_F_lockdown": zeros,
        **overrides,
    })
