"""Scoring against empirical indicators, grid search, and Monte Carlo runs.

Four indicator families are supported: business-to-business transaction
volumes (proxied by each sector's outgoing realized orders, aggregated to
NACE-21), synthetic GDP and survey revenue (both proxied by gross output),
and survey employment (proxied by labor compensation). Model series are
normalized to percentage reduction against the pre-shock baseline,
averaged per calendar quarter, and compared to the data with the
value-weighted average absolute deviation (accuracy) and the signed
average deviation (bias; positive when the model is too optimistic).
A cell, one (indicator, quarter), scores the sectors the dataset names in
that quarter that have a positive baseline. Which sectors those are, and
their data and weights, is decided once per grid (``_Scorer``); each
point then only gathers its quarter means at those sectors.

Scoring, grid search, dataset synthesis and Monte Carlo runs all simulate
the daily discrete model (unit steps, one sample per whole day), and
scoring and synthesis cover ``DEFAULT_QUARTERS``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from ._files import keyed_once, parse_json, read_csv, read_text, write_csv
from .dynamics import PRODUCTION_FUNCTIONS, BehavioralParams
from .economy import Economy
from .errors import CheckpointError, SchemaError, ValidationError
from .integrate import (  # noqa: F401 - simulate: perfbench traces it here
    AGGREGATE_CODE,
    SERIES,
    Trajectory,
    _output_grid,
    simulate,
    simulate_series,
)
from .shocks import Scenario, ShockSchedule, aggregate_shock

log = logging.getLogger(__name__)

INDICATORS = ("b2b", "gdp", "revenue", "employment")
DEFAULT_QUARTERS = ("2020Q2", "2020Q3", "2020Q4", "2021Q1")

#: Decimal places kept when storing scores; fixes the argmin across
#: platforms and across checkpoint round-trips.
SCORE_DECIMALS = 12

#: The model series scoring reads: gross output, labor, outgoing B2B orders.
SCORED_SERIES = ("x", "l", "b2b")

#: Most grid points or Monte Carlo draws simulated together in one batched
#: pass. Larger chunks save little more per point and cost memory.
CHUNK_POINTS = 16

CONSUMER_FACING = ("I55-56", "N77", "N79", "R90-92", "R93", "S94", "S96")
RETAIL = ("G46", "G47")


def quarter_of(d: date) -> str:
    return f"{d.year}Q{(d.month - 1) // 3 + 1}"


def quarter_end(label: str) -> date:
    year, q = int(label[:4]), int(label[5])
    month = 3 * q
    if month == 12:
        return date(year, 12, 31)
    return date(year, month + 1, 1) - timedelta(days=1)


def quarterly_average(series, quarters) -> dict[str, float]:
    """Mean of (date, value) observations per requested calendar quarter."""
    buckets: dict[str, list[float]] = {q: [] for q in quarters}
    for d, value in series:
        label = quarter_of(d)
        if label in buckets:
            buckets[label].append(float(value))
    out = {}
    for q in quarters:
        if buckets[q]:
            out[q] = float(np.mean(buckets[q]))
        else:
            log.info("no observations in quarter %s; cell excluded", q)
    return out


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def aad_vw(
    model: dict[str, float],
    data: dict[str, float],
    weights: dict[str, float],
) -> tuple[float, float]:
    """Value-weighted average absolute deviation and signed bias.

    Returns ``(aad, ad)`` where ``ad > 0`` means the model predicts a
    smaller reduction than observed (too optimistic).
    """
    if set(model) != set(data) or set(model) != set(weights.keys() & model.keys()):
        raise ValueError("model, data, and weights must cover the same sectors")
    sectors = sorted(model)
    w = np.asarray([weights[s] for s in sectors], dtype=float)
    if w.sum() <= 0:
        raise ValueError("weights sum to zero")
    return _aad(np.asarray([model[s] for s in sectors], dtype=float),
                np.asarray([data[s] for s in sectors], dtype=float), w)


def _aad(m: np.ndarray, d: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """``aad_vw`` of model, data and weight vectors in one sector order."""
    total = w.sum()
    return (float(np.sum(w * np.abs(d - m)) / total),
            float(np.sum(w * (m - d)) / total))


def total_aad(cells: dict[tuple[str, str], tuple[float, float]]) -> float:
    """Unweighted mean of per-(indicator, quarter) accuracy scores."""
    if not cells:
        raise ValueError("no scored cells")
    return float(np.mean([aad for aad, _ in cells.values()]))


# ---------------------------------------------------------------------------
# Empirical dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalDataset:
    """Observations of percentage reduction vs pre-pandemic levels.

    ``observations`` maps indicator -> list of (date, sector, value_pct),
    negative values meaning contraction.
    """

    observations: dict[str, list[tuple[date, str, float]]]

    @property
    def indicators(self) -> tuple[str, ...]:
        return tuple(k for k in INDICATORS if k in self.observations)

    def quarterly(self, indicator: str, quarters) -> dict[tuple[str, str], float]:
        """Per-(sector, quarter) means for one indicator."""
        per_sector: dict[str, list[tuple[date, float]]] = {}
        for d, sector, value in self.observations.get(indicator, []):
            per_sector.setdefault(sector, []).append((d, value))
        out = {}
        for sector, series in per_sector.items():
            for q, value in quarterly_average(series, quarters).items():
                out[(sector, q)] = value
        return out


DATASET_COLUMNS = ("indicator", "date", "sector", "value_pct")


def load_dataset(path) -> EmpiricalDataset:
    """Read a dataset CSV; a value that is not a finite number and an
    (indicator, date, sector) observation listed twice are refused."""
    _, rows = read_csv(path, DATASET_COLUMNS)
    observations: dict[str, list[tuple[date, str, float]]] = {}
    for k, (ind, day, sector, value) in enumerate(rows, start=2):
        if ind not in INDICATORS:
            raise SchemaError(f"{path}: unknown indicator {ind!r} on line {k}")
        try:
            pct = float(value)
            if not np.isfinite(pct):
                raise ValueError(f"value_pct {value!r} is not finite")
            observations.setdefault(ind, []).append(
                (date.fromisoformat(day), sector, pct))
        except ValueError as exc:
            raise SchemaError(f"{path}: line {k}: {exc}") from None
    keyed_once(path, (((ind, d.isoformat(), sector), None)
                      for ind, obs in observations.items() for d, sector, _ in obs),
               "observation")
    return EmpiricalDataset(observations)


def save_dataset(dataset: EmpiricalDataset, path) -> Path:
    return write_csv(path, DATASET_COLUMNS, (
        [ind, d.isoformat(), sector, repr(float(value))]
        for ind in INDICATORS
        for d, sector, value in dataset.observations.get(ind, [])
    ))


# ---------------------------------------------------------------------------
# Model-to-indicator mapping
# ---------------------------------------------------------------------------

def nace21_section(code: str, mapping: dict[str, str] | None = None) -> str:
    """The NACE-21 section of sector ``code``: its entry in ``mapping``,
    else the code's section letter."""
    return (mapping or {}).get(code, code[0])


def load_sector_mapping(path) -> dict[str, str]:
    """Read a ``nace64,nace21`` mapping CSV; a code listed twice is refused."""
    _, rows = read_csv(path, ("nace64", "nace21"))
    return keyed_once(path, rows)


def _pct_reduction(series: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """100 * (v(t) - v(0)) / v(0); columns with zero baseline become NaN."""
    safe = np.where(baseline > 0, baseline, 1.0)
    pct = 100.0 * (series - baseline[np.newaxis, :]) / safe
    pct[:, baseline <= 0] = np.nan
    return pct


class _QuarterFrame:
    """Calendar quarters of the sample times and the NACE-21 grouping: the
    parts of ``model_quarterly`` that do not depend on the run.
    ``quarters`` keeps the requested quarters that hold a sample, and
    ``columns`` names each indicator's columns: sector codes, or the sorted
    NACE-21 groups for ``b2b``."""

    def __init__(self, times, start_date: date, economy: Economy,
                 mapping: dict[str, str] | None, quarters):
        labels = [quarter_of(start_date + timedelta(days=float(t))) for t in times]
        masks = [(q, np.asarray([lab == q for lab in labels])) for q in quarters]
        self.quarters = tuple(q for q, sel in masks if sel.any())
        self.in_quarter = [(sel, int(sel.sum())) for _, sel in masks if sel.any()]
        sections = [nace21_section(c, mapping) for c in economy.codes]
        groups = sorted(set(sections))
        self.columns = {ind: groups if ind == "b2b" else economy.codes
                        for ind in INDICATORS}
        gindex = {g: k for k, g in enumerate(groups)}
        self.member = np.zeros((len(economy.codes), len(groups)))
        for i, group in enumerate(sections):
            self.member[i, gindex[group]] = 1.0

    def means(self, X: np.ndarray, L: np.ndarray,
              B: np.ndarray) -> dict[str, np.ndarray]:
        """Each indicator's (quarter, column) mean percentage reduction, from
        (time, sector) series of gross output, labor and outgoing B2B orders.
        A column whose day-0 value is not positive holds NaN. A quarter's
        mean adds its days in day order, then divides by their number."""
        out = []
        for values in (X, L, B @ self.member):
            pct = _pct_reduction(values, values[0])
            out.append(np.array([pct[sel].sum(axis=0) / n
                                 for sel, n in self.in_quarter]))
        x, l, b2b = out
        return {"b2b": b2b, "gdp": x, "revenue": x, "employment": l}

    def tables(self, X: np.ndarray, L: np.ndarray, B: np.ndarray):
        """``means`` as one dict per indicator, keyed by (column, quarter),
        without the NaN columns."""
        return {ind: {(name, q): v for q, row in zip(self.quarters, m.tolist())
                      for name, v in zip(self.columns[ind], row) if v == v}  # not NaN
                for ind, m in self.means(X, L, B).items()}


def model_quarterly(
    traj: Trajectory,
    economy: Economy,
    mapping: dict[str, str] | None,
    quarters,
) -> dict[str, dict[tuple[str, str], float]]:
    """Quarterly-averaged percentage reductions of the model proxies."""
    frame = _QuarterFrame(traj.times, traj.start_date, economy, mapping, quarters)
    return frame.tables(*(traj.series(SERIES[name]) for name in SCORED_SERIES))


def indicator_weights(
    economy: Economy, indicator: str, mapping: dict[str, str] | None = None
) -> dict[str, float]:
    """Pre-pandemic size used to weight each sector in the objective."""
    if indicator in ("gdp", "revenue"):
        return {c: float(economy.x0[i]) for i, c in enumerate(economy.codes)}
    if indicator == "employment":
        return {c: float(economy.l0[i]) for i, c in enumerate(economy.codes)}
    if indicator == "b2b":
        rows = economy.Z.sum(axis=1)
        weights: dict[str, float] = {}
        for i, code in enumerate(economy.codes):
            group = nace21_section(code, mapping)
            weights[group] = weights.get(group, 0.0) + float(rows[i])
        return weights
    raise ValueError(f"unknown indicator {indicator!r}")


# ---------------------------------------------------------------------------
# Scoring one parameter point
# ---------------------------------------------------------------------------

@dataclass
class PointScore:
    index: int
    params: dict
    aad_total: float
    cells: dict[tuple[str, str], tuple[float, float]]


def horizon_for(scenario: Scenario, quarters) -> float:
    """Days from the scenario epoch to the end of the last scored quarter."""
    last = max(quarter_end(q) for q in quarters)
    return float((last - scenario.start_date).days)


def _simulate_scored(economy: Economy, runs, scenario: Scenario):
    """The ``SCORED_SERIES`` of ``runs`` (sharing ``scenario``'s start
    date), sampled daily to the end of ``DEFAULT_QUARTERS``."""
    return simulate_series(economy, runs, horizon_for(scenario, DEFAULT_QUARTERS),
                           SCORED_SERIES)


class _Scorer:
    """How each (indicator, quarter) cell of a dataset is scored, decided
    once per grid: the cell's row of the quarter means of ``scenario``'s
    daily samples, its columns in ``aad_vw``'s sorted order, and its data
    and weight vectors. A column scores when the dataset has it in that
    quarter, it is not ``AGGREGATE_CODE`` and its indicator weight is
    positive. Each weight is the column's day-0 value (``x0``, ``l0`` or the
    grouped row sums of ``Z``), so a scored column has a positive baseline.
    Per point, ``score`` reads the quarter means at those columns. A dataset
    that scores no cell raises ``ValidationError``."""

    def __init__(self, economy: Economy, dataset: EmpiricalDataset,
                 mapping: dict[str, str] | None, scenario: Scenario):
        times = _output_grid(horizon_for(scenario, DEFAULT_QUARTERS))
        self.frame = _QuarterFrame(times, scenario.start_date, economy, mapping,
                                   DEFAULT_QUARTERS)
        self._cells = []
        for ind in dataset.indicators:
            data_q = dataset.quarterly(ind, DEFAULT_QUARTERS)
            weights = indicator_weights(economy, ind, mapping)
            position = {name: j for j, name in enumerate(self.frame.columns[ind])}
            for row, q in enumerate(self.frame.quarters):
                sectors = sorted(s for (s, qq) in data_q if qq == q
                                 and s != AGGREGATE_CODE and weights.get(s, 0.0) > 0)
                if not sectors:
                    log.info("no scorable sectors for %s %s; cell skipped", ind, q)
                    continue
                self._cells.append((ind, q, row,
                                    np.array([position[s] for s in sectors]),
                                    np.array([data_q[(s, q)] for s in sectors]),
                                    np.array([weights[s] for s in sectors])))
        if not self._cells:
            raise ValidationError(
                "the dataset scores no cell: none of its sectors is in the economy "
                "with a positive baseline in a scored quarter")

    def score(self, series: dict[str, np.ndarray]) -> PointScore:
        """Score one run's ``SCORED_SERIES``, each a (time, sector) array
        sampled at this scorer's times."""
        means = self.frame.means(*(series[name] for name in SCORED_SERIES))
        cells = {(ind, q): _aad(means[ind][row, cols], d, w)
                 for ind, q, row, cols, d, w in self._cells}
        return PointScore(index=-1, params={}, aad_total=total_aad(cells), cells=cells)


def score_point(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    dataset: EmpiricalDataset,
    mapping: dict[str, str] | None = None,
    *,
    series: dict[str, np.ndarray] | None = None,
    scorer: _Scorer | None = None,
) -> PointScore:
    """Simulate one parameter set and score it against the dataset.

    Every point is scored by ``_Scorer.score``. ``grid_search`` passes the
    point's ``series`` from a batched simulation (the ``SCORED_SERIES``,
    each a (time, sector) array) and the ``scorer`` it prepared once for
    all points; without them, the scorer is built here and the series come
    from ``simulate_series``. The score is the same either way.
    """
    if scorer is None:
        scorer = _Scorer(economy, dataset, mapping, scenario)
    if series is None:
        run = _simulate_scored(economy, [(scenario, params)], scenario)
        series = {name: v[0] for name, v in run.values.items()}
    return scorer.score(series)


# ---------------------------------------------------------------------------
# Parameter grid
# ---------------------------------------------------------------------------

GRID_AXIS_ORDER = (
    "prod_fn",
    "eps_D_abc",
    "eps_D_retail",
    "eps_D_consumer_facing",
    "eps_F_aggregate",
    "tau",
    "gamma_F",
    "l2",
)


@dataclass(frozen=True)
class GridSpec:
    """Ordered axes of a full-factorial parameter grid."""

    axes: tuple[tuple[str, tuple], ...]

    def __post_init__(self):
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate grid axis names")
        for name, values in self.axes:
            if not values:
                raise ValidationError(f"axis {name!r} has no values")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(values) for _, values in self.axes)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape)) if self.axes else 0

    def point_at(self, index: int) -> dict:
        if not 0 <= index < self.n_points:
            raise IndexError(index)
        point = {}
        remainder = index
        for (name, values), size in zip(reversed(self.axes), reversed(self.shape)):
            remainder, k = divmod(remainder, size)
            point[name] = values[k]
        return dict(reversed(list(point.items())))

    def __iter__(self):
        for i in range(self.n_points):
            yield i, self.point_at(i)

    def to_json(self) -> str:
        return json.dumps(
            {"axes": [[name, list(values)] for name, values in self.axes]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        """The grid of a grid JSON text; a key listed twice, or an axis
        whose values are not a JSON array, is refused."""
        raw = parse_json(text, "malformed grid spec")
        try:
            axes = tuple((str(name), values) for name, values in raw["axes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed grid spec: {exc}") from None
        for name, values in axes:
            if not isinstance(values, list):
                raise SchemaError(f"malformed grid spec: axis {name!r} values "
                                  "are not a JSON array")
        return cls(tuple((name, tuple(values)) for name, values in axes))


def load_grid(path) -> GridSpec:
    text = read_text(path)
    try:
        return GridSpec.from_json(text)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def default_grid() -> GridSpec:
    """The full eight-parameter sensitivity grid (1,555,200 points)."""
    return GridSpec((
        ("prod_fn", PRODUCTION_FUNCTIONS),
        ("eps_D_abc", (0.0, 0.10, 0.20, 0.30, 0.40, 0.50)),
        ("eps_D_retail", (0.0, 0.10, 0.20, 0.30, 0.40, 0.50)),
        ("eps_D_consumer_facing", (0.75, 0.80, 0.85, 0.90, 0.95, 1.0)),
        ("eps_F_aggregate", (0.0, 0.025, 0.05, 0.075, 0.10, 0.125, 0.15, 0.175)),
        ("tau", (1.0, 7.0, 14.0, 21.0, 28.0, 35.0)),
        ("gamma_F", (1.0, 7.0, 14.0, 21.0, 28.0, 35.0)),
        ("l2", (28.0, 35.0, 42.0, 49.0, 56.0)),
    ))


def scale_to_aggregate(eps: np.ndarray, weights: np.ndarray, target: float) -> np.ndarray:
    """Rescale a shock vector so its value-weighted aggregate hits ``target``,
    in [0, 1]. No sector's shock exceeds 1: the scaled vector is clipped
    there, so a large target falls short (on be64, 0.175 gives 0.17473)."""
    if not 0.0 <= target <= 1.0:
        raise ValidationError(f"aggregate shock {target} outside [0, 1]")
    current = aggregate_shock(eps, weights)
    if current <= 0:
        if target == 0:
            return np.zeros_like(eps)
        raise ValueError("cannot scale an all-zero shock vector to a nonzero target")
    return np.clip(eps * (target / current), 0.0, 1.0)


def _demand_group(member):
    """Overlay: the lockdown demand shock of the sectors ``member`` picks."""
    def overlay(eps_D, value, scenario, *_):
        eps_D = np.array(eps_D)
        eps_D[np.asarray([member(c) for c in scenario.codes])] = value
        return eps_D
    return overlay


def _final_demand_aggregate(eps_F, value, scenario, economy):
    """Overlay: the lockdown final-demand shock, rescaled to the aggregate
    ``value`` under the economy's final demand in scenario order."""
    f0 = np.empty(len(scenario.codes))
    f0[scenario.index_for(economy.codes)] = economy.f0
    return scale_to_aggregate(eps_F, f0, float(value))


def _as_float(old, value, *_):
    return float(value)


def _scaled_labor_shock(old, value, *_):
    """Overlay: labor shocks scaled by ``value`` >= 0, each clipped at 1."""
    if not value >= 0.0:
        raise ValidationError(f"eps_S_scale = {value} must be at least 0")
    return np.clip(old * value, 0.0, 1.0)


def _daily_rho(old, value, *_):
    """Overlay: the daily ``rho`` for the quarterly one ``value`` in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"rho_quarters = {value} outside [0, 1]")
    return min(1.0 - (1.0 - float(value)) / 90.0, 1.0 - 1e-12)


#: How a grid point or a Monte Carlo draw changes (scenario, params): each
#: name sets one or more fields, ``(target, field, overlay)``, where
#: ``overlay(old, value, scenario, economy)`` gives the field's new value.
_OVERLAYS = {
    "prod_fn": (("params", "prod_fn", lambda old, value, *_: value),),
    "eps_D_abc": (("scenario", "eps_D_lockdown", _demand_group(
        lambda c: nace21_section(c) in ("A", "B", "C"))),),
    "eps_D_retail": (("scenario", "eps_D_lockdown",
                      _demand_group(lambda c: c in RETAIL)),),
    "eps_D_consumer_facing": (("scenario", "eps_D_lockdown",
                               _demand_group(lambda c: c in CONSUMER_FACING)),),
    "eps_F_aggregate": (("scenario", "eps_F_lockdown", _final_demand_aggregate),),
    "eps_S_scale": tuple(("scenario", field, _scaled_labor_shock)
                         for field in ("eps_S_L1", "eps_S_L2")),
    "rho_quarters": (("params", "rho", _daily_rho),),
    **{name: (("scenario", name, _as_float),) for name in ("l1", "l2", "r", "b")},
    **{name: (("params", name, _as_float),)
       for name in ("tau", "gamma_F", "delta_s", "L_share")},
}


def _overlay(economy, scenario: Scenario, params: BehavioralParams,
             values: dict, allowed, kind: str) -> tuple[Scenario, BehavioralParams]:
    """Apply ``values`` (names in ``allowed``) through ``_OVERLAYS``."""
    unknown = sorted(set(values) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {kind} parameters: {unknown}")
    bases = {"scenario": scenario, "params": params}
    fields = {"scenario": {}, "params": {}}
    for name, value in values.items():
        for target, field, overlay in _OVERLAYS[name]:
            changed = fields[target]
            old = changed.get(field, getattr(bases[target], field))
            changed[field] = overlay(old, value, scenario, economy)
    return (replace(scenario, **fields["scenario"]),
            replace(params, **fields["params"]))


def apply_grid_point(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    point: dict,
) -> tuple[Scenario, BehavioralParams]:
    """Overlay one grid point (axes of ``GRID_AXIS_ORDER``) onto a scenario
    template and parameter set."""
    return _overlay(economy, scenario, params, point, GRID_AXIS_ORDER, "grid")


def _tiebreak_key(params: dict) -> tuple:
    return tuple(
        PRODUCTION_FUNCTIONS.index(params[name]) if name == "prod_fn"
        else float(params[name])
        for name in GRID_AXIS_ORDER if name in params
    )


def _rank_key(score: PointScore) -> tuple:
    """Order of grid results: stored score, then the grid's axis order."""
    return (score.aad_total, _tiebreak_key(score.params))


# ---------------------------------------------------------------------------
# Grid search with checkpointing
# ---------------------------------------------------------------------------

@dataclass
class CalibrationResult:
    grid: GridSpec
    scores: list[PointScore]  # ordered by grid index

    @property
    def argmin(self) -> PointScore:
        return min(self.scores, key=_rank_key)

    def write_leaderboard(self, path) -> Path:
        names = [name for name, _ in self.grid.axes]
        ordered = sorted(self.scores, key=_rank_key)
        return write_csv(path, ["rank", "grid_index", "aad_total"] + names, (
            [rank, score.index, repr(score.aad_total)]
            + [score.params.get(n, "") for n in names]
            for rank, score in enumerate(ordered, start=1)
        ))

    def write_optimum_cells(self, path) -> Path:
        """Accuracy/bias matrix of the best point, one row per indicator."""
        return write_csv(path, ["indicator", "quarter", "aad_vw", "ad_vw"], (
            [ind, q, repr(aad), repr(ad)]
            for (ind, q), (aad, ad) in sorted(self.argmin.cells.items())
        ))


def _rounded(score: PointScore, index: int, params: dict) -> PointScore:
    """What grid point ``index`` at ``params`` stores: ``score`` rounded once."""
    return PointScore(
        index=index,
        params=params,
        aad_total=round(score.aad_total, SCORE_DECIMALS),
        cells={
            key: (round(aad, SCORE_DECIMALS), round(ad, SCORE_DECIMALS))
            for key, (aad, ad) in score.cells.items()
        },
    )


def _checkpoint_record(score: PointScore) -> str:
    return json.dumps({
        "index": score.index,
        "params": score.params,
        "aad_total": score.aad_total,
        "cells": {f"{ind}|{q}": list(v) for (ind, q), v in score.cells.items()},
    })


def _parse_record(text: bytes) -> PointScore:
    raw = json.loads(text)
    cells = {}
    for key, (aad, ad) in raw["cells"].items():
        ind, q = key.split("|", 1)
        cells[(ind, q)] = (float(aad), float(ad))
    return PointScore(
        index=int(raw["index"]),
        params=raw["params"],
        aad_total=float(raw["aad_total"]),
        cells=cells,
    )


def _read_checkpoint(path: Path, inputs_hash: str) -> tuple[dict[int, PointScore], int]:
    """Completed points, and the length in bytes of the file's intact part.

    A record is complete once its newline is written. A final record that
    is unterminated or unreadable is what a crash during an append leaves;
    it is dropped and lies outside the intact part. A header whose hash is
    not ``inputs_hash`` and damage anywhere else raise ``CheckpointError``.
    """
    completed: dict[int, PointScore] = {}
    with path.open("rb") as fh:
        header = fh.readline()
        try:
            if not header.endswith(b"\n"):
                raise ValueError("unterminated header")
            stored_hash = json.loads(header).get("inputs_hash")
        except (ValueError, AttributeError):
            raise CheckpointError(f"{path}: unreadable checkpoint header") from None
        if stored_hash != inputs_hash:
            raise CheckpointError(f"{path}: checkpoint was written for other "
                                  "inputs or by an earlier version")
        intact = len(header)
        line = fh.readline()
        lineno = 2
        while line:
            following = fh.readline()
            try:
                if not line.endswith(b"\n"):
                    raise ValueError("unterminated record")
                score = _parse_record(line) if line.strip() else None
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                if following:
                    raise CheckpointError(
                        f"{path}: corrupt record on line {lineno} ({exc})"
                    ) from None
                log.warning("%s: dropping a torn final record (%s)", path, exc)
                break
            if score is not None:
                completed[score.index] = score
            intact += len(line)
            line = following
            lineno += 1
    return completed, intact


@dataclass(frozen=True)
class _GridJob:
    """What scoring a chunk of grid points needs; sent to each worker once."""

    economy: Economy
    scenario: Scenario
    params: BehavioralParams
    dataset: EmpiricalDataset
    grid: GridSpec
    mapping: dict[str, str] | None
    scorer: _Scorer

    def inputs_hash(self) -> str:
        """SHA-256 of all the job carries but the scorer (made from the
        rest): one JSON text per input, fed in a fixed order. One text at a
        time and arrays as bytes keep the transient memory small."""
        e = self.economy
        h = hashlib.sha256()
        for part in ([[name, list(values)] for name, values in self.grid.axes],
                     vars(self.params), vars(self.scenario), e.codes, e.Z, e.x0,
                     e.c0, e.f0, e.l0, e.n_days_inventory, e.criticality,
                     e.on_site, self.dataset.observations, self.mapping):
            h.update(json.dumps(part, default=_hashable).encode())
        return h.hexdigest()


def _hashable(value) -> str:
    """A date in ISO form; an array or a numpy scalar as the hex of its
    little-endian float64 bytes, which keep every bit."""
    return (value.isoformat() if isinstance(value, date)
            else np.asarray(value, "<f8").tobytes().hex())


def _score_chunk(job: _GridJob, indices: list[int]) -> list[PointScore]:
    """Score grid points that share ``prod_fn`` in one batched simulation."""
    points = [job.grid.point_at(i) for i in indices]
    runs = [apply_grid_point(job.economy, job.scenario, job.params, p)
            for p in points]
    series = _simulate_scored(job.economy, runs, job.scenario)
    scores = []
    for k, (index, point, (scn, prm)) in enumerate(zip(indices, points, runs)):
        score = score_point(
            job.economy, scn, prm, job.dataset, job.mapping,
            series={n: v[k] for n, v in series.values.items()},
            scorer=job.scorer,
        )
        scores.append(_rounded(score, index, point))
    return scores


_WORKER_JOB = None  # (evaluate, job), set once in each pool worker


def _init_worker(evaluate, job):
    global _WORKER_JOB
    _WORKER_JOB = (evaluate, job)


def _evaluate_in_worker(chunk: list):
    evaluate, job = _WORKER_JOB
    return evaluate(job, chunk)


def _run_chunks(evaluate, job, keys: dict, workers: int, record) -> None:
    """Pass ``evaluate(job, chunk)`` to ``record`` chunk by chunk, in order.
    A chunk is up to ``CHUNK_POINTS`` items of one key (``keys`` maps item
    to key), keys in first-seen order. At most one worker starts per chunk,
    as a pool forks all at once; with one, the chunks run in this process.
    Each forked worker gets ``(evaluate, job)`` once. The pool is shut down
    before this returns, also when ``record`` raises."""
    groups: dict = {}
    for item, key in keys.items():
        groups.setdefault(key, []).append(item)
    chunks = [group[k:k + CHUNK_POINTS] for group in groups.values()
              for k in range(0, len(group), CHUNK_POINTS)]
    workers = min(workers, len(chunks))
    if workers <= 1:
        for chunk in chunks:
            record(evaluate(job, chunk))
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(evaluate, job)) as pool:
        for result in pool.map(_evaluate_in_worker, chunks):
            record(result)


def _check_count(name: str, value, least: int) -> None:
    """Refuse a ``value`` that is not an integer of at least ``least``."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValidationError(f"{name} = {value} must be an integer, at least {least}")


def grid_search(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    dataset: EmpiricalDataset,
    grid: GridSpec,
    mapping: dict[str, str] | None = None,
    workers: int = 1,
    checkpoint_path=None,
    resume: bool = False,
) -> CalibrationResult:
    """Score every grid point; deterministic regardless of worker count.

    ``_run_chunks`` simulates points sharing ``prod_fn`` in batched chunks
    and says how many workers start; a point's score does not depend on
    its chunk. With a checkpoint path, completed points are appended as
    they finish and are not recomputed when resuming after an interruption.
    An empty grid, ``workers`` that is not an integer of at least 1,
    ``resume`` without a checkpoint path, a checkpoint path that is a
    directory, a scenario that does not fit the economy (its sectors or its
    key dates), a grid value the scenario cannot take and a dataset that
    scores no cell raise ``ValidationError`` before the checkpoint is
    touched and before any point runs; so does ``CheckpointError`` on a
    resume for other inputs.
    """
    _check_count("workers", workers, 1)
    if resume and not checkpoint_path:
        raise ValidationError("resume needs a checkpoint path")
    if grid.n_points == 0:
        raise ValidationError("empty grid")
    if checkpoint_path and Path(checkpoint_path).is_dir():
        raise ValidationError(f"checkpoint {checkpoint_path} is a directory")
    ShockSchedule(scenario, economy)  # the scenario fits the economy
    for name, values in grid.axes:
        for value in values:
            try:
                apply_grid_point(economy, scenario, params, {name: value})
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"grid axis {name!r} value {value!r}: {exc}") from None
    job = _GridJob(economy, scenario, params, dataset, grid, mapping,
                   _Scorer(economy, dataset, mapping, scenario))
    completed: dict[int, PointScore] = {}
    if checkpoint_path:
        checkpoint = Path(checkpoint_path)
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        if resume and checkpoint.exists():
            completed, intact = _read_checkpoint(checkpoint, job.inputs_hash())
            os.truncate(checkpoint, intact)
        else:  # a new file: on ext4, truncating the old one in place is slower
            checkpoint.unlink(missing_ok=True)
            checkpoint.write_text(json.dumps({"inputs_hash": job.inputs_hash()}) + "\n",
                                  encoding="utf-8")

    def record(scores: list[PointScore]) -> None:
        for score in scores:
            completed[score.index] = score
        if checkpoint_path:
            with checkpoint.open("a", encoding="utf-8") as fh:
                fh.writelines(_checkpoint_record(score) + "\n" for score in scores)

    pending = {i: grid.point_at(i).get("prod_fn", params.prod_fn)
               for i in range(grid.n_points) if i not in completed}
    _run_chunks(_score_chunk, job, pending, workers, record)
    scores = [completed[i] for i in range(grid.n_points)]
    return CalibrationResult(grid=grid, scores=scores)


def synthesize_dataset(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    mapping: dict[str, str] | None = None,
) -> EmpiricalDataset:
    """Dataset whose observations are the model's own quarterly values.

    Scoring the generating parameters against this dataset yields exactly
    zero deviation, which anchors the parameter-recovery tests.
    """
    run = _simulate_scored(economy, [(scenario, params)], scenario)
    frame = _QuarterFrame(run.times, scenario.start_date, economy, mapping,
                          DEFAULT_QUARTERS)
    model = frame.tables(*(run.values[name][0] for name in SCORED_SERIES))
    observations: dict[str, list[tuple[date, str, float]]] = {}
    for ind in INDICATORS:
        rows = []
        for (sector, q), value in sorted(model[ind].items()):
            mid = quarter_end(q) - timedelta(days=45)
            rows.append((mid, sector, value))
        observations[ind] = rows
    return EmpiricalDataset(observations)


# ---------------------------------------------------------------------------
# Monte Carlo sensitivity runs
# ---------------------------------------------------------------------------

#: Economy-wide totals a Monte Carlo ensemble can band, by the per-sector
#: series (``integrate.SERIES``) they sum.
OBSERVABLES = {
    "gross_output": "x",
    "labor": "l",
    "household_consumption": "c",
}

DEFAULT_QUANTILES = (2.5, 50.0, 97.5)


def default_distributions() -> dict[str, dict]:
    """Baseline parameter uncertainty used for confidence bands."""
    return {
        "tau": {"dist": "normal", "mean": 14.0, "sd": 2.0, "min": 1.0},
        "gamma_F": {"dist": "normal", "mean": 28.0, "sd": 2.0, "min": 1.0},
        "l1": {"dist": "normal", "mean": 7.0, "sd": 2.0, "min": 1.0},
        "l2": {"dist": "uniform", "low": 28.0, "high": 56.0},
        "delta_s": {"dist": "uniform", "low": 0.5, "high": 1.0},
        "r": {"dist": "uniform", "low": 0.0, "high": 1.0},
    }


SAMPLEABLE = (
    "tau", "gamma_F", "l1", "l2", "r", "b", "delta_s", "L_share",
    "rho_quarters", "eps_S_scale",
)


def _make_sampler(spec: dict):
    kind = spec.get("dist")
    if kind == "uniform":
        low, high = float(spec["low"]), float(spec["high"])
        if not low <= high:
            raise ValueError("empty uniform range")
        return lambda rng: float(rng.uniform(low, high))
    if kind == "normal":
        mean, sd = float(spec["mean"]), float(spec["sd"])
        if not sd >= 0:
            raise ValueError("negative standard deviation")
        floor = spec.get("min")
        if floor is None:
            return lambda rng: float(rng.normal(mean, sd))
        floor = float(floor)
        return lambda rng: float(max(rng.normal(mean, sd), floor))
    if kind == "fixed":
        value = float(spec["value"])
        return lambda rng: value
    raise ValueError(f"unknown distribution kind {kind!r}")


def parse_distributions(raw: dict) -> dict[str, object]:
    """One sampler per parameter of a spec shaped like
    ``default_distributions()``; a malformed spec raises ``ValidationError``."""
    if not isinstance(raw, dict):
        raise ValidationError("distributions must map parameter names to specs")
    samplers = {}
    for name, spec in raw.items():
        if name not in SAMPLEABLE:
            raise ValidationError(
                f"cannot sample parameter {name!r}; expected one of {SAMPLEABLE}"
            )
        if not isinstance(spec, dict):
            raise ValidationError(f"{name}: spec must be a JSON object")
        try:
            samplers[name] = _make_sampler(spec)
        except KeyError as exc:
            raise ValidationError(f"{name}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{name}: {exc}") from None
    return samplers


def apply_sampled(
    scenario: Scenario, params: BehavioralParams, sample: dict[str, float]
) -> tuple[Scenario, BehavioralParams]:
    """Overlay one Monte Carlo draw (names in ``SAMPLEABLE``)."""
    return _overlay(None, scenario, params, sample, SAMPLEABLE, "sampled")


@dataclass
class MonteCarloResult:
    times: np.ndarray
    quantiles: tuple[float, ...]
    bands: np.ndarray  # (len(quantiles), len(times))
    observable: str
    n_runs: int
    seed: int
    start_date: date

    def band_width(self, t: float) -> float:
        k = int(np.argmin(np.abs(self.times - t)))
        return float(self.bands[-1, k] - self.bands[0, k])

    def write_csv(self, path) -> Path:
        labels = [f"p{q:g}" for q in self.quantiles]
        return write_csv(path, ["t", "date", "observable"] + labels, (
            [t, (self.start_date + timedelta(days=t)).isoformat(), self.observable,
             *band] for t, band in zip(self.times.tolist(), self.bands.T.tolist())
        ))


def _chunk_totals(job, draws: list[int]) -> np.ndarray:
    """(draw, time) totals of ``job``'s ``draws``, summed before the next chunk runs."""
    economy, runs, t_end, name = job
    run = simulate_series(economy, [runs[k] for k in draws], t_end, (name,))
    return run.values[name].sum(axis=-1)


def monte_carlo(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    distributions: dict[str, dict],
    n_runs: int,
    seed: int,
    observable: str = "gross_output",
    t_end: float | None = None,
) -> MonteCarloResult:
    """Ensemble of simulations under sampled parameters, with quantile bands;
    invalid input, a draw included, raises ``ValidationError`` before any run."""
    _check_count("n_runs", n_runs, 1)
    if observable not in OBSERVABLES:
        raise ValidationError(f"unknown observable {observable!r}")
    _check_count("seed", seed, 0)
    samplers = parse_distributions(distributions)
    if t_end is None:
        t_end = horizon_for(scenario, DEFAULT_QUARTERS)
    rng = np.random.default_rng(seed)
    draws = [
        {name: sampler(rng) for name, sampler in samplers.items()}
        for _ in range(n_runs)
    ]
    runs = [apply_sampled(scenario, params, sample) for sample in draws]
    totals = []
    _run_chunks(_chunk_totals, (economy, runs, t_end, OBSERVABLES[observable]),
                dict.fromkeys(range(n_runs)), 1, totals.append)
    bands = np.percentile(np.vstack(totals), DEFAULT_QUANTILES, axis=0)
    return MonteCarloResult(
        times=_output_grid(t_end),
        quantiles=DEFAULT_QUANTILES,
        bands=bands,
        observable=observable,
        n_runs=n_runs,
        seed=seed,
        start_date=scenario.start_date,
    )
