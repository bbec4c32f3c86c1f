"""Scoring against empirical indicators, grid search, and Monte Carlo runs.

Four indicator families are supported: business-to-business transaction
volumes (proxied by each sector's outgoing realized orders, aggregated to
NACE-21), synthetic GDP and survey revenue (both proxied by gross output),
and survey employment (proxied by labor compensation). Model series are
normalized to percentage reduction against the pre-shock baseline,
averaged per calendar quarter, and compared to the data with the
value-weighted average absolute deviation (accuracy) and the signed
average deviation (bias; positive when the model is too optimistic).
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .dynamics import PRODUCTION_FUNCTIONS, BehavioralParams
from .economy import Economy
from .errors import CheckpointError, SchemaError, ValidationError
from .integrate import (  # noqa: F401 - simulate: perfbench traces it here
    AGGREGATE_CODE,
    SERIES,
    IntegrationConfig,
    Trajectory,
    _output_grid,
    simulate,
    simulate_series,
)
from .shocks import Scenario

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
    total = w.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    m = np.asarray([model[s] for s in sectors], dtype=float)
    d = np.asarray([data[s] for s in sectors], dtype=float)
    aad = float(np.sum(w * np.abs(d - m)) / total)
    ad = float(np.sum(w * (m - d)) / total)
    return aad, ad


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


def load_dataset(path) -> EmpiricalDataset:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"file not found: {path}")
    observations: dict[str, list[tuple[date, str, float]]] = {}
    seen: set[tuple[str, str, str]] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["indicator", "date", "sector", "value_pct"]
        if reader.fieldnames != expected:
            raise SchemaError(f"{path}: header must be {expected}")
        for k, row in enumerate(reader, start=2):
            ind = row["indicator"].strip()
            if ind not in INDICATORS:
                raise SchemaError(
                    f"{path}: unknown indicator {ind!r} on line {k}"
                )
            try:
                d = date.fromisoformat(row["date"].strip())
                value = float(row["value_pct"])
            except ValueError as exc:
                raise SchemaError(f"{path}: line {k}: {exc}") from None
            sector = row["sector"].strip()
            key = (ind, row["date"].strip(), sector)
            if key in seen:
                raise SchemaError(
                    f"{path}: duplicate observation {key} on line {k}"
                )
            seen.add(key)
            observations.setdefault(ind, []).append((d, sector, value))
    return EmpiricalDataset(observations)


def save_dataset(dataset: EmpiricalDataset, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["indicator", "date", "sector", "value_pct"])
        for ind in INDICATORS:
            for d, sector, value in dataset.observations.get(ind, []):
                w.writerow([ind, d.isoformat(), sector, repr(float(value))])
    return path


# ---------------------------------------------------------------------------
# Model-to-indicator mapping
# ---------------------------------------------------------------------------

def default_sector_mapping(codes) -> dict[str, str]:
    """NACE-64 to NACE-21 aggregation: the code's section letter."""
    return {code: code[0] for code in codes}


def load_sector_mapping(path) -> dict[str, str]:
    path = Path(path)
    mapping = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["nace64", "nace21"]:
            raise SchemaError(f"{path}: header must be ['nace64', 'nace21']")
        for row in reader:
            mapping[row["nace64"].strip()] = row["nace21"].strip()
    return mapping


def _pct_reduction(series: np.ndarray, baseline: np.ndarray) -> np.ndarray:
    """100 * (v(t) - v(0)) / v(0); columns with zero baseline become NaN."""
    safe = np.where(baseline > 0, baseline, 1.0)
    pct = 100.0 * (series - baseline[np.newaxis, :]) / safe
    pct[:, baseline <= 0] = np.nan
    return pct


class _QuarterFrame:
    """Calendar quarters of the sample times and the NACE-21 grouping: the
    parts of ``model_quarterly`` that do not depend on the run."""

    def __init__(self, times, start_date: date, economy: Economy,
                 mapping: dict[str, str] | None, quarters):
        if mapping is None:
            mapping = default_sector_mapping(economy.codes)
        self.quarters = tuple(quarters)
        labels = [quarter_of(start_date + timedelta(days=float(t))) for t in times]
        self.in_quarter = {
            q: np.asarray([lab == q for lab in labels]) for q in self.quarters
        }
        self.codes = economy.codes
        self.groups = sorted(set(mapping.get(c, c[0]) for c in economy.codes))
        gindex = {g: k for k, g in enumerate(self.groups)}
        self.member = np.zeros((len(economy.codes), len(self.groups)))
        for i, code in enumerate(economy.codes):
            self.member[i, gindex[mapping.get(code, code[0])]] = 1.0

    def _table(self, values: np.ndarray, names) -> dict[tuple[str, str], float]:
        pct = _pct_reduction(values, values[0])
        out = {}
        for q in self.quarters:
            sel = self.in_quarter[q]
            if not sel.any():
                continue
            block = pct[sel]
            counts = np.sum(~np.isnan(block), axis=0)
            sums = np.where(np.isnan(block), 0.0, block).sum(axis=0)
            for j, name in enumerate(names):
                if counts[j]:
                    out[(name, q)] = float(sums[j] / counts[j])
        return out

    def tables(self, X: np.ndarray, L: np.ndarray, B: np.ndarray):
        """Quarterly reductions from (time, sector) series of gross output,
        labor and outgoing B2B orders."""
        x_table = self._table(X, self.codes)
        return {
            "gdp": x_table,
            "revenue": dict(x_table),
            "employment": self._table(L, self.codes),
            "b2b": self._table(B @ self.member, self.groups),
        }


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
        if mapping is None:
            mapping = default_sector_mapping(economy.codes)
        rows = economy.Z.sum(axis=1)
        weights: dict[str, float] = {}
        for i, code in enumerate(economy.codes):
            group = mapping.get(code, code[0])
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


class _Scorer:
    """What scoring shares across the points of a grid: the dataset's
    quarterly means, the indicator weights and the calendar quarters of the
    common sample ``times`` (days from ``start_date``)."""

    def __init__(self, economy: Economy, dataset: EmpiricalDataset,
                 mapping: dict[str, str] | None, quarters, times,
                 start_date: date):
        self.frame = _QuarterFrame(times, start_date, economy, mapping, quarters)
        self._cells = []
        for ind in dataset.indicators:
            data_q = dataset.quarterly(ind, quarters)
            weights = indicator_weights(economy, ind, mapping)
            for q in quarters:
                candidates = sorted(
                    s for (s, qq) in data_q if qq == q and s != AGGREGATE_CODE
                )
                self._cells.append((ind, q, candidates, data_q, weights))

    def score(self, series: dict[str, np.ndarray]) -> PointScore:
        """Score one run's ``SCORED_SERIES``, each a (time, sector) array
        sampled at this scorer's times."""
        model = self.frame.tables(*(series[name] for name in SCORED_SERIES))
        cells: dict[tuple[str, str], tuple[float, float]] = {}
        for ind, q, candidates, data_q, weights in self._cells:
            model_q = model[ind]
            sectors = [s for s in candidates if (s, q) in model_q]
            if not sectors:
                log.info("no scorable sectors for %s %s; cell skipped", ind, q)
                continue
            cells[(ind, q)] = aad_vw(
                {s: model_q[(s, q)] for s in sectors},
                {s: data_q[(s, q)] for s in sectors},
                {s: weights[s] for s in sectors},
            )
        return PointScore(
            index=-1, params={}, aad_total=total_aad(cells), cells=cells
        )


def score_point(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    dataset: EmpiricalDataset,
    mapping: dict[str, str] | None = None,
    quarters=DEFAULT_QUARTERS,
    config: IntegrationConfig | None = None,
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
    config = config or IntegrationConfig()
    t_end = horizon_for(scenario, quarters)
    if scorer is None:
        scorer = _Scorer(economy, dataset, mapping, quarters,
                         _output_grid(config, t_end), scenario.start_date)
    if series is None:
        run = simulate_series(economy, [(scenario, params)], config, t_end,
                              SCORED_SERIES)
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

    def content_hash(self) -> str:
        doc = json.dumps(
            [[name, list(values)] for name, values in self.axes],
            sort_keys=False,
        )
        return hashlib.sha256(doc.encode()).hexdigest()

    def to_json(self) -> str:
        return json.dumps(
            {"axes": [[name, list(values)] for name, values in self.axes]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        try:
            raw = json.loads(text)
            axes = tuple(
                (str(name), tuple(values)) for name, values in raw["axes"]
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed grid spec: {exc}") from None
        return cls(axes)


def load_grid(path) -> GridSpec:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"file not found: {path}")
    return GridSpec.from_json(path.read_text(encoding="utf-8"))


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
    """Rescale a shock vector so its value-weighted aggregate hits ``target``."""
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    current = float(np.sum(eps * weights) / total)
    if current <= 0:
        if target == 0:
            return np.zeros_like(eps)
        raise ValueError("cannot scale an all-zero shock vector to a nonzero target")
    return np.clip(eps * (target / current), 0.0, 1.0)


def apply_grid_point(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    point: dict,
) -> tuple[Scenario, BehavioralParams]:
    """Overlay one grid point onto a scenario template and parameter set."""
    point = dict(point)
    eps_D = np.array(scenario.eps_D_lockdown)
    codes = scenario.codes
    if "eps_D_abc" in point:
        mask = np.asarray([c[0] in ("A", "B", "C") for c in codes])
        eps_D[mask] = point.pop("eps_D_abc")
    if "eps_D_retail" in point:
        mask = np.asarray([c in RETAIL for c in codes])
        eps_D[mask] = point.pop("eps_D_retail")
    if "eps_D_consumer_facing" in point:
        mask = np.asarray([c in CONSUMER_FACING for c in codes])
        eps_D[mask] = point.pop("eps_D_consumer_facing")
    scenario_kwargs = {"eps_D_lockdown": eps_D}
    if "eps_F_aggregate" in point:
        pos = [economy.sectors.position(c) for c in codes]
        f0 = economy.f0[np.asarray(pos)]
        scenario_kwargs["eps_F_lockdown"] = scale_to_aggregate(
            np.array(scenario.eps_F_lockdown), f0, float(point.pop("eps_F_aggregate"))
        )
    if "l2" in point:
        scenario_kwargs["l2"] = float(point.pop("l2"))
    new_scenario = replace(scenario, **scenario_kwargs)

    params_kwargs = {}
    if "prod_fn" in point:
        params_kwargs["prod_fn"] = point.pop("prod_fn")
    if "tau" in point:
        params_kwargs["tau"] = float(point.pop("tau"))
    if "gamma_F" in point:
        # Hiring keeps tracking the firing speed at twice its value.
        params_kwargs["gamma_F"] = float(point.pop("gamma_F"))
        params_kwargs["gamma_H"] = None
    if point:
        raise ValueError(f"unknown grid parameters: {sorted(point)}")
    new_params = replace(params, **params_kwargs) if params_kwargs else params
    return new_scenario, new_params


def _tiebreak_key(params: dict) -> tuple:
    key = []
    for name in GRID_AXIS_ORDER:
        if name not in params:
            continue
        value = params[name]
        if name == "prod_fn":
            key.append(PRODUCTION_FUNCTIONS.index(value))
        else:
            key.append(float(value))
    for name in sorted(set(params) - set(GRID_AXIS_ORDER)):
        key.append(params[name])
    return tuple(key)


# ---------------------------------------------------------------------------
# Grid search with checkpointing
# ---------------------------------------------------------------------------

@dataclass
class CalibrationResult:
    grid: GridSpec
    scores: list[PointScore]  # ordered by grid index

    @property
    def argmin(self) -> PointScore:
        return min(
            self.scores,
            key=lambda s: (round(s.aad_total, SCORE_DECIMALS), _tiebreak_key(s.params)),
        )

    def write_leaderboard(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        names = [name for name, _ in self.grid.axes]
        ordered = sorted(
            self.scores,
            key=lambda s: (round(s.aad_total, SCORE_DECIMALS), _tiebreak_key(s.params)),
        )
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["rank", "grid_index", "aad_total"] + names)
            for rank, score in enumerate(ordered, start=1):
                w.writerow(
                    [rank, score.index, repr(round(score.aad_total, SCORE_DECIMALS))]
                    + [score.params.get(n, "") for n in names]
                )
        return path

    def write_optimum_cells(self, path, quarters=DEFAULT_QUARTERS) -> Path:
        """Accuracy/bias matrix of the best point, one row per indicator."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        best = self.argmin
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["indicator", "quarter", "aad_vw", "ad_vw"])
            for (ind, q), (aad, ad) in sorted(best.cells.items()):
                w.writerow([ind, q, repr(aad), repr(ad)])
        return path


def _rounded(score: PointScore) -> PointScore:
    return PointScore(
        index=score.index,
        params=score.params,
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


def _read_checkpoint(path: Path, grid: GridSpec) -> tuple[dict[int, PointScore], int]:
    """Completed points, and the length in bytes of the file's intact part.

    A record is complete once its newline is written. A final record that
    is unterminated or unreadable is what a crash during an append leaves;
    it is dropped and lies outside the intact part. Damage anywhere else
    raises ``CheckpointError``.
    """
    completed: dict[int, PointScore] = {}
    with path.open("rb") as fh:
        header = fh.readline()
        try:
            if not header.endswith(b"\n"):
                raise ValueError("unterminated header")
            stored_hash = json.loads(header)["grid_hash"]
        except (ValueError, KeyError, TypeError):
            raise CheckpointError(f"{path}: unreadable checkpoint header") from None
        if stored_hash != grid.content_hash():
            raise CheckpointError(
                f"{path}: checkpoint was written for a different grid"
            )
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
    quarters: tuple
    config: IntegrationConfig
    scorer: _Scorer


def _score_chunk(job: _GridJob, indices: list[int]) -> list[PointScore]:
    """Score grid points that share ``prod_fn`` in one batched simulation."""
    points = [job.grid.point_at(i) for i in indices]
    runs = [apply_grid_point(job.economy, job.scenario, job.params, p)
            for p in points]
    series = simulate_series(job.economy, runs, job.config,
                             horizon_for(job.scenario, job.quarters), SCORED_SERIES)
    scores = []
    for k, (index, point) in enumerate(zip(indices, points)):
        scn, prm = runs[k]
        score = score_point(
            job.economy, scn, prm, job.dataset, job.mapping, job.quarters,
            job.config, series={n: v[k] for n, v in series.values.items()},
            scorer=job.scorer,
        )
        score.index = index
        score.params = point
        scores.append(_rounded(score))
    return scores


def _chunks(grid: GridSpec, pending: list[int], prod_fn: str):
    """Pending indices grouped by bottleneck rule, at most ``CHUNK_POINTS``
    a chunk."""
    by_rule: dict[str, list[int]] = {}
    for i in pending:
        by_rule.setdefault(grid.point_at(i).get("prod_fn", prod_fn), []).append(i)
    return [
        group[k:k + CHUNK_POINTS] for group in by_rule.values()
        for k in range(0, len(group), CHUNK_POINTS)
    ]


_WORKER_JOB: _GridJob | None = None


def _init_worker(job: _GridJob):
    global _WORKER_JOB
    _WORKER_JOB = job


def _score_chunk_in_worker(indices: list[int]) -> list[PointScore]:
    return _score_chunk(_WORKER_JOB, indices)


def grid_search(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    dataset: EmpiricalDataset,
    grid: GridSpec,
    mapping: dict[str, str] | None = None,
    quarters=DEFAULT_QUARTERS,
    config: IntegrationConfig | None = None,
    workers: int = 1,
    checkpoint_path=None,
    resume: bool = False,
) -> CalibrationResult:
    """Score every grid point; deterministic regardless of worker count.

    Points sharing ``prod_fn`` are simulated in chunks of at most
    ``CHUNK_POINTS``, one batched pass each; a point's score does not
    depend on its chunk. With a checkpoint path, completed points are
    appended as they finish and are not recomputed when resuming after an
    interruption.
    """
    if grid.n_points == 0:
        raise ValueError("empty grid")
    completed: dict[int, PointScore] = {}
    checkpoint = Path(checkpoint_path) if checkpoint_path else None
    if checkpoint and checkpoint.exists():
        if resume:
            completed, intact = _read_checkpoint(checkpoint, grid)
            if intact < checkpoint.stat().st_size:
                os.truncate(checkpoint, intact)
        else:
            checkpoint.unlink()
    writer = None
    if checkpoint:
        fresh = not checkpoint.exists()
        writer = checkpoint.open("a", encoding="utf-8")
        if fresh:
            writer.write(json.dumps({"grid_hash": grid.content_hash()}) + "\n")
            writer.flush()

    config = config or IntegrationConfig()
    quarters = tuple(quarters)
    times = _output_grid(config, horizon_for(scenario, quarters))
    job = _GridJob(
        economy, scenario, params, dataset, grid, mapping, quarters, config,
        _Scorer(economy, dataset, mapping, quarters, times, scenario.start_date),
    )
    pending = [i for i in range(grid.n_points) if i not in completed]
    chunks = _chunks(grid, pending, params.prod_fn)

    def record(scores: list[PointScore]) -> None:
        for score in scores:
            completed[score.index] = score
            if writer:
                writer.write(_checkpoint_record(score) + "\n")
                writer.flush()

    try:
        if workers <= 1:
            for chunk in chunks:
                record(_score_chunk(job, chunk))
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(job,),
            ) as pool:
                for scores in pool.map(_score_chunk_in_worker, chunks):
                    record(scores)
    finally:
        if writer:
            writer.close()
    scores = [completed[i] for i in range(grid.n_points)]
    return CalibrationResult(grid=grid, scores=scores)


def synthesize_dataset(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    mapping: dict[str, str] | None = None,
    quarters=DEFAULT_QUARTERS,
    config: IntegrationConfig | None = None,
    indicators=INDICATORS,
) -> EmpiricalDataset:
    """Dataset whose observations are the model's own quarterly values.

    Scoring the generating parameters against this dataset yields exactly
    zero deviation, which anchors the parameter-recovery tests.
    """
    config = config or IntegrationConfig()
    run = simulate_series(economy, [(scenario, params)], config,
                          horizon_for(scenario, quarters), SCORED_SERIES)
    frame = _QuarterFrame(run.times, scenario.start_date, economy, mapping, quarters)
    model = frame.tables(*(run.values[name][0] for name in SCORED_SERIES))
    observations: dict[str, list[tuple[date, str, float]]] = {}
    for ind in indicators:
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


def _make_sampler(name: str, spec: dict):
    kind = spec.get("dist")
    if kind == "uniform":
        low, high = float(spec["low"]), float(spec["high"])
        if high < low:
            raise ValueError(f"{name}: empty uniform range")
        return lambda rng: float(rng.uniform(low, high))
    if kind == "normal":
        mean, sd = float(spec["mean"]), float(spec["sd"])
        if sd < 0:
            raise ValueError(f"{name}: negative standard deviation")
        floor = spec.get("min")
        if floor is None:
            return lambda rng: float(rng.normal(mean, sd))
        return lambda rng: float(max(rng.normal(mean, sd), float(floor)))
    if kind == "fixed":
        value = float(spec["value"])
        return lambda rng: value
    raise ValueError(f"{name}: unknown distribution kind {kind!r}")


def parse_distributions(raw: dict) -> dict[str, object]:
    samplers = {}
    for name, spec in raw.items():
        if name not in SAMPLEABLE:
            raise ValueError(
                f"cannot sample parameter {name!r}; expected one of {SAMPLEABLE}"
            )
        samplers[name] = _make_sampler(name, spec)
    return samplers


def apply_sampled(
    scenario: Scenario, params: BehavioralParams, sample: dict[str, float]
) -> tuple[Scenario, BehavioralParams]:
    scn_kwargs, prm_kwargs = {}, {}
    for name, value in sample.items():
        if name in ("l1", "l2", "r", "b"):
            scn_kwargs[name] = float(value)
        elif name == "eps_S_scale":
            scn_kwargs["eps_S_L1"] = np.clip(scenario.eps_S_L1 * value, 0.0, 1.0)
            scn_kwargs["eps_S_L2"] = np.clip(scenario.eps_S_L2 * value, 0.0, 1.0)
        elif name == "rho_quarters":
            prm_kwargs["rho"] = min(1.0 - (1.0 - float(value)) / 90.0, 1.0 - 1e-12)
        elif name in ("tau", "gamma_F", "delta_s", "L_share"):
            prm_kwargs[name] = float(value)
        else:
            raise ValueError(f"unknown sampled parameter {name!r}")
    scn = replace(scenario, **scn_kwargs) if scn_kwargs else scenario
    prm = replace(params, **prm_kwargs) if prm_kwargs else params
    return scn, prm


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
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            labels = [f"p{q:g}" for q in self.quantiles]
            w.writerow(["t", "date", "observable"] + labels)
            for k, t in enumerate(self.times):
                day = (self.start_date + timedelta(days=float(t))).isoformat()
                w.writerow(
                    [repr(float(t)), day, self.observable]
                    + [repr(float(self.bands[j, k])) for j in range(len(self.quantiles))]
                )
        return path


def monte_carlo(
    economy: Economy,
    scenario: Scenario,
    params: BehavioralParams,
    distributions: dict[str, dict],
    n_runs: int,
    seed: int,
    observable: str = "gross_output",
    config: IntegrationConfig | None = None,
    t_end: float | None = None,
    quantiles=DEFAULT_QUANTILES,
) -> MonteCarloResult:
    """Ensemble of simulations under sampled parameters, with quantile bands."""
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if observable not in OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}")
    samplers = parse_distributions(distributions)
    config = config or IntegrationConfig()
    if t_end is None:
        t_end = horizon_for(scenario, DEFAULT_QUARTERS)
    rng = np.random.default_rng(seed)
    draws = [
        {name: sampler(rng) for name, sampler in samplers.items()}
        for _ in range(n_runs)
    ]
    runs = [apply_sampled(scenario, params, sample) for sample in draws]
    name = OBSERVABLES[observable]
    stacked = np.vstack([
        simulate_series(economy, runs[k:k + CHUNK_POINTS], config, t_end,
                        (name,)).values[name].sum(axis=-1)
        for k in range(0, n_runs, CHUNK_POINTS)
    ])
    bands = np.percentile(stacked, quantiles, axis=0)
    return MonteCarloResult(
        times=_output_grid(config, t_end),
        quantiles=tuple(quantiles),
        bands=bands,
        observable=observable,
        n_runs=n_runs,
        seed=seed,
        start_date=scenario.start_date,
    )
