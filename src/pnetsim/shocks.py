"""Scenario definition and shock time courses.

A :class:`Scenario` lists key dates (lockdown starts and ends), per-sector
shock magnitudes as positive fractions in [0, 1], and ramp parameters. The
:class:`ShockSchedule` compiles it into piecewise time functions:

* entering a lockdown, shocks ramp linearly from their current level to the
  lockdown plateau over ``l1`` days;
* after a lockdown, demand shocks are released over ``l2`` days toward the
  residual level ``r * eps`` (zero after the final phase) -- linearly for
  ordinary sectors, along a slow logarithmic curve for sectors whose
  consumption happens on site;
* labor supply shocks are released linearly over ``l2`` days and are zero
  outside lockdowns;
* during a "lockdown light" phase demand shocks sit at ``r * eps`` and
  labor shocks at zero.

``ShockSchedule.table`` is the one evaluator of these functions: a run
compiles the shocks of all its step or sample times in one call, and
``at`` reads a single time as one row of it.

All magnitudes are stored internally as positive fractions and applied in
the dynamics as ``(1 - eps)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .economy import Economy
from .errors import SchemaError, ValidationError

EVENT_LOCKDOWN_START = "lockdown_start"
EVENT_LOCKDOWN_END = "lockdown_end"
EVENT_LIGHT_START = "lockdown_light_start"
EVENT_LIGHT_END = "lockdown_light_end"
EVENTS = (
    EVENT_LOCKDOWN_START,
    EVENT_LOCKDOWN_END,
    EVENT_LIGHT_START,
    EVENT_LIGHT_END,
)

_LOG100 = math.log(100.0)


@dataclass(frozen=True)
class Scenario:
    """Immutable shock scenario over a fixed sector list."""

    start_date: date
    key_dates: tuple[tuple[date, str], ...]
    codes: tuple[str, ...]
    eps_S_L1: np.ndarray
    eps_S_L2: np.ndarray
    eps_D_lockdown: np.ndarray
    eps_F_lockdown: np.ndarray
    on_site: np.ndarray
    r: float
    b: float
    l1: float
    l2: float

    def __post_init__(self):
        n = len(self.codes)
        for name in ("eps_S_L1", "eps_S_L2", "eps_D_lockdown", "eps_F_lockdown"):
            vec = np.ascontiguousarray(getattr(self, name), dtype=float)
            if vec.shape != (n,):
                raise ValidationError(f"{name} has shape {vec.shape}, expected ({n},)")
            if np.any((vec < 0) | (vec > 1)):
                raise ValidationError(f"{name} entries must lie in [0, 1]")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        on_site = np.ascontiguousarray(self.on_site).astype(bool)
        if on_site.shape != (n,):
            raise ValidationError(f"on_site has shape {on_site.shape}, expected ({n},)")
        object.__setattr__(self, "on_site", on_site)
        for name in ("r", "b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} = {v} outside [0, 1]")
        if self.l1 <= 0 or self.l2 <= 0:
            raise ValidationError("ramp lengths l1 and l2 must be positive")
        dates = [d for d, _ in self.key_dates]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise ValidationError("key dates must be strictly increasing")
        for d, event in self.key_dates:
            if event not in EVENTS:
                raise ValidationError(f"unknown event {event!r} on {d}")
            if d < self.start_date:
                raise ValidationError(f"key date {d} precedes start date")

    def day(self, d: date) -> float:
        """Day offset of a calendar date from the simulation epoch."""
        return float((d - self.start_date).days)

    def index_for(self, codes) -> np.ndarray:
        """Permutation aligning this scenario's vectors to ``codes``."""
        if set(codes) != set(self.codes):
            missing = sorted(set(codes) - set(self.codes))
            raise ValidationError(
                f"scenario lacks shocks for sectors {missing[:5]}"
            )
        pos = {c: i for i, c in enumerate(self.codes)}
        return np.asarray([pos[c] for c in codes])


@dataclass(frozen=True)
class ShockSample:
    """Shock values in economy sector order: ``(N,)`` arrays at a single
    instant, ``(T, N)`` arrays at a sequence of instants."""

    eps_S: np.ndarray
    eps_D: np.ndarray
    eps_F: np.ndarray
    b: float


@dataclass(frozen=True)
class _Phase:
    kind: str  # "lockdown" | "light"
    start: float
    end: float
    ordinal: int  # 1-based lockdown counter; 0 for light phases


def _parse_phases(scenario: Scenario) -> list[_Phase]:
    phases: list[_Phase] = []
    open_kind: str | None = None
    open_start = 0.0
    lockdowns = 0
    for d, event in scenario.key_dates:
        t = scenario.day(d)
        if event == EVENT_LOCKDOWN_START:
            if open_kind is not None:
                raise ValidationError(f"{event} on {d} inside an open phase")
            open_kind, open_start = "lockdown", t
            lockdowns += 1
        elif event == EVENT_LOCKDOWN_END:
            if open_kind != "lockdown":
                raise ValidationError(f"{event} on {d} without an open lockdown")
            phases.append(_Phase("lockdown", open_start, t, lockdowns))
            open_kind = None
        elif event == EVENT_LIGHT_START:
            # A light phase may begin the moment a lockdown ends.
            if open_kind == "lockdown":
                phases.append(_Phase("lockdown", open_start, t, lockdowns))
            elif open_kind is not None:
                raise ValidationError(f"{event} on {d} inside an open phase")
            open_kind, open_start = "light", t
        elif event == EVENT_LIGHT_END:
            if open_kind != "light":
                raise ValidationError(f"{event} on {d} without an open light phase")
            phases.append(_Phase("light", open_start, t, 0))
            open_kind = None
    if open_kind is not None:
        raise ValidationError("scenario ends with an unclosed phase")
    return phases


@dataclass
class _Segment:
    t0: float
    t1: float  # evaluation domain end (may cut the ramp short)
    dur: float  # mathematical ramp length; 0 for holds
    frm: tuple[np.ndarray, np.ndarray, np.ndarray]  # (D, F, S) at t0
    to: tuple[np.ndarray, np.ndarray, np.ndarray]
    style: str  # "hold" | "linear" | "release"

    def _ramp(self, t: np.ndarray, on_site: np.ndarray):
        """Unclipped (D, F, S) along the ramp at the times ``t``: ``(T, N)``."""
        u = np.minimum(np.maximum((t - self.t0) / self.dur, 0.0), 1.0)[:, np.newaxis]
        out = [v0 + (v1 - v0) * u for v0, v1 in zip(self.frm, self.to)]
        if self.style == "release":
            # On-site demand recovers slowly at first, then accelerates.
            log_frac = np.asarray(
                [math.log(w) for w in (100.0 - 99.0 * u).ravel().tolist()]
            )[:, np.newaxis] / _LOG100
            for k in (0, 1):
                v0, v1 = self.frm[k], self.to[k]
                slow = v1 + (v0 - v1) * log_frac
                out[k] = np.where(on_site & (v1 < v0), slow, out[k])
        return tuple(out)

    @property
    def is_hold(self) -> bool:
        return self.style == "hold" or self.dur <= 0.0

    def levels(self, t: float, on_site: np.ndarray):
        """Unclipped (D, F, S) at one time, where a later transition starts."""
        if self.is_hold:
            return self.to
        return tuple(v[0] for v in self._ramp(np.asarray([t]), on_site))

    def values(self, t: np.ndarray, on_site: np.ndarray):
        """(D, F, S) at the times ``t``, clipped to [0, 1]: ``(N,)`` arrays
        for a hold, ``(T, N)`` arrays for a ramp."""
        if self.is_hold:
            return tuple(_clip01(v) for v in self.to)
        return tuple(_clip01(v) for v in self._ramp(t, on_site))


def _clip01(v: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(v, 0.0), 1.0)


class ShockSchedule:
    """Compiled, vector-valued shock time functions for one scenario.

    The scenario compiles into a plan of segments that tile ``[0, inf)``:
    holds and ramps. ``table`` evaluates it; ``breakpoints`` and ``holds``
    describe its shape. Pure function of (scenario, economy); safe for
    concurrent evaluation.
    """

    def __init__(self, scenario: Scenario, economy: Economy | None = None):
        self.scenario = scenario
        if economy is not None and tuple(economy.codes) != scenario.codes:
            order = scenario.index_for(economy.codes)
        else:
            order = np.arange(len(scenario.codes))
        self.codes = tuple(economy.codes) if economy is not None else scenario.codes
        self.on_site = scenario.on_site[order]
        self._eps_S = (scenario.eps_S_L1[order], scenario.eps_S_L2[order])
        self._eps_D = scenario.eps_D_lockdown[order]
        self._eps_F = scenario.eps_F_lockdown[order]
        self.phases = _parse_phases(scenario)
        self.pandemic_start = (
            min(p.start for p in self.phases) if self.phases else None
        )
        self._segments = self._build()
        # The segments tile [0, inf) in order of their start.
        self._t0s = np.asarray([seg.t0 for seg in self._segments])

    # -- construction ------------------------------------------------------

    def _plateau(self, phase: _Phase):
        n = len(self.codes)
        r = self.scenario.r
        if phase.kind == "lockdown":
            eps_S = self._eps_S[0] if phase.ordinal == 1 else self._eps_S[1]
            return (self._eps_D.copy(), self._eps_F.copy(), eps_S.copy())
        return (r * self._eps_D, r * self._eps_F, np.zeros(n))

    def _build(self) -> list[_Segment]:
        n = len(self.codes)
        zeros = lambda: (np.zeros(n), np.zeros(n), np.zeros(n))  # noqa: E731
        segments: list[_Segment] = []
        cursor = 0.0
        levels = zeros()

        def value_at(t: float):
            for seg in reversed(segments):
                if seg.t0 <= t:
                    return seg.levels(t, self.on_site)
            return zeros()

        def add_transition(t_start, duration, target, style):
            nonlocal cursor, levels
            if t_start < cursor:
                # The new transition interrupts the previous one mid-ramp.
                frm = value_at(t_start)
                while segments and segments[-1].t0 >= t_start:
                    segments.pop()
                if segments:
                    segments[-1].t1 = t_start
                cursor = t_start
                levels = frm
            elif t_start > cursor:
                segments.append(
                    _Segment(cursor, t_start, 0.0, levels, levels, "hold")
                )
                cursor = t_start
            segments.append(
                _Segment(t_start, t_start + duration, duration, levels, target, style)
            )
            cursor = t_start + duration
            levels = target

        scn = self.scenario
        for k, phase in enumerate(self.phases):
            ramp = scn.l1 if phase.kind == "lockdown" else scn.l2
            style = "linear" if phase.kind == "lockdown" else "release"
            add_transition(phase.start, ramp, self._plateau(phase), style)
            if cursor < phase.end:
                segments.append(
                    _Segment(cursor, phase.end, 0.0, levels, levels, "hold")
                )
                cursor = phase.end
            nxt = self.phases[k + 1] if k + 1 < len(self.phases) else None
            if nxt is not None and nxt.start <= phase.end:
                continue  # contiguous phases: the next entry ramp takes over
            if nxt is not None:
                floor = (scn.r * self._eps_D, scn.r * self._eps_F, np.zeros(n))
            else:
                floor = zeros()
            add_transition(phase.end, scn.l2, floor, "release")

        segments.append(
            _Segment(cursor, math.inf, 0.0, levels, levels, "hold")
        )
        return segments

    # -- evaluation --------------------------------------------------------

    @property
    def breakpoints(self) -> np.ndarray:
        """Times where some shock time course has a kink."""
        pts = set()
        for seg in self._segments:
            for t in (seg.t0, seg.t1):
                if math.isfinite(t) and t > 0.0:
                    pts.add(t)
        return np.asarray(sorted(pts))

    @property
    def holds(self) -> tuple[tuple[float, float], ...]:
        """The ``[start, end)`` spans over which every shock stays constant."""
        return tuple((seg.t0, seg.t1) for seg in self._segments if seg.is_hold)

    def table(self, times) -> ShockSample:
        """Shock values at every time in ``times``: ``(T, N)`` arrays.

        Compiled once per run, so a step reads its shocks by row instead
        of evaluating the time functions again.
        """
        t = np.asarray(times, dtype=float).reshape(-1)
        if t.size and t.min() < 0:
            raise ValueError(f"t = {t.min()} precedes the simulation epoch")
        owner = np.searchsorted(self._t0s, t, side="right") - 1
        eps_D, eps_F, eps_S = cols = [np.empty((t.size, len(self.codes)))
                                      for _ in range(3)]
        owners = set(owner.tolist())
        for k in owners:
            rows = owner == k if len(owners) > 1 else slice(None)
            for col, v in zip(cols, self._segments[k].values(t[rows], self.on_site)):
                col[rows] = v
        return ShockSample(eps_S=eps_S, eps_D=eps_D, eps_F=eps_F,
                           b=self.scenario.b)

    def at(self, t: float) -> ShockSample:
        """Shock values at one time: ``(N,)`` arrays, row 0 of ``table([t])``."""
        tab = self.table([t])
        return ShockSample(eps_S=tab.eps_S[0], eps_D=tab.eps_D[0],
                           eps_F=tab.eps_F[0], b=tab.b)


def on_site_release(eps_lockdown: float, t_rel: float, l2: float) -> float:
    """Logarithmic post-lockdown decay of an on-site consumption shock.

    Rebased so the curve starts at the full shock when the lockdown ends
    (``t_rel = 0``) and reaches zero after ``l2`` days.
    """
    if not 0.0 <= t_rel <= l2:
        raise ValueError(f"t_rel = {t_rel} outside [0, {l2}]")
    return eps_lockdown * math.log(100.0 - 99.0 * t_rel / l2) / _LOG100


def aggregate_shock(eps, weights) -> float:
    """Value-weighted mean shock, e.g. against baseline consumption shares."""
    eps = np.asarray(eps, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    return float(np.sum(weights * eps) / total)


# ---------------------------------------------------------------------------
# Scenario file format (JSON)
# ---------------------------------------------------------------------------

def load_scenario(path) -> Scenario:
    """Read a scenario JSON file; shock magnitudes are fractions in [0, 1]."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from None
    try:
        start = date.fromisoformat(raw["start_date"])
        key_dates = tuple(
            (date.fromisoformat(item["date"]), str(item["event"]))
            for item in raw["key_dates"]
        )
        shocks = raw["shocks"]
        codes = tuple(shocks.keys())
        cols = {k: [] for k in ("eps_S_L1", "eps_S_L2", "eps_D", "eps_F", "on_site")}
        for code in codes:
            entry = shocks[code]
            for k in cols:
                cols[k].append(float(entry[k]))
        return Scenario(
            start_date=start,
            key_dates=key_dates,
            codes=codes,
            eps_S_L1=np.asarray(cols["eps_S_L1"]),
            eps_S_L2=np.asarray(cols["eps_S_L2"]),
            eps_D_lockdown=np.asarray(cols["eps_D"]),
            eps_F_lockdown=np.asarray(cols["eps_F"]),
            on_site=np.asarray(cols["on_site"], dtype=float).astype(bool),
            r=float(raw["r"]),
            b=float(raw["b"]),
            l1=float(raw["l1"]),
            l2=float(raw["l2"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed scenario ({exc})") from None


def save_scenario(scenario: Scenario, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "start_date": scenario.start_date.isoformat(),
        "key_dates": [
            {"date": d.isoformat(), "event": event}
            for d, event in scenario.key_dates
        ],
        "r": scenario.r,
        "b": scenario.b,
        "l1": scenario.l1,
        "l2": scenario.l2,
        "shocks": {
            code: {
                "eps_S_L1": float(scenario.eps_S_L1[i]),
                "eps_S_L2": float(scenario.eps_S_L2[i]),
                "eps_D": float(scenario.eps_D_lockdown[i]),
                "eps_F": float(scenario.eps_F_lockdown[i]),
                "on_site": int(scenario.on_site[i]),
            }
            for i, code in enumerate(scenario.codes)
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
