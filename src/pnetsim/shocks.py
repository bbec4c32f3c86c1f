"""Scenario definition and shock time courses.

A :class:`Scenario` lists key dates (lockdown and "lockdown light" starts
and ends), per-sector shock magnitudes as positive fractions in [0, 1], and
ramp parameters. The :class:`ShockSchedule` compiles it into piecewise time
functions in one pass over the key dates, one ramp per event, each from
where the shocks stand:

* ``lockdown_start`` ramps linearly over ``l1`` days to the lockdown plateau
  ``(eps_D, eps_F, eps_S)``, with ``eps_S_L1`` in the first lockdown and
  ``eps_S_L2`` in every later one;
* ``lockdown_light_start`` releases over ``l2`` days to the light plateau
  ``(r * eps_D, r * eps_F, 0)``; when a lockdown is still open, this is
  that lockdown's release;
* ``lockdown_end`` and ``lockdown_light_end`` release over ``l2`` days to
  the light plateau, or to zero after the last key date.

A release moves labor shocks linearly, and demand shocks linearly for
ordinary sectors and along a slow logarithmic curve for sectors whose
consumption happens on site (the economy's ``on_site`` flags). Between
ramps the shocks hold. A ramp that starts while the previous one still runs
(say a lockdown shorter than ``l1``) cuts it and ramps on from where it
stands. The compiled holds and ramps tile ``[0, inf)``: each ends where the
next starts.

``_Segment`` holds the one copy of these formulas, in array form, and
``ShockSchedule.table`` is their one evaluator: it evaluates them at all of
a run's step or sample times in one call. ``ShockSchedule.at`` is row 0 of
``table([t])``.

All magnitudes are stored internally as positive fractions and applied in
the dynamics as ``(1 - eps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from ._files import parse_json, read_text, write_json
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
            if not np.all((vec >= 0) & (vec <= 1)):
                raise ValidationError(f"{name} entries must lie in [0, 1]")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        for name in ("r", "b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} = {v} outside [0, 1]")
        if not (0 < self.l1 < math.inf and 0 < self.l2 < math.inf):
            raise ValidationError("ramp lengths l1 and l2 must be finite and positive")
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
        missing = sorted(set(codes) - set(self.codes))
        extra = sorted(set(self.codes) - set(codes))
        if missing or extra:
            raise ValidationError(f"scenario sectors differ from the economy's: "
                                  f"missing {missing[:5]}, extra {extra[:5]}")
        pos = {c: i for i, c in enumerate(self.codes)}
        return np.asarray([pos[c] for c in codes])


@dataclass(frozen=True)
class ShockSample:
    """Shock values in economy sector order: ``(N,)`` arrays at a single
    instant, ``(T, N)`` arrays at a sequence of instants."""

    eps_S: np.ndarray
    eps_D: np.ndarray
    eps_F: np.ndarray


@dataclass
class _Segment:
    t0: float
    t1: float  # evaluation domain end (may cut the ramp short)
    dur: float  # mathematical ramp length; 0 for holds
    frm: tuple[np.ndarray, np.ndarray, np.ndarray]  # (D, F, S) at t0
    to: tuple[np.ndarray, np.ndarray, np.ndarray]
    style: str  # "hold" | "linear" | "release"
    on_site: np.ndarray

    def __post_init__(self):
        # What every evaluation of a ramp reads: its rise, and for a
        # release the fall of D and F and the sectors that recover slowly
        # (on site, and shocked less at the end). A hold never ramps, so it
        # keeps neither: each point of a grid chunk holds its own schedule.
        if self.style != "hold":
            self.rise = tuple(v1 - v0 for v0, v1 in zip(self.frm, self.to))
        if self.style == "release":
            self.slow = tuple((v0 - v1, self.on_site & (v1 < v0))
                              for v0, v1 in zip(self.frm[:2], self.to[:2]))

    def _ramp(self, t: np.ndarray):
        """Unclipped (D, F, S) along the ramp at the ``(T,)`` times ``t``:
        ``(T, N)`` arrays. Every operation is elementwise, so a time's row
        does not depend on the other times."""
        u = np.minimum(np.maximum((t - self.t0) / self.dur, 0.0), 1.0)[:, np.newaxis]
        out = [v0 + rise * u for v0, rise in zip(self.frm, self.rise)]
        if self.style == "release":
            # On-site demand recovers slowly at first, then accelerates.
            log_frac = _log(100.0 - 99.0 * u) / _LOG100
            for k, (fall, slow) in enumerate(self.slow):
                out[k] = np.where(slow, self.to[k] + fall * log_frac, out[k])
        return tuple(out)

    @property
    def is_hold(self) -> bool:
        return self.style == "hold"

    def values(self, t: np.ndarray):
        """(D, F, S) at the ``(T,)`` times ``t``, clipped to [0, 1]: ``(N,)``
        arrays for a hold, which every time shares, ``(T, N)`` arrays for a
        ramp."""
        if self.is_hold:
            return tuple(_clip01(v) for v in self.to)
        return tuple(_clip01(v) for v in self._ramp(t))


def _log(w: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry of a ``(T, 1)`` array.

    Not ``np.log``, whose result may differ in the last bit from the
    scalar function and with the array size.
    """
    return np.asarray([math.log(v) for v in w.ravel().tolist()])[:, np.newaxis]


def _clip01(v: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(v, 0.0), 1.0)


class ShockSchedule:
    """Compiled, vector-valued shock time functions for one scenario.

    The scenario compiles, in one pass over its key dates, into a plan of
    segments that tile ``[0, inf)``: holds and ramps. A lockdown start
    ramps over ``l1`` to the lockdown plateau (``eps_S_L1`` in the first
    lockdown, ``eps_S_L2`` after); a light start ramps over ``l2`` to the
    light plateau, releasing a lockdown still open; an end releases over
    ``l2`` to the light plateau, or to zero after the last key date.
    ``table`` evaluates the plan; ``breakpoints`` and ``holds`` describe
    its shape. Pure function of (scenario, economy); safe for
    concurrent evaluation. The shocks are aligned to the economy's sector
    order, and the on-site sectors are the economy's.
    """

    def __init__(self, scenario: Scenario, economy: Economy):
        self.scenario = scenario
        self.codes = tuple(economy.codes)
        self.on_site = economy.on_site
        self.pandemic_start = (scenario.day(scenario.key_dates[0][0])
                               if scenario.key_dates else None)
        self._segments = self._build(scenario.index_for(economy.codes))
        # The segments tile [0, inf) in order of their start.
        self._t0s = np.asarray([seg.t0 for seg in self._segments])
        self._t0s.setflags(write=False)

    # -- construction ------------------------------------------------------

    def _build(self, order: np.ndarray) -> list[_Segment]:
        # One ramp per key date, by the rules of the class docstring. Key
        # dates strictly increase, so ramp starts do: a ramp that starts
        # before the cursor cuts the last segment, a ramp that still runs.
        # The next ramp also holds a plateau to its end. Segments never
        # write to their levels, so they may share plateau arrays.
        scn = self.scenario
        n = len(self.codes)
        eps_D, eps_F = scn.eps_D_lockdown[order], scn.eps_F_lockdown[order]
        zeros = (np.zeros(n),) * 3
        light = (scn.r * eps_D, scn.r * eps_F, zeros[0])
        segments: list[_Segment] = []
        cursor = 0.0
        levels = zeros

        def add_transition(t_start, duration, target, style):
            nonlocal cursor, levels
            if t_start < cursor:
                last = segments[-1]
                levels = tuple(v[0] for v in last._ramp(np.array([t_start])))
                last.t1 = t_start
            elif t_start > cursor:
                segments.append(
                    _Segment(cursor, t_start, 0.0, levels, levels, "hold",
                             self.on_site)
                )
            segments.append(
                _Segment(t_start, t_start + duration, duration, levels, target,
                         style, self.on_site)
            )
            cursor = t_start + duration
            levels = target

        open_phase = None  # "lockdown" or "light phase" while one is open
        lockdowns = 0
        for k, (d, event) in enumerate(scn.key_dates, start=1):
            t = scn.day(d)
            if event == EVENT_LOCKDOWN_START:
                if open_phase is not None:
                    raise ValidationError(f"{event} on {d} inside an open phase")
                eps_S = (scn.eps_S_L2 if lockdowns else scn.eps_S_L1)[order]
                add_transition(t, scn.l1, (eps_D, eps_F, eps_S), "linear")
                open_phase, lockdowns = "lockdown", lockdowns + 1
            elif event == EVENT_LIGHT_START:
                if open_phase == "light phase":
                    raise ValidationError(f"{event} on {d} inside an open phase")
                add_transition(t, scn.l2, light, "release")
                open_phase = "light phase"
            else:
                closes = "lockdown" if event == EVENT_LOCKDOWN_END else "light phase"
                if open_phase != closes:
                    raise ValidationError(f"{event} on {d} without an open {closes}")
                floor = zeros if k == len(scn.key_dates) else light
                add_transition(t, scn.l2, floor, "release")
                open_phase = None
        if open_phase is not None:
            raise ValidationError("scenario ends with an unclosed phase")

        segments.append(
            _Segment(cursor, math.inf, 0.0, levels, levels, "hold", self.on_site)
        )
        return segments

    # -- evaluation --------------------------------------------------------

    @property
    def breakpoints(self) -> np.ndarray:
        """Times where some shock time course has a kink: every segment
        start after 0."""
        return self._t0s[1:]

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
            for col, v in zip(cols, self._segments[k].values(t[rows])):
                col[rows] = v
        return ShockSample(eps_S=eps_S, eps_D=eps_D, eps_F=eps_F)

    def at(self, t: float) -> ShockSample:
        """Shock values at one time: ``(N,)`` arrays, row 0 of ``table([t])``."""
        row = self.table([float(t)])
        return ShockSample(eps_S=row.eps_S[0], eps_D=row.eps_D[0], eps_F=row.eps_F[0])


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
    """Read a scenario JSON file; shock magnitudes are fractions in [0, 1].
    A key listed twice in any object, a sector of ``shocks`` too, is refused."""
    raw = parse_json(read_text(path), path)
    try:
        start = date.fromisoformat(raw["start_date"])
        key_dates = tuple(
            (date.fromisoformat(item["date"]), str(item["event"]))
            for item in raw["key_dates"]
        )
        shocks = raw["shocks"]
        if not isinstance(shocks, dict):
            raise TypeError("'shocks' must map sector codes to objects")
        codes = tuple(shocks)
        cols = {k: [] for k in ("eps_S_L1", "eps_S_L2", "eps_D", "eps_F")}
        for code in codes:
            entry = shocks[code]
            if "on_site" in entry:
                raise SchemaError(
                    f"{path}: sector {code} carries 'on_site'; on-site flags "
                    "come from the initial-states file or --on-site")
            for k in cols:
                cols[k].append(float(entry[k]))
        scalars = {k: float(raw[k]) for k in ("r", "b", "l1", "l2")}
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed scenario ({exc})") from None
    # Outside the parsing block: a file that parses but breaks Scenario's
    # checks raises ValidationError, not SchemaError.
    return Scenario(
        start_date=start,
        key_dates=key_dates,
        codes=codes,
        eps_S_L1=np.asarray(cols["eps_S_L1"]),
        eps_S_L2=np.asarray(cols["eps_S_L2"]),
        eps_D_lockdown=np.asarray(cols["eps_D"]),
        eps_F_lockdown=np.asarray(cols["eps_F"]),
        **scalars,
    )


def save_scenario(scenario: Scenario, path) -> Path:
    return write_json(path, {
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
            }
            for i, code in enumerate(scenario.codes)
        },
    })
