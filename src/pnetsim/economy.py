"""Static economy data: input-output table, initial states, criticality survey.

The economy is immutable after loading and safe to share between concurrent
simulation runs. Conventions throughout the package:

* ``Z[i, j]`` is the monetary flow from supplier ``i`` to buyer ``j``
  (rows supply, columns demand).
* ``A[i, j] = Z[i, j] / x0[j]`` is the amount of input ``i`` needed per unit
  of output ``j``; columns of sectors with zero baseline output are zero.
* ``criticality[i, j]`` rates input ``i`` for buyer ``j``: 1 critical,
  0.5 important, 0 non-critical.

One reader, ``_read_table``, serves all five input files: the IO table and
the criticality survey (square matrices), the initial states, and the
optional ``code,n_days`` and ``code,on_site`` override files. Built on
``_files.read_csv``, it also refuses a sector code listed twice.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._files import keyed_once, read_csv, write_csv
from .errors import SchemaError, ValidationError

# Relative tolerance for the per-sector accounting identity
# x0[i] == sum_j Z[i, j] + c0[i] + f0[i].
IDENTITY_RTOL = 1e-6

# Column sums of A above 1 + this slack trigger a warning (not an error):
# published tables carry rounding noise.
COLUMN_SUM_SLACK = 1e-9

CRITICALITY_LEVELS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class Economy:
    """Validated static production network.

    ``codes`` lists the sector codes, each once, in matrix order; a code's
    position is ``codes.index(code)``. All arrays are read-only; ``A`` is
    derived from ``Z`` and ``x0`` at construction time and never stored
    independently on disk.
    """

    codes: tuple[str, ...]
    Z: np.ndarray
    x0: np.ndarray
    c0: np.ndarray
    f0: np.ndarray
    l0: np.ndarray
    A: np.ndarray
    n_days_inventory: np.ndarray
    criticality: np.ndarray
    on_site: np.ndarray

    @property
    def n_sectors(self) -> int:
        return len(self.codes)

    @property
    def theta0(self) -> np.ndarray:
        """Baseline household preference shares c0 / sum(c0)."""
        return self.c0 / self.c0.sum()


@dataclass(frozen=True)
class CriticalitySets:
    """Per-buyer sets of critical / important suppliers, as boolean masks.

    ``critical_mask[i, j]`` is True when input ``i`` is rated critical for
    buyer ``j``; ``important_mask`` likewise for the 0.5 rating. Derived,
    never stored: the raw rating matrix on ``Economy`` is the single source
    of truth.
    """

    critical_mask: np.ndarray
    important_mask: np.ndarray

    def critical(self, buyer: int) -> np.ndarray:
        """Indices of suppliers rated critical for ``buyer``."""
        return np.flatnonzero(self.critical_mask[:, buyer])

    def important(self, buyer: int) -> np.ndarray:
        """Indices of suppliers rated important for ``buyer``."""
        return np.flatnonzero(self.important_mask[:, buyer])


def _freeze(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def make_economy(
    codes,
    Z,
    c0,
    f0,
    l0,
    n_days_inventory,
    criticality,
    on_site,
    x0=None,
) -> Economy:
    """Assemble and validate an :class:`Economy` from raw arrays.

    When ``x0`` is omitted it is computed from the accounting identity,
    which then holds exactly. When given, the identity is checked to
    ``IDENTITY_RTOL`` relative tolerance and violations are reported per
    sector.
    """
    codes = tuple(codes)
    if len(set(codes)) != len(codes):
        dupes = sorted({c for c in codes if codes.count(c) > 1})
        raise ValidationError(f"duplicate sector codes: {dupes}")
    n = len(codes)
    Z = np.asarray(Z, dtype=float)
    c0 = np.asarray(c0, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    l0 = np.asarray(l0, dtype=float)
    n_days = np.asarray(n_days_inventory, dtype=float)
    crit = np.asarray(criticality, dtype=float)
    on_site_arr = np.asarray(on_site).astype(bool)

    problems: list[str] = []
    if Z.shape != (n, n):
        raise ValidationError(f"IO matrix shape {Z.shape} does not match {n} sectors")
    for name, vec in (("x0", x0), ("c0", c0), ("f0", f0), ("l0", l0),
                      ("n_days", n_days), ("on_site", on_site_arr)):
        if vec is None:
            continue
        if np.shape(vec) != (n,):
            raise ValidationError(f"{name} has shape {np.shape(vec)}, expected ({n},)")
    if crit.shape != (n, n):
        raise ValidationError(
            f"criticality shape {crit.shape} does not match {n} sectors"
        )

    row_totals = np.sum(Z, axis=1)
    if x0 is None:
        x0 = row_totals + c0 + f0
    else:
        x0 = np.asarray(x0, dtype=float)
        residual = np.abs(x0 - row_totals - c0 - f0)
        scale = np.maximum(np.abs(x0), 1.0)
        bad = np.flatnonzero(residual > IDENTITY_RTOL * scale)
        for i in bad:
            problems.append(
                f"sector {codes[i]}: output {x0[i]:g} != "
                f"intermediate sales {row_totals[i]:g} + household {c0[i]:g} "
                f"+ exogenous {f0[i]:g} (residual {residual[i]:g})"
            )

    for name, arr in (("Z", Z), ("x0", x0), ("c0", c0), ("f0", f0),
                      ("l0", l0), ("n_days", n_days)):
        if not np.all(np.isfinite(arr)):
            problems.append(f"{name} contains non-finite entries")
        if np.any(arr < 0):
            problems.append(f"{name} contains negative entries")
    for name, arr in (("c0", c0), ("l0", l0)):
        # The households' consumption share sum(c0) / sum(l0) and the
        # preference shares c0 / sum(c0) divide by these totals.
        if not arr.sum() > 0:
            problems.append(f"{name} sums to {arr.sum():g}, not above 0")

    bad_crit = ~np.isin(crit, CRITICALITY_LEVELS)
    if np.any(bad_crit):
        i, j = np.argwhere(bad_crit)[0]
        problems.append(
            f"criticality[{codes[i]},{codes[j]}] = {crit[i, j]:g} "
            "not in {0, 0.5, 1}"
        )

    if problems:
        raise ValidationError(
            f"economy validation failed ({len(problems)} problem(s))", problems
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.where(x0[np.newaxis, :] > 0, Z / np.where(x0 > 0, x0, 1.0), 0.0)

    col_sums = A.sum(axis=0)
    heavy = np.flatnonzero(col_sums > 1.0 + COLUMN_SUM_SLACK)
    if heavy.size:
        worst = heavy[np.argmax(col_sums[heavy])]
        warnings.warn(
            f"intermediate cost shares exceed output value for "
            f"{heavy.size} sector(s), worst {codes[worst]} "
            f"({col_sums[worst]:.6f})",
            stacklevel=2,
        )

    return Economy(
        codes=codes,
        Z=_freeze(Z),
        x0=_freeze(x0),
        c0=_freeze(c0),
        f0=_freeze(f0),
        l0=_freeze(l0),
        A=_freeze(A),
        n_days_inventory=_freeze(n_days),
        criticality=_freeze(crit),
        on_site=_freeze(on_site_arr, bool),
    )


def derive_criticality_sets(economy: Economy) -> CriticalitySets:
    """Split the raw rating matrix into critical / important supplier sets."""
    crit = economy.criticality
    if np.any(~np.isin(crit, CRITICALITY_LEVELS)):
        raise ValidationError("criticality entries outside {0, 0.5, 1}")
    return CriticalitySets(
        critical_mask=crit == 1.0,
        important_mask=crit == 0.5,
    )


def initial_inventories(economy: Economy) -> np.ndarray:
    """Equilibrium stocks: n_j days of each baseline input flow, S0 = n_j * Z."""
    return economy.Z * economy.n_days_inventory[np.newaxis, :]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

STATE_COLUMNS = ("code", "x0", "c0", "f0", "l0", "n_days", "on_site")


def _read_table(path, columns=None, order=None) -> tuple[list[str], np.ndarray]:
    """Read a sector-keyed CSV: its row codes and one row of numbers each.

    ``_files.read_csv`` checks the file, its header (``columns``, the code
    column first) and its row lengths. With no ``columns`` the file is a
    square matrix whose first row and column carry the same sector codes.
    Every code is listed once, and an ``on_site`` column holds only 0 and 1.
    With ``order`` (the IO table's codes) the file lists the same codes, and
    its rows, and a matrix's columns, come back in that order.
    """
    header, rows = read_csv(path, columns)
    labels = header[1:]
    table = keyed_once(path, ((row[0], row[1:]) for row in rows))
    codes = list(table)
    if columns is None and codes != labels:
        raise SchemaError(f"{path}: row codes do not match column codes")
    values = np.empty((len(codes), len(labels)), dtype=float)
    for i, (code, cells) in enumerate(table.items()):
        for j, cell in enumerate(cells):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise SchemaError(
                    f"{path}: non-numeric cell {cell!r} at row {code!r}, "
                    f"column {labels[j]!r}") from None
    if "on_site" in (columns or ()):
        if np.any(~np.isin(values[:, labels.index("on_site")], (0.0, 1.0))):
            raise SchemaError(f"{path}: on_site entries must be 0 or 1")
    if order is None:
        return codes, values
    if set(codes) != set(order):
        raise SchemaError(
            f"{path}: sector codes do not match the IO table (missing "
            f"{sorted(set(order) - table.keys())[:5]}, unexpected "
            f"{sorted(table.keys() - set(order))[:5]})")
    position = {code: i for i, code in enumerate(codes)}
    perm = [position[code] for code in order]
    return list(order), values[perm] if columns else values[np.ix_(perm, perm)]


def load_economy(
    io_table_path,
    initial_states_path,
    criticality_path,
    inventory_targets_path=None,
    on_site_path=None,
) -> Economy:
    """Load and validate an economy from its CSV files.

    The initial-states file carries inventory targets and on-site flags as
    columns; the two optional paths override those columns from standalone
    ``code,n_days`` / ``code,on_site`` files when data ships split across
    sources.
    """
    codes, Z = _read_table(io_table_path)
    _, states = _read_table(initial_states_path, STATE_COLUMNS, codes)
    x0, c0, f0, l0, n_days, on_site = states.T
    _, crit = _read_table(criticality_path, order=codes)
    if inventory_targets_path is not None:
        n_days = _read_table(inventory_targets_path, ("code", "n_days"), codes)[1][:, 0]
    if on_site_path is not None:
        on_site = _read_table(on_site_path, ("code", "on_site"), codes)[1][:, 0]
    return make_economy(codes, Z, c0, f0, l0, n_days, crit, on_site, x0=x0)


def write_economy(economy: Economy, directory) -> dict[str, Path]:
    """Write the three economy CSVs; inverse of :func:`load_economy`.
    ``csv.writer`` writes a float as its ``repr``, which reads back exactly."""
    directory = Path(directory)

    def write(name: str, header, rows) -> Path:
        return write_csv(directory / name, header,
                         ([code, *row] for code, row in zip(economy.codes, rows)))

    accounts = np.column_stack((economy.x0, economy.c0, economy.f0, economy.l0,
                                economy.n_days_inventory)).tolist()
    return {
        "io_table": write("io_table.csv", ["", *economy.codes], economy.Z.tolist()),
        "criticality": write("criticality.csv", ["", *economy.codes],
                             economy.criticality.tolist()),
        "initial_states": write(
            "initial_states.csv", STATE_COLUMNS,
            ([*row, int(flag)] for row, flag in zip(accounts, economy.on_site))),
    }
