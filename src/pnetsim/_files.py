"""The package's file formats, decided once.

Every input file is read by ``read_text``, every CSV input parsed by
``read_csv`` and every JSON input by ``parse_json``; every CSV output but
the hand-formatted trajectory export is written by ``write_csv``. A
malformed input raises ``SchemaError`` naming the file. The grid-search
checkpoint, the program's own file, keeps its own reader and rules.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .errors import SchemaError


def read_text(path) -> str:
    """The text of the UTF-8 file ``path``, without the byte-order mark a
    spreadsheet's "CSV UTF-8" puts first; ``SchemaError`` when nothing is
    there, a directory is, or the bytes are not UTF-8 (a named pipe passes)."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"file not found: {path}")
    if path.is_dir():
        raise SchemaError(f"a directory, not a file: {path}")
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from None


def keyed_once(source, pairs, what: str = "code") -> dict:
    """``dict(pairs)``; ``SchemaError`` naming ``source`` and a key listed twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError(f"{source}: {what} {key!r} listed twice")
        out[key] = value
    return out


def read_csv(path, header=None) -> tuple[list[str], list[list[str]]]:
    """The header and the data rows of the CSV file ``path``: every cell
    stripped, blank lines skipped, every row as long as the header, and the
    header ``header`` when one is given."""
    text = read_text(path)
    try:
        rows = [[cell.strip() for cell in row]
                for row in csv.reader(io.StringIO(text, newline="")) if row]
    except csv.Error as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not rows:
        raise SchemaError(f"{path}: file is empty")
    found, *rows = rows
    if header is not None and found != list(header):
        raise SchemaError(f"{path}: header {found} does not match {list(header)}")
    for k, row in enumerate(rows, start=2):
        if len(row) != len(found):
            raise SchemaError(
                f"{path}: row {k} has {len(row)} cells, expected {len(found)}")
    return found, rows


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` to ``path`` by ``csv.writer``; makes its folder."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def parse_json(text: str, source):
    """``text`` parsed as JSON; ``SchemaError`` naming ``source`` when it
    does not parse or when an object lists a key twice."""
    try:
        return json.loads(
            text, object_pairs_hook=lambda pairs: keyed_once(source, pairs, "key"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{source}: invalid JSON ({exc})") from None
