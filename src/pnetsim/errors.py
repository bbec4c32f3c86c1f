"""Exception hierarchy shared across the package."""

from __future__ import annotations

from pathlib import Path


class PnetError(Exception):
    """Base class for all package errors."""


class SchemaError(PnetError):
    """An input file does not parse against its documented schema."""


def existing_file(path) -> Path:
    """``path`` as a ``Path``; ``SchemaError`` when nothing is there or a
    directory is (a named pipe passes)."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"file not found: {path}")
    if path.is_dir():
        raise SchemaError(f"a directory, not a file: {path}")
    return path


def keyed_once(path, pairs, what: str = "code") -> dict:
    """``dict(pairs)``; ``SchemaError`` naming ``path`` and the first key
    listed twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError(f"{path}: {what} {key!r} listed twice")
        out[key] = value
    return out


class ValidationError(PnetError, ValueError):
    """Parsed data or an argument value violates a model invariant.

    Each function that takes a value raises it where the value is used, for
    NaN too; it is also a ``ValueError``. ``details`` carries one
    human-readable string per violation so callers (notably the CLI) can
    report every offending sector at once.
    """

    def __init__(self, message: str, details: list[str] | None = None):
        super().__init__(message)
        self.details = list(details or [])


class ModelStateError(PnetError):
    """The simulation reached a state outside the model's domain."""


class IntegrationError(PnetError):
    """The continuous integrator failed to advance the solution."""


class CheckpointError(PnetError):
    """A grid-search checkpoint does not match the requested grid, or is
    damaged before its final record."""
