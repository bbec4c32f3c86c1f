"""Exception hierarchy shared across the package; ``_files`` owns the
checks of every input file and the ``SchemaError`` each raises."""

from __future__ import annotations


class PnetError(Exception):
    """Base class for all package errors."""


class SchemaError(PnetError):
    """An input file does not parse against its documented schema."""


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
    """A grid-search checkpoint was written for other inputs or by an
    earlier version, or is damaged before its final record."""
