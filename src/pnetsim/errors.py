"""Exception hierarchy shared across the package."""

from __future__ import annotations


class PnetError(Exception):
    """Base class for all package errors."""


class SchemaError(PnetError):
    """An input file does not parse against its documented schema."""


class ValidationError(PnetError):
    """Parsed data violates a model invariant.

    ``details`` carries one human-readable string per violation so callers
    (notably the CLI) can report every offending sector at once.
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
