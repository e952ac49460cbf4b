"""Exception types shared across the package.

Two failure categories are distinguished because the CLI maps them to
different exit codes:

* StructuralError (exit 1): malformed input such as wrong lengths,
  non-finite numbers, or unreadable configs.
* ValidationError (exit 2): well-formed input that violates a mathematical
  precondition (gap condition, band condition, sampling resonance,
  singular pencil, mode caps, contraction failure).
"""

from __future__ import annotations


class StructuralError(ValueError):
    """Malformed or inconsistent input data."""


class ValidationError(ValueError):
    """Input violates a mathematical precondition.

    ``details`` carries machine-readable context (violating index pairs,
    offending modes, diagnostics) for error reports.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = dict(details) if details else {}


class CertificationError(ValidationError):
    """A kernel inequality failed during certification.

    Carries the name of the violated inequality and the point.
    """
