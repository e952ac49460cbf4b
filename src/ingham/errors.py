"""Exception types shared across the package, and the rules for numbers.

Two failure categories are distinguished because the CLI maps them to
different exit codes:

* StructuralError (exit 1): malformed input such as wrong lengths,
  non-finite numbers, or unreadable configs.
* ValidationError (exit 2): well-formed input that violates a mathematical
  precondition (gap condition, band condition, sampling resonance,
  singular pencil, mode caps, contraction failure).

Each kind of number has one rule, and a value that breaks it raises
StructuralError naming the argument: `positive` (delta, gamma, R, epsilon,
tolerances) takes a real, not a bool, in (0, inf); `finite` (t', omega')
the same without the sign; `count` (J, J', mode indices, grid_points) a
Python or numpy integer, not a bool, of at least 1 (0 for seeds and
trials).  JSON configs are read first by `cli._real`, a number or numeric
string but no boolean, and `cli._integer`, which also takes 16.0.
"""

from __future__ import annotations

import math
import numbers


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


def finite(value, name: str) -> float:
    """value as a finite float: a bool, a non-real or a real past the double range is malformed."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(x := float(value)):
                return x
        except OverflowError:
            pass
    raise StructuralError(f"{name} must be a finite real, got {value}")


def positive(value, name: str) -> float:
    """value as a float above 0 that `finite` accepts."""
    try:
        if (x := finite(value, name)) > 0.0:
            return x
    except StructuralError:
        pass
    raise StructuralError(f"{name} must be positive, got {value}")


def count(value, name: str, least: int = 1) -> int:
    """value as an int of at least `least` (0 or 1): only integer types qualify."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        kind = "nonnegative" if least == 0 else "positive"
        raise StructuralError(f"{name} must be a {kind} integer, got {value}")
    return int(value)
