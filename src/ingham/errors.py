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
tolerances) takes a real, not a bool, in (0, inf); `finite` (frequencies,
t', omega', margin, [re, im] parts in configs) the same without the sign;
`finite_complex` (amplitudes, coefficients, x') a number with finite parts;
`count` (J, J', mode indices) a Python or numpy integer, not a bool, of at
least 1 (0 for seeds and trials) and at most 2^53.  JSON configs are read
first by `cli._real`, a number or numeric string but no boolean, and
`cli._integer`, which also takes 16.0.
"""

from __future__ import annotations

import cmath
import math
import numbers

# the largest count up to which every integer is a double: J delta, 2J + 1 and J' delta stay exact
_COUNT_MOST = 2**53


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
    # the built-in types come first, so that isinstance rarely consults the ABC
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        try:
            if math.isfinite(x := float(value)):
                return x
        except OverflowError:
            pass
    raise StructuralError(f"{name} must be a finite real, got {value}")


def finite_complex(value, name: str) -> complex:
    """value as a complex with finite parts: a bool or a non-number is malformed."""
    if isinstance(value, (complex, float, int, numbers.Complex)) and not isinstance(value, bool):
        try:
            if cmath.isfinite(z := complex(value)):
                return z
        except OverflowError:
            pass
    raise StructuralError(f"{name} must be a finite complex, got {value}")


def positive(value, name: str) -> float:
    """value as a float above 0 that `finite` accepts."""
    try:
        if (x := finite(value, name)) > 0.0:
            return x
    except StructuralError:
        pass
    raise StructuralError(f"{name} must be positive, got {value}")


def count(value, name: str, least: int = 1) -> int:
    """value as an int in [least, 2^53], least 0 or 1: only integer types qualify."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and least <= value <= _COUNT_MOST:
        return int(value)
    kind = "nonnegative" if least == 0 else "positive"
    most = " at most 2^53" if integral and value > _COUNT_MOST else ""
    raise StructuralError(f"{name} must be a {kind} integer{most}, got {value}")
