"""The number rules of `ingham.errors` and every entry point that uses them.

Each argument below is a positive real (`positive`), a finite real or
complex number (`finite`, `finite_complex`) or an integer count of at
least 1 or 0 and at most 2^53 (`count`).  A value
outside its rule must raise StructuralError naming the argument, never
a bare ValueError, OverflowError or TypeError, and never be coerced
(True to 1, 2.5 to 2).
"""

import cmath
import math
import numbers

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ingham import (
    AugmentedExpSum,
    CoupledSystem,
    ExponentSequence,
    ExpSum,
    Mode,
    SamplingGrid,
    WindowKernel,
    band_mask,
    certify_constants,
    continuous_energy,
    continuum_limit_scan,
    epsilon_k,
    h_transform,
    mode_caps,
    periodize,
    plan_haraux,
    poisson_sides,
    verify_observability,
)
from ingham.cli import RunConfig, _sum_from, _system_from
from ingham.errors import StructuralError, count, finite, finite_complex, positive

SEQ = ExponentSequence((0.0, 3.0, 6.0), 1.0, 1.0)
SUM = ExpSum(ExponentSequence((0.0,), 1.0, 1.0), (1.0,))
KERNEL = certify_constants("direct", 1.0)
STRING_SYS = CoupledSystem(
    "string", math.sqrt(2.0) / 2.0, left=(Mode(1, 1.0, 1.0),), right=(Mode(1, 1.0, 1.0),)
)
STRING_GRID = SamplingGrid(0.2, 8)


def _system_with(**amplitudes):
    """A string system config whose left mode has the given [re, im] amplitudes."""
    mode = {"n": 1, "plus": [1.0, 0.0], "minus": [1.0, 0.0]}
    return {"kind": "string", "a": 0.5, "left": [dict(mode, **amplitudes)], "right": [mode]}


# (argument, rule, call taking the value); rule is "positive", "finite", "count" or "count0"
SITES = [
    ("tol", "positive", lambda v: RunConfig("gaps", "in.json", tol=v)),
    ("seed", "count0", lambda v: RunConfig("gaps", "in.json", seed=v)),
    ("delta", "positive", lambda v: SamplingGrid(v, 4)),
    ("J", "count", lambda v: SamplingGrid(0.1, v)),
    ("t_shift", "finite", lambda v: SamplingGrid(0.1, 4, v)),
    ("R", "positive", lambda v: continuous_energy(SUM, v)),
    ("delta", "positive", lambda v: poisson_sides(SUM, KERNEL, v)),
    ("tail_tol", "positive", lambda v: poisson_sides(SUM, KERNEL, 0.8, tail_tol=v)),
    ("gamma", "positive", lambda v: h_transform(v, 1.0)),
    ("gamma", "positive", lambda v: WindowKernel("direct", v, 1.0, 1.0)),
    ("R", "positive", lambda v: WindowKernel("inverse", 1.0, 1.0, 1.0, R=v)),
    ("plus", "finite", lambda v: Mode(1, v)),
    ("delta", "positive", lambda v: periodize(KERNEL, v, 0.0)),
    ("gamma", "positive", lambda v: ExponentSequence((0.0,), v, 0.5)),
    ("gamma0", "positive", lambda v: ExponentSequence((0.0,), 3.0, v)),
    ("delta", "positive", lambda v: band_mask(SEQ, v)),
    ("n", "count", lambda v: Mode(v)),
    ("gamma", "positive", lambda v: CoupledSystem("beam", 0.5, gamma=v)),
    ("delta", "positive", lambda v: mode_caps(STRING_SYS, v)),
    ("epsilon", "positive", lambda v: verify_observability(STRING_SYS, STRING_GRID, v, 3)),
    ("trials", "count0", lambda v: verify_observability(STRING_SYS, STRING_GRID, 0.05, v)),
    ("J_prime", "count", lambda v: epsilon_k(1.0, 2.0, v, 0.1)),
    ("delta", "positive", lambda v: epsilon_k(1.0, 2.0, 4, v)),
    ("J_prime", "count", lambda v: plan_haraux(SEQ, 4.1, v, 0.2)),
    ("delta", "positive", lambda v: plan_haraux(SEQ, 4.1, 4, v)),
    ("omega_prime", "finite", lambda v: plan_haraux(SEQ, v, 4, 0.2)),
    ("R", "positive", lambda v: continuum_limit_scan(SEQ, v, [8])),
    ("J", "count", lambda v: continuum_limit_scan(SEQ, 4.0, [v])),
    ("frequency", "finite", lambda v: ExponentSequence((v, 3.0), 1.0, 1.0)),
    ("omega_k", "finite", lambda v: epsilon_k(v, 2.0, 4, 0.1)),
    ("omega_prime", "finite", lambda v: epsilon_k(1.0, v, 4, 0.1)),
    ("omega_prime", "finite", lambda v: AugmentedExpSum(SUM, v, 1.0)),
    ("margin", "finite", lambda v: certify_constants("direct", 1.5, margin=v)),
    ("coeffs", "finite", lambda v: _sum_from({"omegas": [0.0], "coeffs": [[1.0, v]]}, 1.0)),
    ("coeffs", "finite", lambda v: _sum_from({"omegas": [0.0], "coeffs": [[v, 0.0]]}, 1.0)),
    ("minus", "finite", lambda v: Mode(1, 0.0, v)),
    ("coeffs", "finite", lambda v: ExpSum(ExponentSequence((0.0,), 1.0, 1.0), (v,))),
    ("x_prime", "finite", lambda v: AugmentedExpSum(SUM, 2.0, v)),
    ("plus", "finite", lambda v: _system_from(_system_with(plus=[v, 0.0]))),
    ("plus", "finite", lambda v: _system_from(_system_with(plus=[0.0, v]))),
    ("minus", "finite", lambda v: _system_from(_system_with(minus=[v, 0.0]))),
]

BAD = (True, math.inf, math.nan, "x", 0, -1, 2.5, 2**53 + 1)
# by repr, the values of BAD that each rule accepts
BIG = repr(2**53 + 1)
ACCEPTED = {"positive": {"2.5", BIG}, "finite": {"0", "-1", "2.5", BIG}, "count": set(), "count0": {"0"}}

CASES = [
    pytest.param(call, name, value, id=f"{k}-{name}-{value!r}")
    for k, (name, rule, call) in enumerate(SITES)
    for value in BAD
    if repr(value) not in ACCEPTED[rule]
]


@pytest.mark.parametrize("call, name, value", CASES)
def test_entry_point_refuses_value_outside_its_rule(call, name, value):
    with pytest.raises(StructuralError) as err:
        call(value)
    assert name in str(err.value).split()


# the smallest positive real that rounds to inf as a double
_DOUBLE_LIMIT = 2**1024 - 2**970

VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.complex_numbers(),
    st.integers(),
    st.integers(min_value=2**1023, max_value=2**1025),
    st.floats(),
    st.fractions(max_denominator=10**6),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
)


def _real(value):
    """value as an exact Python number if it is a real that is not a bool, else None."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    return value.item() if isinstance(value, np.generic) else value


@given(VALUES)
def test_positive_accepts_exactly_its_domain(value):
    r = _real(value)
    inside = r is not None and 0 < r < _DOUBLE_LIMIT
    if inside:
        x = positive(value, "v")
        assert type(x) is float and x == float(value)
    else:
        with pytest.raises(StructuralError, match="v must be positive"):
            positive(value, "v")


@given(VALUES)
def test_finite_accepts_exactly_its_domain(value):
    r = _real(value)
    inside = r is not None and -_DOUBLE_LIMIT < r < _DOUBLE_LIMIT
    if inside:
        x = finite(value, "v")
        assert type(x) is float and x == float(value)
    else:
        with pytest.raises(StructuralError, match="v must be a finite real"):
            finite(value, "v")


@given(VALUES)
def test_finite_complex_accepts_exactly_its_domain(value):
    if isinstance(value, complex):
        inside = cmath.isfinite(value)
    else:
        r = _real(value)
        inside = r is not None and -_DOUBLE_LIMIT < r < _DOUBLE_LIMIT
    if inside:
        z = finite_complex(value, "v")
        assert type(z) is complex and z == complex(value)
    else:
        with pytest.raises(StructuralError, match="v must be a finite complex"):
            finite_complex(value, "v")


@pytest.mark.parametrize("value", [2**53, np.int64(2**53)])
def test_count_accepts_up_to_2_to_the_53(value):
    assert count(value, "J") == 2**53


@pytest.mark.parametrize("value", [2**53 + 1, np.int64(2**62), 10**400])
def test_count_above_2_to_the_53_is_named(value):
    with pytest.raises(StructuralError, match=f"^J must be a positive integer at most 2\\^53, got {value}$"):
        count(value, "J")


@given(VALUES, st.sampled_from([0, 1]))
def test_count_accepts_exactly_its_domain(value, least):
    inside = isinstance(value, numbers.Integral) and not isinstance(value, bool) and least <= value <= 2**53
    if inside:
        n = count(value, "v", least)
        assert type(n) is int and n == value
    else:
        kind = "nonnegative" if least == 0 else "positive"
        with pytest.raises(StructuralError, match=f"v must be a {kind} integer"):
            count(value, "v", least)

