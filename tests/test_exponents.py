import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import block_sequence
from ingham import (
    ExponentSequence,
    StructuralError,
    ValidationError,
    band_mask,
    classify,
    validate_weak_gap,
)
from ingham import exponents
from ingham.cli import _sanitize, _seq_from
from ingham.exponents import GapValidation


def seq(*omegas, gamma=1.0, gamma0=None):
    return ExponentSequence(tuple(omegas), gamma, gamma0 if gamma0 is not None else gamma)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(StructuralError):
            ExponentSequence((), 1.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(StructuralError):
            seq(0.0, math.inf)

    def test_rejects_non_sequence(self):
        with pytest.raises(StructuralError, match="frequencies must be real numbers"):
            ExponentSequence(3.0, 1.0, 1.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(StructuralError):
            ExponentSequence((0.0, 3.0), 0.0, 0.0)
        with pytest.raises(StructuralError):
            ExponentSequence((0.0, 3.0), 1.0, 2.0)  # gamma0 > gamma

    def test_gaps(self):
        s = seq(0.0, 0.5, 2.5)
        assert s.gaps() == (0.5, 2.0)

    def test_serialization_roundtrip(self):
        s = seq(0.0, 0.4, 2.2, gamma=1.0, gamma0=0.5)
        again = _seq_from(json.loads(json.dumps(_sanitize(s))))
        assert again == s


class TestValidation:
    def test_single_exponent_valid(self):
        assert validate_weak_gap(seq(3.0)).ok

    def test_pair_below_two_gamma_valid(self):
        # adjacent gap may be tiny; only two-step gaps are constrained
        assert validate_weak_gap(seq(0.0, 0.1)).ok

    def test_two_step_violation_reported(self):
        report = validate_weak_gap(seq(0.0, 0.5, 1.0))
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "weak_gap" in kinds
        v = report.violations[0]
        assert (v.i, v.j) == (0, 2)
        assert v.observed == pytest.approx(1.0)
        assert v.required == pytest.approx(2.0)

    def test_monotonicity_violation_reported(self):
        report = validate_weak_gap(ExponentSequence((1.0, 1.0, 5.0), 1.0, 1.0))
        assert not report.ok
        assert any(v.kind == "monotone" for v in report.violations)

    def test_exact_equality_accepted(self):
        assert validate_weak_gap(seq(0.0, 1.0, 2.0)).ok


class TestClassification:
    def test_all_far_is_all_a1(self):
        cls = classify(seq(0.0, 2.5, 5.0, gamma0=1.0))
        assert cls.a1 == {0, 1, 2}
        assert cls.a2_leads == frozenset()

    def test_chain_pairing(self):
        # gamma=0.85 keeps the two-step windows valid while gamma0 splits pairs
        s = seq(0.0, 0.1, 2.0, 2.1, 4.0, gamma=0.85, gamma0=0.85)
        cls = classify(s)
        assert cls.a2_leads == {0, 2}
        assert cls.partners == {0: 1, 2: 3}
        assert cls.a1 == {4}

    def test_partner_not_its_own_lead(self):
        s = seq(0.0, 0.2, gamma=1.0, gamma0=0.5)
        cls = classify(s)
        assert cls.a2_leads == {0}
        assert cls.partners[0] == 1
        assert 1 not in cls.a1

    def test_boundary_gaps_infinite(self):
        # first and last elements lack one neighbor; missing gap counts as infinite
        cls = classify(seq(7.0))
        assert cls.a1 == {0}

    def test_invalid_sequence_raises_with_report(self):
        with pytest.raises(ValidationError) as err:
            classify(seq(0.0, 0.5, 1.0))
        assert "violations" in err.value.details

    def test_both_gaps_below_gamma0_refused(self, monkeypatch):
        # a validator that lets the sequence through: index 1 has gaps 0.1 and 0.1
        monkeypatch.setattr(exponents, "validate_weak_gap", lambda seq: GapValidation(True, ()))
        s = seq(0.0, 0.1, 0.2, 5.0, gamma=1.0, gamma0=0.5)
        with pytest.raises(ValidationError, match="index 1 has both neighbor gaps below gamma0") as err:
            classify(s)
        assert err.value.details == {"index": 1, "left": 0.1 - 0.0, "right": 0.2 - 0.1}

    @given(st.integers(0, 10**6))
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        s = block_sequence(rng)
        cls = classify(s)
        leads = set(cls.a2_leads)
        partners = set(cls.partners.values())
        singles = set(cls.a1)
        assert leads | partners | singles == set(range(len(s)))
        assert not (leads & partners) and not (leads & singles) and not (partners & singles)
        for k in cls.a2_leads:
            assert cls.partners[k] == k + 1
            assert s.omegas[k + 1] - s.omegas[k] < s.gamma0
            if k > 0:
                assert s.omegas[k] - s.omegas[k - 1] >= s.gamma0
        for k in cls.a1:
            if k > 0 and k - 1 not in leads:
                assert s.omegas[k] - s.omegas[k - 1] >= s.gamma0
            if k + 1 < len(s):
                assert s.omegas[k + 1] - s.omegas[k] >= s.gamma0


class TestBandMask:
    def test_threshold_value(self):
        s = seq(0.0, 3.0)
        m = band_mask(s, 0.5)
        assert m.threshold == pytest.approx(math.pi / 0.5 - 0.5)

    def test_mask_selects_inside_band(self):
        s = seq(-6.0, 0.0, 3.0, 6.0, gamma=1.0)
        m = band_mask(s, 0.5)  # threshold ~ 5.783
        assert m.admissible == (False, True, True, False)
        assert m.active_indices() == (1, 2)
        assert m.active_count == 2

    def test_no_admissible_band_raises(self):
        s = seq(0.0, 3.0, gamma=2.0)
        with pytest.raises(ValidationError):
            band_mask(s, 4.0)  # pi/4 - 1 < 0

    @given(st.integers(0, 10**6), st.floats(0.05, 0.5))
    def test_mask_monotone_in_delta(self, seed, shrink):
        rng = np.random.default_rng(seed)
        s = block_sequence(rng)
        absmax = max(abs(w) for w in s.omegas)
        delta = 0.9 * math.pi / (absmax + s.gamma / 2.0)
        wide = band_mask(s, delta * shrink)
        narrow = band_mask(s, delta)
        assert set(narrow.active_indices()) <= set(wide.active_indices())
