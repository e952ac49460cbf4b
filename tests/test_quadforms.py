import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import block_sequence, dense_block_q, pair_basis, random_coeffs
from ingham import (
    AugmentedExpSum,
    ExponentSequence,
    ExpSum,
    StructuralError,
    ValidationError,
    band_mask,
    q_form,
    q_matrix,
    q_prime,
)
from ingham.exponents import BandMask

CHAIN = ExponentSequence((0.0, 0.5, 3.0, 3.4, 6.0), 1.0, 0.85)


class TestScalarForm:
    def test_all_a1_is_plain_energy(self, rng):
        seq = ExponentSequence((0.0, 3.0, 6.5), 1.0, 1.0)
        x = random_coeffs(rng, 3)
        assert q_form(seq, x) == pytest.approx(sum(abs(c) ** 2 for c in x), rel=1e-15)

    def test_chain_value(self):
        x = (1.0, 1.0j, 2.0, -1.0, 0.5)
        # pairs (0,1) gap 0.5 and (2,3) gap 0.4; index 4 alone
        expect = (
            abs(1.0 + 1.0j) ** 2
            + 0.25 * (1.0 + 1.0)
            + abs(2.0 - 1.0) ** 2
            + 0.16 * (4.0 + 1.0)
            + 0.25
        )
        assert q_form(CHAIN, x) == pytest.approx(expect, rel=1e-14)

    def test_coeff_count_mismatch(self):
        with pytest.raises(StructuralError):
            q_form(CHAIN, (1.0, 2.0))

    def test_q_prime_adds_augmented_modulus(self):
        seq = ExponentSequence((0.0, 3.0), 1.0, 1.0)
        aug = AugmentedExpSum(ExpSum(seq, (1.0, 2.0j)), 1.5, 3.0 - 4.0j)
        assert q_prime(aug) == pytest.approx(25.0 + 1.0 + 4.0, rel=1e-15)


class TestMatrixForm:
    def test_matches_scalar_form(self, rng):
        # in the divided-difference basis Q is diagonal: q_form(B y) = sum diag |y|^2
        for _ in range(20):
            seq = block_sequence(rng)
            qm = q_matrix(seq)
            y = np.array(random_coeffs(rng, len(seq)))
            x = pair_basis(qm) @ y
            quad = float(np.sum(qm.diag * np.abs(y) ** 2))
            assert quad == pytest.approx(q_form(seq, x), rel=1e-12, abs=1e-12)

    def test_block_structure_and_eigenvalues(self):
        qm = q_matrix(CHAIN)
        d = 3.4 - 3.0
        assert qm.dim == 5 and qm.active == (0, 1, 2, 3, 4)
        assert qm.diag.tolist() == [4.0 + 2.0 * 0.25, 2.0, 4.0 + 2.0 * (d * d), 2.0, 1.0]
        assert qm.leads.tolist() == [0, 2] and qm.gaps.tolist() == [0.5, d]
        # B^T Q B of the coefficient-basis blocks [[1+d^2, 1], [1, 1+d^2]], whose
        # eigenvalues are d^2 and 2+d^2
        b = pair_basis(qm)
        assert np.allclose(b.T @ dense_block_q(CHAIN) @ b, np.diag(qm.diag), rtol=0.0, atol=1e-14)
        for k, gap in ((0, 0.5), (2, d)):
            block = dense_block_q(CHAIN)[k:k + 2, k:k + 2]
            assert np.allclose(np.linalg.eigvalsh(block), [gap * gap, 2.0 + gap * gap], atol=1e-14)

    def test_masked_submatrix(self):
        # drop index 4; both members of each pair stay active
        full = q_matrix(CHAIN)
        mask = band_mask(CHAIN, delta=0.75)  # threshold pi/0.75 - 0.5 = 3.689
        assert mask.active_indices() == (0, 1, 2, 3)
        qm = q_matrix(CHAIN, mask)
        assert qm.dim == 4
        assert np.array_equal(qm.diag, full.diag[:4])
        assert np.array_equal(qm.leads, full.leads) and np.array_equal(qm.gaps, full.gaps)

    def test_lone_pair_member_diagonal(self):
        seq = ExponentSequence((0.0, 2.5, 2.9), 1.0, 0.6)
        assert seq.classification.a2_leads == {1}
        mask = band_mask(seq, delta=1.05)  # threshold 2.49: only index 0 and 1...
        # threshold = pi/1.05 - 0.5 = 2.4920 -> active {0}
        if mask.active_indices() == (0,):
            qm = q_matrix(seq, mask)
            assert qm.diag.tolist() == [1.0] and qm.leads.tolist() == []
        mask2 = band_mask(seq, delta=1.0)  # threshold 2.6416 -> active {0, 1}
        qm2 = q_matrix(seq, mask2)
        d2 = 0.4**2
        assert qm2.dim == 2
        assert qm2.diag[1] == pytest.approx(1.0 + d2)
        assert qm2.leads.tolist() == [] and qm2.gaps.tolist() == []

    @given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=12, max_size=12), st.booleans())
    @example(seed=22457, flags=[False] * 5 + [True, True] + [False] * 5, keep_lead=False)
    def test_masked_matrix_is_principal_submatrix(self, seed, flags, keep_lead):
        # any mask, contiguous or not; the first pair always has one member in and one out.
        # The masked Q is the principal submatrix of the full one, taken to the basis of its pairs
        seq = block_sequence(np.random.default_rng(seed), chain_prob=0.9)
        flags = flags[: len(seq)]
        leads = sorted(seq.classification.a2_leads)
        if leads:
            flags[leads[0]], flags[leads[0] + 1] = keep_lead, not keep_lead
        mask = BandMask(admissible=tuple(flags), delta=1.0, threshold=1.0)
        active = mask.active_indices()
        qm = q_matrix(seq, mask)
        assert qm.active == active
        # B^T Q B in exact rationals of the double gaps, each entry then correctly rounded:
        # a rounded 1 + d^2 scaled by 1/d would cancel past any fixed tolerance
        b = pair_basis(qm, exact=True)
        sub = dense_block_q(seq, exact=True)[np.ix_(active, active)]
        want = np.array((b.T @ sub @ b).tolist(), dtype=float)
        # within 1 ulp, and exactly 0 off the diagonal
        assert np.all(np.abs(np.diag(qm.diag) - want) <= np.spacing(np.abs(want)))

    def test_positive_definite_when_gaps_positive(self, rng):
        for _ in range(10):
            seq = block_sequence(rng)
            qm = q_matrix(seq)
            assert qm.diag.min() > 0.0

    @given(st.integers(0, 2**32 - 1))
    def test_form_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        seq = block_sequence(rng, nmax=8)
        x = random_coeffs(rng, len(seq))
        assert q_form(seq, x) >= 0.0

    def test_mask_length_mismatch(self):
        other = ExponentSequence((0.0, 3.0), 1.0, 1.0)
        mask = band_mask(other, 0.5)
        with pytest.raises(StructuralError):
            q_matrix(CHAIN, mask)

    def test_pair_gap_floor_refused_by_name(self):
        # two pairs below the floor: the first lead in classification order is named
        seq = ExponentSequence((-3.5, -0.5, -0.5 + 1e-13, 2.8, 2.8 + 1e-14), 1.3, 0.9)
        with pytest.raises(ValidationError, match="QMatrix numerically singular: pair gap below 1e-12") as err:
            q_matrix(seq)
        lead = next(iter(seq.classification.a2_leads))
        assert err.value.details == {"lead": lead, "gap": seq.omegas[lead + 1] - seq.omegas[lead]}

    def test_pair_gap_floor_needs_both_members_active(self):
        # a pair below the floor outside the band leaves no pair to guard
        seq = ExponentSequence((-0.5, 3.0, 9.0, 9.0 + 1e-13), 1.3, 0.9)
        qm = q_matrix(seq, band_mask(seq, delta=0.5))  # threshold pi/0.5 - 0.65 = 5.63
        assert qm.active == (0, 1) and qm.diag.tolist() == [1.0, 1.0] and qm.leads.tolist() == []

    def test_no_active_index(self):
        mask = BandMask(admissible=(False,) * 5, delta=1.0, threshold=1.0)
        qm = q_matrix(CHAIN, mask)
        assert (qm.dim, qm.leads.shape, qm.gaps.shape) == (0, (0,), (0,))
