import ast
import dataclasses
import io
import json
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import bench_accuracy
from helpers import admissible_grid, block_sequence, dense_block_q, random_coeffs, uniform_disc
import ingham
import ingham.cli
from ingham import (
    AugmentedExpSum,
    ExponentSequence,
    ExpSum,
    SamplingGrid,
    StructuralError,
    ValidationError,
    band_mask,
    continuum_limit_scan,
    epsilon_k,
    extended_frame_constants,
    frame_constants,
    haraux_filter,
    hermitian_pencil_eig,
    plan_haraux,
    q_form,
    q_matrix,
    q_prime,
    sampled_energy,
    sampled_gram,
)
from ingham.bounds import (
    _CONTINUUM,
    _PI_PARTS,
    _SAMPLED,
    _filter_factor,
    _gram_from_omegas,
    _pair_basis,
    _pairs_first,
    _sampled_pencil,
    _sinc,
    _sinc_crossing,
    _upper_pairs,
)
from ingham.cli import _sanitize
from ingham.sums import continuous_gram

CHAIN = ExponentSequence((0.0, 0.5, 3.0, 3.4, 6.0), 1.0, 0.85)


def block_q(rng, n):
    """A Q diagonal of `q_matrix`'s form in the divided-difference basis: 4+2d^2
    and 2 per pair, with d in 1e-3..1 and one pair ending at the last index,
    1 per single, and 1+d^2 for a pair member whose partner is masked out."""
    diag = np.ones(n)
    k = 0
    while k < n:
        d2 = (10.0 ** rng.uniform(-3.0, 0.0)) ** 2
        if k == n - 2 or (k < n - 3 and rng.uniform() < 0.5):
            diag[k], diag[k + 1] = 4.0 + 2.0 * d2, 2.0
            k += 2
        else:
            if rng.uniform() < 0.3:
                diag[k] = 1.0 + d2
            k += 1
    return diag


def random_spd(rng, n):
    """A dense Hermitian positive definite matrix, every entry nonzero."""
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return b @ b.conj().T + n * np.eye(n)


def random_pencil(rng, n):
    """A random Hermitian S and a Q diagonal of `q_matrix`'s form, with a pair from n = 2."""
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (s + s.conj().T), block_q(rng, n)


def charpoly_eigs(a):
    """Eigenvalues of a Hermitian matrix (dim <= 3) from its characteristic polynomial."""
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    if n == 2:
        tr = np.trace(a).real
        det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
        disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
        return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])
    tr = np.trace(a).real
    minors = sum(
        (a[i, i] * a[j, j] - a[i, j] * a[j, i]).real
        for i in range(3)
        for j in range(i + 1, 3)
    )
    det = np.linalg.det(a).real
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)


class TestPencil:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_characteristic_polynomial(self, n, rng):
        for _ in range(10):
            s, q = random_pencil(rng, n)
            expected = charpoly_eigs(self.lu_pencil(s, q)[2])
            got = hermitian_pencil_eig(s, q)[0]
            assert np.allclose(got, expected, atol=1e-9 * max(1.0, np.linalg.norm(s)))

    @pytest.mark.parametrize("n", [4, 6, 12, 25])
    def test_matches_library_solver(self, n, rng):
        s, q = random_pencil(rng, n)
        expected = scipy.linalg.eigh(s, np.diag(q), eigvals_only=True)
        got = hermitian_pencil_eig(s, q)[0]
        assert np.allclose(got, expected, atol=1e-9 * np.linalg.norm(s))

    def test_vectors_solve_the_pencil(self, rng):
        s, q = random_pencil(rng, 8)
        vals, vecs = hermitian_pencil_eig(s, q)
        for i in range(8):
            r = s @ vecs[:, i] - vals[i] * (q * vecs[:, i])
            assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(s) * np.linalg.norm(vecs[:, i])

    def test_ascending_order(self, rng):
        s, q = random_pencil(rng, 9)
        vals = hermitian_pencil_eig(s, q)[0]
        assert np.all(np.diff(vals) >= 0.0)

    def test_rayleigh_extremality(self, rng):
        s, q = random_pencil(rng, 7)
        vals = hermitian_pencil_eig(s, q)[0]
        q = np.diag(q)
        for _ in range(50):
            z = rng.normal(size=7) + 1j * rng.normal(size=7)
            ratio = (z.conj() @ s @ z).real / (z.conj() @ q @ z).real
            assert vals[0] - 1e-10 <= ratio <= vals[-1] + 1e-10

    SHAPE = r"^pencil S must be n x n with n >= 1, and Q a real diagonal of length n$"

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError, match=self.SHAPE):
            hermitian_pencil_eig(np.eye(2), np.ones(3))

    def test_subdiagonal_argument_refused(self):
        # Q is a diagonal: a third positional argument, once the subdiagonal, is refused
        with pytest.raises(TypeError):
            hermitian_pencil_eig(np.eye(2), np.ones(2), np.zeros(1))

    @pytest.mark.parametrize(
        "s, q_diag",
        [
            (np.eye(3), np.eye(3)),
            (np.ones((3, 2)), np.ones(3)),
            (np.zeros((0, 0)), np.ones(0)),
            (np.eye(1), 1.0),
            (np.eye(2), np.array([2.0, 1.0 + 0j])),
        ],
        ids=["dense-q", "s-not-square", "empty", "scalar-diag", "complex-diag"],
    )
    def test_malformed_bands_refused(self, s, q_diag):
        # a complex diagonal is refused by name, not cast to its real part
        with pytest.raises(StructuralError, match=self.SHAPE):
            hermitian_pencil_eig(s, q_diag)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_s_norm_refused(self, scale):
        # finite entries whose ||S|| overflows: 1e-9 ||S|| = inf would pass any residual
        s = scale * np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        with pytest.raises(StructuralError, match=r"pencil residual gate undefined: \|\|S\|\| = inf"):
            hermitian_pencil_eig(s, np.ones(2))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    def test_subnormal_q_refused_without_warning(self, tiny, dtype):
        # 1/sqrt(q) of a subnormal entry overflows the vector and its residual: the gate's
        # norms run under the solve's errstate, so the NaN residual fails by name (the suite
        # turns warnings into errors)
        s = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=dtype)
        with pytest.raises(StructuralError, match=r"^pencil residual nan exceeds 1e-09 \* \|\|S\|\|$"):
            hermitian_pencil_eig(s, np.array([1.0, tiny]))

    def test_residual_gate(self, rng):
        # a Q eigenvalue of 1e-14 amplifies the congruence's rounding past 1e-9 ||S||
        s = random_spd(rng, 6)
        q_diag = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1e-14])
        with pytest.raises(StructuralError, match=r"pencil residual .* exceeds 1e-09 \* \|\|S\|\|"):
            hermitian_pencil_eig(s, q_diag)

    def test_dimension_above_200(self, rng):
        # 250 active exponents: the pencil dimension has no cap of its own
        seq = block_sequence(rng, nmin=250, nmax=250)
        grid = admissible_grid(seq)
        rep = frame_constants(seq, grid)
        assert rep.pencil_dim == 250 and not rep.singular
        # Gram summed sample by sample, against scipy's generalized solver
        v = np.exp(1j * np.multiply.outer(grid.times(), seq.omegas))
        s = grid.delta * (v.T @ v.conj())
        q = dense_block_q(seq, band_mask(seq, grid.delta))
        expected = scipy.linalg.eigh(s, q, eigvals_only=True)
        tol = 1e-9 * np.linalg.norm(s)
        assert rep.c_lower == pytest.approx(expected[0], abs=tol)
        assert rep.c_upper == pytest.approx(expected[-1], abs=tol)

    def test_diagonal_input(self):
        vals, vecs = hermitian_pencil_eig(np.diag([3.0, -1.0, 2.0]), np.ones(3))
        assert np.allclose(vals, [-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])

    @staticmethod
    def diagonal_pencil(rng, n):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return g @ g.conj().T, np.exp(rng.uniform(-3.0, 3.0, size=n))

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_diagonal_q_matches_cholesky_bitwise(self, n, rng):
        # a diagonal Q is scaled by sqrt(q_ii), Cholesky's factor, instead of
        # factored and solved; the eigenvalues keep every bit
        for _ in range(5):
            s, q_diag = self.diagonal_pencil(rng, n)
            expected = self.lu_pencil(s, q_diag)[0]
            got = hermitian_pencil_eig(s, q_diag)[0]
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_diagonal_q_vectors_solve_the_pencil(self, rng):
        s, q_diag = self.diagonal_pencil(rng, 12)
        vals, vecs = hermitian_pencil_eig(s, q_diag)
        r = s @ vecs - (q_diag[:, None] * vecs) * vals
        assert np.all(np.linalg.norm(r, axis=0) <= 1e-9 * np.linalg.norm(s) * np.linalg.norm(vecs, axis=0))

    @pytest.mark.parametrize(
        "s, q_diag",
        [pytest.param(np.eye(2, dtype=complex), [1.0, -1.0], id="unit-complex-s")]
        + [pytest.param(np.eye(3), [2.0, bad, 1.0], id=f"{bad}") for bad in (0.0, -1.0, -0.0, math.nan)]
        # a pair's u and v entries, 4 + 2d^2 and 2, are each checked
        + [pytest.param(np.eye(3), [bad, 2.0, 1.0] if where == "lead" else [4.5, bad, 1.0], id=f"{where}-{bad}")
           for where in ("lead", "partner") for bad in (-1.0, 0.0, math.nan)],
    )
    def test_diagonal_q_not_positive_definite(self, s, q_diag):
        with pytest.raises(ValidationError, match="^Q not positive definite$"):
            hermitian_pencil_eig(s, q_diag)

    @staticmethod
    def lu_pencil(s, q_diag):
        """(vals, vecs, A) by Cholesky and np.linalg.solve on the dense Q, in S's field, A the
        congruence L^{-1} S L^{-H} made Hermitian: the one dense reference of the scaled path."""
        chol = np.linalg.cholesky(np.diag(q_diag).astype(s.dtype))
        a = np.linalg.solve(chol, s)
        a = np.linalg.solve(chol, a.conj().T).conj().T
        a = 0.5 * (a + a.conj().T)
        vals, u = np.linalg.eigh(a)
        return vals, np.linalg.solve(chol.conj().T, u), a

    def assert_matches_lu(self, s, q_diag):
        expected, expected_vecs, _ = self.lu_pencil(s, q_diag)
        vals, vecs = hermitian_pencil_eig(s, q_diag)
        assert np.array_equal(vals.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(vecs, expected_vecs)
        r = s @ vecs - (q_diag[:, None] * vecs) * vals
        assert np.all(np.linalg.norm(r, axis=0) <= 1e-9 * np.linalg.norm(s) * np.linalg.norm(vecs, axis=0))

    @pytest.mark.parametrize("n", [2, 3, 17, 40, 100])
    def test_block_q_matches_lu_bitwise(self, n, rng):
        # a Q of `q_matrix`'s form is applied as a scaling, by the operations of the
        # dense Cholesky and LU solves: the eigenvalues keep every bit, the vectors every value
        for _ in range(5):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            self.assert_matches_lu(g @ g.conj().T, block_q(rng, n))

    def test_q_matrix_pencils_match_lu_bitwise(self, rng, monkeypatch):
        # the frame pencils as frame_constants builds them, real at t' = 0 and complex
        # otherwise: the Gram in the divided-difference basis, each pair rotated by the shift,
        # against q_matrix's Q.  The dense reference is bitwise only in complex arithmetic: in float64
        # the triangular solve multiplies by a reciprocal of sqrt(q), where the scaled path
        # divides, so a real pencil is compared through its complex copy (its real solve is
        # pinned against mpmath by TestNearPairs)
        pencils = []
        monkeypatch.setattr(ingham.bounds, "hermitian_pencil_eig",
                            lambda s, q: pencils.append((s, q)) or hermitian_pencil_eig(s, q))
        pairs = 0
        for case in range(12):
            seq = block_sequence(rng, nmin=4, nmax=30)
            grid = admissible_grid(seq, rng)
            grid = SamplingGrid(grid.delta, grid.J, float(rng.uniform(-1.0, 1.0)) if case % 2 else 0.0)
            pairs += len(q_matrix(seq, band_mask(seq, grid.delta)).leads)
            frame_constants(seq, grid)
        assert pairs > 0 and len(pencils) == 12
        assert {np.iscomplexobj(s) for s, _ in pencils} == {False, True}
        for s, q in pencils:
            self.assert_matches_lu(s.astype(complex), q)

    @pytest.mark.parametrize(
        "unit, entry, bad",
        [pytest.param(unit, entry, bad, id=f"{'unit-' if unit else ''}entry{i}-{bad}")
         for unit, entries in ((False, [(0, 1), (1, 1), (2, 3)]), (True, [(0, 1), (1, 1)]))
         for i, entry in enumerate(entries) for bad in (math.nan, math.inf)],
    )
    def test_non_finite_s_with_block_q(self, unit, entry, bad, rng):
        # refused by the gate against a block or a unit Q, with no numpy warning (the suite
        # turns warnings into errors)
        s = np.eye(4, dtype=complex)
        s[entry] = s[entry[::-1]] = bad
        with pytest.raises(StructuralError):
            hermitian_pencil_eig(s, np.ones(4) if unit else block_q(rng, 4))


class TestSampledGram:
    def test_diagonal(self):
        grid = SamplingGrid(0.3, 7)
        s = sampled_gram(CHAIN, grid, band_mask(CHAIN, grid.delta))
        assert np.allclose(np.diag(s).real, 0.3 * 15)

    def test_matches_brute_force(self, rng):
        seq = block_sequence(rng, nmax=6)
        grid = admissible_grid(seq, rng)
        grid = SamplingGrid(grid.delta, min(grid.J, 40), t_shift=0.21)
        mask = band_mask(seq, grid.delta)
        s = sampled_gram(seq, grid, mask)
        omegas = [seq.omegas[k] for k in mask.active_indices()]
        ts = grid.times()
        brute = np.array(
            [[grid.delta * np.sum(np.exp(1j * (wk - wn) * ts)) for wn in omegas] for wk in omegas]
        )
        assert np.allclose(s, brute, atol=1e-11 * grid.delta * (2 * grid.J + 1))

    def test_quadratic_form_is_sampled_energy(self, rng):
        for _ in range(25):
            seq = block_sequence(rng, nmax=7)
            grid = admissible_grid(seq, rng)
            grid = SamplingGrid(grid.delta, min(grid.J, 60), t_shift=float(rng.uniform(-1, 1)))
            mask = band_mask(seq, grid.delta)
            assert mask.active_indices() == tuple(range(len(seq)))
            s = sampled_gram(seq, grid, mask)
            x = np.array(random_coeffs(rng, len(seq)))
            quad = float((x @ s @ x.conj()).real)
            energy = sampled_energy(ExpSum(seq, tuple(x)), grid)
            assert quad == pytest.approx(energy, rel=1e-12, abs=1e-12)

    def test_near_resonant_entry_falls_back(self):
        # diff * delta within 2e-9 of 2 pi: the closed form would divide by sin ~ 1e-9,
        # the near-resonant rule takes the quotient at the distance to pi instead
        delta = 0.5
        diff = 2.0 * math.pi / delta * (1.0 + 1e-10)
        seq = ExponentSequence((0.0, diff), 1.0, 1.0)
        grid = SamplingGrid(delta, 5)
        mask = band_mask(seq, 1e-3)  # permissive mask from a tiny step
        s = sampled_gram(seq, grid, mask)
        js = np.arange(-5, 6)
        brute = delta * np.sum(np.exp(-1j * diff * delta * js))
        assert s[0, 1] == pytest.approx(brute, abs=1e-12)

    def test_dirichlet_closed_form(self, rng):
        for theta in rng.uniform(0.1, 3.0, size=10):
            for J in (1, 4, 9):
                direct = float(np.sum(np.cos(theta * np.arange(-J, J + 1))))
                # delta 1: the entry is the Dirichlet kernel at theta
                s = _gram_from_omegas(np.array([float(theta), 0.0]), 1.0, J)
                assert s[0, 1] == pytest.approx(direct, abs=1e-11)

    def test_index_pairs_are_cached_read_only(self):
        upper = _upper_pairs(6)
        assert _upper_pairs(6) is upper and _upper_pairs.cache_info().maxsize is not None
        assert all(np.array_equal(got, want) for got, want in zip(upper, np.triu_indices(6, 1)))
        with pytest.raises(ValueError, match="read-only"):
            upper[0][0] = 1

    def test_large_shift_is_finite_and_hermitian(self):
        # t' w is past the double range but t' (w_k - w_n) is not: each entry's phase sees
        # only the difference, so the Gram is finite, with no numpy overflow warning, and
        # Hermitian to the bit
        seq = ExponentSequence((1e6, 1e6 + 3.0), 2.0, 2.0)
        grid = SamplingGrid(1e-7, 5, 1e303)
        s = sampled_gram(seq, grid, band_mask(seq, grid.delta))
        assert np.isfinite(s).all() and np.array_equal(s, s.conj().T)
        phase = np.exp(1j * (grid.t_shift * (seq.omegas[0] - seq.omegas[1])))
        assert s[0, 1] == _gram_from_omegas(np.array(seq.omegas), grid.delta, grid.J)[0, 1] * phase

    @pytest.mark.parametrize("t_shift", [1e308, -1e308])
    def test_shift_past_the_span_refused(self, t_shift):
        # the refusal and message of the pencils, before any Gram is formed
        seq = ExponentSequence((1e6, 1e6 + 3.0), 2.0, 2.0)
        with mock.patch("ingham.bounds._gram_from_omegas", side_effect=AssertionError("Gram formed")):
            with pytest.raises(ValidationError, match="^t_shift times the span of the frequencies is not finite$") as err:
                sampled_gram(seq, SamplingGrid(1e-7, 5, t_shift), band_mask(seq, 1e-7))
        assert err.value.details == {"t_shift": t_shift}

    def test_mask_length_mismatch(self):
        other = ExponentSequence((0.0, 3.0), 1.0, 1.0)
        with pytest.raises(StructuralError):
            sampled_gram(CHAIN, SamplingGrid(0.3, 4), band_mask(other, 0.3))


def _dirichlet(theta, J):
    """sum_{j=-J}^{J} e^{i j theta} by the scalar rule of `_gram_from_omegas`."""
    half = 0.5 * theta
    s = math.sin(half)
    if abs(s) >= 1e-8:
        return math.sin((2 * J + 1) * half) / s
    k = round(half / math.pi)
    r = half - k * _PI_PARTS[0] - k * _PI_PARTS[1] - k * _PI_PARTS[2]
    return float(2 * J + 1) if r == 0.0 else math.sin((2 * J + 1) * r) / math.sin(r)


def _gram_loop(omegas, delta, J):
    """The entry-by-entry assembly of the unshifted Gram that `_gram_from_omegas` replaced."""
    n = len(omegas)
    s = np.empty((n, n))
    for k in range(n):
        s[k, k] = delta * (2 * J + 1)
        for m in range(k + 1, n):
            s[k, m] = s[m, k] = delta * _dirichlet((omegas[k] - omegas[m]) * delta, J)
    return s


def test_gram_matches_loop():
    rng = np.random.default_rng(20261018)
    near = 0
    for case in range(120):
        n = int(rng.integers(2, 41))
        delta = float(rng.uniform(0.05, 1.0))
        J = int(rng.integers(1, 120))
        t_shift = 0.0 if case % 4 == 0 else float(rng.uniform(-3.0, 3.0))
        omegas = rng.uniform(-math.pi / delta, math.pi / delta, n)
        k, m = rng.choice(n, size=2, replace=False)
        if case % 3 == 0:  # near-resonant: |sin(theta/2)| ~ 1e-9
            omegas[m] = omegas[k] + 2.0 * math.pi / delta * (1.0 + 1e-10)
        elif case % 3 == 1:  # aliased by exactly one period, or coinciding
            omegas[m] = omegas[k] + (2.0 * math.pi / delta if case % 2 else 0.0)
        if case % 2 == 0:
            omegas.sort()
        s = _gram_from_omegas(omegas, delta, J)
        expected = _gram_loop(omegas, delta, J)
        # real, and bit for bit, signed zeros included
        assert s.dtype == np.float64
        assert np.array_equal(s.view(np.uint64), expected.view(np.uint64)), case
        theta = np.subtract.outer(omegas, omegas) * delta
        near += int(np.sum(np.triu(np.abs(np.sin(0.5 * theta)) < 1e-8, 1)))
        # independent oracle: the Gram at t' summed sample by sample; `sampled_gram`
        # phases the unshifted Gram, under a band mask that keeps every omega
        grid = SamplingGrid(delta, J, t_shift)
        v = np.exp(1j * np.multiply.outer(grid.times(), omegas))
        brute = delta * (v.T @ v.conj())
        tol = 1e-12 * np.linalg.norm(brute)
        seq = ExponentSequence(tuple(omegas.tolist()), 1.0, 1.0)
        assert np.max(np.abs(sampled_gram(seq, grid, band_mask(seq, 1e-3)) - brute)) <= tol, case
        if case % 10 == 0:
            # scipy's eigh of the sample sum: the shift leaves the spectrum alone
            assert np.allclose(
                np.linalg.eigvalsh(s), scipy.linalg.eigh(brute, eigvals_only=True), rtol=0.0, atol=tol
            )
    assert near >= 80


def _kernel_entry(half, J):
    """The Gram entry of omegas (2 half, 0) at delta 1: the Dirichlet kernel at 2 half."""
    return _gram_from_omegas(np.array([2.0 * half, 0.0]), 1.0, J)[0, 1]


def test_pi_parts():
    with mp.workdps(60):
        assert abs(mp.mpf(_PI_PARTS[0]) + _PI_PARTS[1] + _PI_PARTS[2] - mp.pi) < 1e-36
    for part in _PI_PARTS[:2]:  # 33 significant bits: k times a part is exact for |k| < 2^20
        assert math.frexp(part)[0] * 2**33 == int(math.frexp(part)[0] * 2**33)


@pytest.mark.parametrize("k", [0, 1, -1, 2, -2])
def test_near_resonant_entries_match_mpmath(k):
    # h near k pi, where |sin h| < 1e-8: the entry is sin((2J+1) h) / sin h of the double h,
    # to within a few roundings of the (2J+1) r product, at every J up to 2^40
    rng = np.random.default_rng(20261018 + k)
    checked = 0
    for J in (1, 7, 1000, 10**6, 2**30, 2**40):
        n = 2 * J + 1
        rs = [0.0] + [float(x) for x in rng.choice([-1.0, 1.0], 12) * 10 ** rng.uniform(-16, -8, 12)]
        rs += [float(x) / n for x in rng.uniform(-30.0, 30.0, 12)]
        for r in rs:
            with mp.workdps(60):
                half = float(k * mp.pi + r)
                if not abs(math.sin(half)) < 1e-8:
                    continue
                h = mp.mpf(half)
                exact = mp.mpf(n) if h == 0 else mp.sin(n * h) / mp.sin(h)
                entry = _kernel_entry(half, J)
                assert abs(entry - exact) <= 4 * 2.0**-53 * n, (k, J, r)
            checked += 1
    assert checked >= 80


def test_near_resonant_entry_allocates_nothing_of_size_j():
    # one near-resonant entry among three: nothing of size J is allocated for it
    omegas = np.array([0.0, 2.0 * math.pi / 0.5 * (1.0 + 1e-10), 1.0])

    def peak(J):
        tracemalloc.start()
        try:
            _gram_from_omegas(omegas, 0.5, J)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # warm up
    assert peak(10**6) <= peak(10**4)


class TestFrameConstants:
    def test_single_exponent_exact(self):
        seq = ExponentSequence((0.7,), 1.0, 1.0)
        grid = SamplingGrid(0.4, 6)
        rep = frame_constants(seq, grid)
        expect = 0.4 * 13
        assert rep.c_lower == pytest.approx(expect, rel=1e-14)
        assert rep.c_upper == pytest.approx(expect, rel=1e-14)
        assert rep.pencil_dim == 1 and not rep.singular

    def test_orthogonal_grid_integer_exponents(self):
        # delta * (2J+1) = 2 pi makes integer exponentials exactly orthogonal
        J = 10
        delta = 2.0 * math.pi / (2 * J + 1)
        seq = ExponentSequence((0.0, 1.0, 2.0), 0.5, 0.5)
        rep = frame_constants(seq, SamplingGrid(delta, J))
        expect = delta * (2 * J + 1)
        assert rep.c_lower == pytest.approx(expect, rel=1e-13)
        assert rep.c_upper == pytest.approx(expect, rel=1e-13)

    def test_sandwich_and_sharpness(self, rng):
        for _ in range(10):
            seq = block_sequence(rng, nmax=7)
            grid = admissible_grid(seq, rng)
            rep = frame_constants(seq, grid)
            assert not rep.singular and rep.c_lower > 0.0
            ratios = []
            for _ in range(40):
                x = random_coeffs(rng, len(seq))
                q = q_form(seq, x)
                e = sampled_energy(ExpSum(seq, x), grid)
                assert rep.c_lower * q <= e * (1 + 1e-10) + 1e-12
                assert e <= rep.c_upper * q * (1 + 1e-10) + 1e-12
                ratios.append(e / q)
            # empirical constants are attained by eigenvectors, so random
            # ratios cannot beat them but must stay inside
            assert min(ratios) >= rep.c_lower - 1e-9
            assert max(ratios) <= rep.c_upper + 1e-9

    def test_extremes_attained(self, rng):
        seq = CHAIN
        grid = SamplingGrid(0.25, 16)
        rep = frame_constants(seq, grid)
        mask = band_mask(seq, grid.delta)
        s = sampled_gram(seq, grid, mask)
        q = dense_block_q(seq, mask)
        z = scipy.linalg.eigh(s, q)[1][:, 0]
        qz = q @ z
        ratio = float((z.conj() @ s @ z).real / (z.conj() @ qz).real)
        assert ratio == pytest.approx(rep.c_lower, rel=1e-10)

    def test_sample_deficient_is_singular(self):
        seq = ExponentSequence((0.0, 3.0, 6.0, 9.0, 12.0), 1.0, 1.0)
        rep = frame_constants(seq, SamplingGrid(0.2, 1))  # 3 samples, 5 exponents
        assert rep.singular
        assert rep.c_lower == 0.0
        assert rep.min_eig <= 1e-10 * rep.max_eig

    def test_no_active_exponents(self):
        seq = ExponentSequence((30.0, 33.0), 1.0, 1.0)
        with pytest.raises(ValidationError):
            frame_constants(seq, SamplingGrid(0.5, 8))

    @pytest.mark.parametrize(
        "call",
        [
            lambda seq, grid: frame_constants(seq, grid),
            lambda seq, grid: extended_frame_constants(seq, grid, plan_haraux(seq, 1.2, 8, grid.delta)),
            lambda seq, grid: continuum_limit_scan(seq, grid.J * grid.delta, [grid.J]),
        ],
        ids=["frame", "extended", "continuum"],
    )
    def test_pair_gap_floor_refused(self, call):
        # an A2 pair 1e-13 apart, every exponent band-active: Q is refused
        # by name before the pencil is assembled
        seq = ExponentSequence((-3.5, -0.5, -0.5 + 1e-13, 2.8, 5.9), 1.3, 0.9)
        with pytest.raises(ValidationError, match="pair gap below 1e-12") as err:
            call(seq, SamplingGrid(0.18, 16))
        assert err.value.details["lead"] == 1

    @pytest.mark.parametrize("omegas", [(-30.0, -5.0, 0.0, 30.0), (-30.0, -5.0, 10.0, 30.0)], ids=["pair", "no-pair"])
    @pytest.mark.parametrize("t_shift", [1e308, -1e308, 3e306])
    def test_t_shift_past_the_span_refused(self, omegas, t_shift):
        # t' (w_max - w_min) past the double range is refused by name before any Gram
        # is formed: no math domain error in a pair's factor, no numpy overflow warning
        seq = ExponentSequence(omegas, 10.0, 9.0)
        assert len(q_matrix(seq).leads) == (omegas[2] == 0.0)
        with mock.patch("ingham.bounds._gram_from_omegas", side_effect=AssertionError("Gram formed")):
            with pytest.raises(ValidationError, match="^t_shift times the span") as err:
                frame_constants(seq, SamplingGrid(0.05, 80, t_shift))
        assert err.value.details == {"t_shift": t_shift}

    @pytest.mark.parametrize("omegas", [(-30.0, -5.0, 0.0, 30.0), (-30.0, -5.0, 10.0, 30.0)], ids=["pair", "no-pair"])
    def test_t_shift_within_the_span_solves(self, omegas):
        # t' times the span 60 is 6e307, finite: the pencil is solved
        rep = frame_constants(ExponentSequence(omegas, 10.0, 9.0), SamplingGrid(0.05, 80, 1e306))
        assert 0.0 < rep.c_lower <= rep.c_upper < math.inf

    @given(st.integers(0, 2**32 - 1))
    def test_no_pair_constants_do_not_see_the_shift(self, seed):
        # against a diagonal Q the shift is a unitary similarity of the Gram, so the
        # pencil takes the real unshifted Gram and its constants are the same doubles at every t'
        rng = np.random.default_rng(seed)
        seq = block_sequence(rng, chain_prob=0.0)
        grid = admissible_grid(seq, rng)
        assert not len(q_matrix(seq).leads)

        def constants(t_shift):
            rep = frame_constants(seq, SamplingGrid(grid.delta, grid.J, t_shift))
            return rep.c_lower, rep.c_upper, rep.min_eig, rep.max_eig

        assert all(constants(t) == constants(0.0) for t in (0.37, 1e4, 1e12))

    def test_report_dict_keys(self):
        rep = frame_constants(CHAIN, SamplingGrid(0.25, 16))
        d = _sanitize(rep)
        for key in ("c_lower", "c_upper", "pencil_dim", "min_eig", "max_eig", "singular", "diagnostics"):
            assert key in d
        assert isinstance(d["diagnostics"], list)

    @settings(max_examples=15)
    @given(st.integers(0, 2**32 - 1))
    def test_constants_property(self, seed):
        rng = np.random.default_rng(seed)
        seq = block_sequence(rng, nmax=6)
        grid = admissible_grid(seq, rng)
        rep = frame_constants(seq, grid)
        assert rep.c_upper >= rep.c_lower >= 0.0
        assert rep.c_upper > 0.0


def _near_pair(d, J=16, t_shift=0.0):
    """(seq, grid, config) of the frame instance whose pair gap d closes (`bench_accuracy._near_pair`)."""
    cfg = bench_accuracy._near_pair(d, J, t_shift)
    seq = ExponentSequence(tuple(cfg["omegas"]), cfg["gamma"], cfg["gamma0"])
    return seq, SamplingGrid(cfg["delta"], cfg["J"], cfg["t_shift"]), cfg


class TestNearPairs:
    """A closing pair against mpmath: the Gram summed in 60 digits on the same doubles, against
    the block Q of the coefficient basis."""

    @pytest.mark.parametrize("t_shift", [0.0, 0.37])
    @pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 1e-11])
    def test_constants_match_mpmath(self, d, t_shift):
        seq, grid, cfg = _near_pair(d, t_shift=t_shift)
        rep = frame_constants(seq, grid)
        with mp.workdps(60):
            ref = bench_accuracy.references("frame", cfg)
        assert rep.c_lower == pytest.approx(float(ref["c_lower"]), rel=1e-12, abs=0.0)
        assert rep.c_upper == pytest.approx(float(ref["c_upper"]), rel=1e-12, abs=0.0)

    def test_at_j_1e5(self, tmp_path):
        # refused by the residual gate in the coefficient basis; c_lower is the extreme
        # with the condition number (about 5e7) times eps in its error
        seq, grid, cfg = _near_pair(1e-7, J=10**5)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with mock.patch("sys.stdout", io.StringIO()) as out:
            assert ingham.cli.main(["frame", "--input", str(path)]) == 0
        report = json.loads(out.getvalue())["report"]
        with mp.workdps(60):
            ref = bench_accuracy.references("frame", cfg)
        assert report["c_upper"] == pytest.approx(float(ref["c_upper"]), rel=1e-12, abs=0.0)
        assert report["c_lower"] == pytest.approx(float(ref["c_lower"]), rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("t_shift", [0.0, 0.37])
    def test_band_split_pair_beside_a_near_pair(self, t_shift):
        # 17.0 is past the band, so 16.5 keeps 1 + 0.5^2 and the pencil is not unit
        cfg = dict(bench_accuracy._near_pair(1e-6, 16, t_shift), omegas=[-3.5, -0.5, -0.5 + 1e-6, 2.8, 16.5, 17.0])
        seq = ExponentSequence(tuple(cfg["omegas"]), cfg["gamma"], cfg["gamma0"])
        assert q_matrix(seq, band_mask(seq, cfg["delta"])).diag[-1] == 1.25
        rep = frame_constants(seq, SamplingGrid(cfg["delta"], cfg["J"], t_shift))
        with mp.workdps(60):
            ref = bench_accuracy.references("frame", cfg)
        assert rep.c_lower == pytest.approx(float(ref["c_lower"]), rel=1e-12, abs=0.0)
        assert rep.c_upper == pytest.approx(float(ref["c_upper"]), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("fraction", [1.0, 0.999999])
    @pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6, 1e-9])
    def test_shift_at_half_period_of_the_gap(self, d, fraction, tmp_path):
        # at d t' = pi the shift turns the pair's u into a difference of its two exponentials;
        # the rotation's c, s and s/d do not cancel there, and Q stays q_matrix's.  Where the
        # pencil is not singular (d = 1e-2), c_lower is held to the reference too
        cfg = bench_accuracy._half_period(d, fraction)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with mock.patch("sys.stdout", io.StringIO()) as out:
            code = ingham.cli.main(["frame", "--input", str(path)])
        assert code in (0, 2)
        report = json.loads(out.getvalue())["report"]
        with mp.workdps(60):
            ref = bench_accuracy.references("frame", cfg)
        assert report["c_upper"] == pytest.approx(float(ref["c_upper"]), rel=1e-14, abs=0.0)
        if code == 0:
            assert report["c_lower"] == pytest.approx(float(ref["c_lower"]), rel=1e-12, abs=0.0)

    def test_pair_at_j_2p52(self):
        # closed forms: the cost does not grow with J, so a pair at J = 2^52 returns
        rep = frame_constants(CHAIN, SamplingGrid(0.25, 2**52))
        assert 0.0 < rep.c_lower <= rep.c_upper < math.inf and not rep.singular

    @given(st.floats(-9.5, -4.0), st.floats(0.01, 1.0), st.floats(-1.0, 1.0))
    def test_constants_continuous_as_gap_closes(self, log_d, ratio, t_shift):
        # down to the 1e-12 floor, a change of the gap moves the constants by about
        # as much as the gap moved, and never by a jump
        d = 10.0**log_d
        a = frame_constants(*_near_pair(d, t_shift=t_shift)[:2])
        b = frame_constants(*_near_pair(d * ratio, t_shift=t_shift)[:2])
        for x, y in ((a.c_lower, b.c_lower), (a.c_upper, b.c_upper)):
            assert abs(x - y) <= 10.0 * d * (1.0 - ratio) * abs(x) + 1e-12 * abs(x)

    @pytest.mark.parametrize("d", [0.6, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_continuum_row_matches_mpmath_quad(self, d):
        # the discrete pencil and the continuous one, whose Gram mpmath integrates by
        # quadrature, with a pair of gap d; 60 digits leave 40 past the 1e20 condition
        # of the coefficient-basis Q at d = 1e-10
        cfg = {"task": "continuum", "base": {"omegas": [-3.1, -0.4, -0.4 + d, 2.6, 5.6], "gamma": 1.2,
                                             "gamma0": 0.8, "R": 4.0},
               "axes": [{"name": "J", "values": [32]}]}
        base = cfg["base"]
        (row,) = continuum_limit_scan(ExponentSequence(tuple(base["omegas"]), base["gamma"], base["gamma0"]),
                                      base["R"], [32])
        with mp.workdps(60):
            ref = bench_accuracy.references("scan", cfg)
        for name in ("c1_discrete", "c2_discrete", "c1_continuous", "c2_continuous"):
            assert getattr(row, name) == pytest.approx(float(ref[f"J=32 {name}"]), rel=1e-14, abs=0.0)


def _pair_basis_error(got, gaps, gram, t_shift=0.0) -> float:
    """Worst |T^{-H} got T^{-1} - B^T gram B| of an entry over the largest reference entry of
    its row, B the divided-difference basis of the pairs-first order on the double gaps.  T
    rotates each pair by t': [[c, i s/d], [i d s, c]], c and s the cosine and sine of the double
    angle (t'/2) d, the one rounding before them, and its inverse is T at -t'.  Taking got back
    keeps the measure of the pair basis: at d t' = pi, T's s/d = 1/d makes a row's largest entry
    one that its rounding in B^T S B was not measured against."""
    n, p = len(got), len(gaps)
    b, back = mp.eye(n), mp.matrix(got.tolist())
    for i, d in enumerate(gaps.tolist()):
        b[p + i, i] = 1
        b[i, p + i], b[p + i, p + i] = -1 / mp.mpf(d), 1 / mp.mpf(d)
    if t_shift:
        rot = mp.eye(n)
        for i, d in enumerate(gaps.tolist()):
            angle = mp.mpf((0.5 * t_shift) * d)
            rot[i, i] = rot[p + i, p + i] = mp.cos(angle)
            rot[i, p + i], rot[p + i, i] = mp.mpc(0, -mp.sin(angle) / d), mp.mpc(0, -d * mp.sin(angle))
        back = rot.H * back * rot
    ref = b.T * gram * b
    return max(
        float(abs(back[i, j] - ref[i, j]) / max(abs(ref[i, k]) for k in range(n)))
        for i in range(n) for j in range(n)
    )


class TestPairBasis:
    """`_pair_basis` is the real B^T S B, pairs first, against mpmath on the same doubles."""

    @staticmethod
    def pairs_first(seq, delta):
        qm = q_matrix(seq, band_mask(seq, delta))
        first, q_diag = _pairs_first(np.array([seq.omegas[k] for k in qm.active]), qm.diag, qm.leads)
        return first, q_diag, qm.gaps

    @pytest.mark.parametrize("d", [1e-2, 1e-4, 1e-6, 1e-7, 1e-9, 1e-11])
    def test_sampled_matches_mpmath(self, d):
        seq, grid, _ = _near_pair(d)
        first, _, gaps = self.pairs_first(seq, grid.delta)
        got = _pair_basis(_gram_from_omegas(first, grid.delta, grid.J), first, gaps, grid.delta, grid.J, _SAMPLED)
        assert got.dtype == np.float64 and np.array_equal(got, got.T)
        with mp.workdps(60):
            assert _pair_basis_error(got, gaps, bench_accuracy.mp_sampled_gram(first, grid.delta, grid.J, 0.0)) <= 2e-15

    @pytest.mark.parametrize("d", [0.6, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_continuum_matches_mpmath_quad(self, d):
        # the omegas of test_continuum_row_matches_mpmath_quad, on [-R, R] at R = 4
        seq = ExponentSequence((-3.1, -0.4, -0.4 + d, 2.6, 5.6), 1.2, 0.8)
        first, _, gaps = self.pairs_first(seq, 4.0 / 32)
        got = _pair_basis(continuous_gram(first, 4.0), first, gaps, 1.0, 4.0, _CONTINUUM)
        assert got.dtype == np.float64 and np.array_equal(got, got.T)
        with mp.workdps(60):
            assert _pair_basis_error(got, gaps, bench_accuracy.mp_continuous_gram(first, 4.0)) <= 2e-15

    @pytest.mark.parametrize("t_shift", [0.0, 0.37, "pi/d"])
    @pytest.mark.parametrize("seq, delta", [(_near_pair(1e-6)[0], 0.18), (CHAIN, 0.25)], ids=["near-pair", "chain"])
    def test_q_matrix_reaches_the_solver_at_every_shift(self, seq, delta, t_shift, monkeypatch):
        # q_matrix's diagonal reaches the eigensolver as it is at every t', against the real
        # B^T S B at t' = 0, and against T^H B^T S B T, complex, otherwise
        first, q_diag, gaps = self.pairs_first(seq, delta)
        t_shift = math.pi / gaps[0] if t_shift == "pi/d" else t_shift
        pencils = []
        monkeypatch.setattr(ingham.bounds, "hermitian_pencil_eig",
                            lambda s, q: pencils.append((s, q.copy())) or hermitian_pencil_eig(s, q))
        frame_constants(seq, SamplingGrid(delta, 16, t_shift))
        ((s, q),) = pencils
        assert len(gaps) and np.array_equal(q.view(np.uint64), q_diag.view(np.uint64))
        assert (s.dtype == np.float64) == (t_shift == 0.0)
        if t_shift:
            with mp.workdps(60):
                gram = bench_accuracy.mp_sampled_gram(first, delta, 16, 0.0)
                assert _pair_basis_error(s, gaps, gram, t_shift) <= 2e-15

    @pytest.mark.parametrize("delta, t_shift", [(0.2, 0.0), (0.2, 0.37), (0.25, -2.1)])
    def test_vectors_are_witnesses_at_every_shift(self, delta, t_shift):
        # the coefficients z of an eigenvector give x = Phi^H B T z, Phi = diag(e^{i w t'}),
        # whose sampled energy over its Q-form is the eigenvalue
        grid = SamplingGrid(delta, 16, t_shift)
        qm = q_matrix(CHAIN, band_mask(CHAIN, delta))
        omegas = np.array([CHAIN.omegas[k] for k in qm.active])
        vals, vecs, _, _ = _sampled_pencil(omegas, qm.diag, grid, qm.leads, qm.gaps)
        order, _ = _pairs_first(np.arange(len(omegas)), qm.diag, qm.leads)
        p, gaps = len(qm.gaps), qm.gaps
        c, s = np.cos(0.5 * t_shift * gaps), np.sin(0.5 * t_shift * gaps)
        for i in (0, -1):
            y = vecs[:, i].astype(complex)
            u, v = c * y[:p] + 1j * s / gaps * y[p:2 * p], 1j * gaps * s * y[:p] + c * y[p:2 * p]
            y[:p], y[p:2 * p] = u - v / gaps, u + v / gaps
            x = np.zeros(len(CHAIN), dtype=complex)
            x[np.array(qm.active)[order]] = y * np.exp(-1j * omegas[order] * t_shift)
            ratio = sampled_energy(ExpSum(CHAIN, tuple(x)), grid) / q_form(CHAIN, x)
            assert ratio == pytest.approx(vals[i], rel=1e-13, abs=0.0)


class TestEpsilonK:
    def test_frozen_value(self):
        assert epsilon_k(1.0, 0.0, 10, 0.1) == pytest.approx(0.8418217000072957, rel=1e-14)

    def test_formula_recompute(self, rng):
        for _ in range(20):
            u = float(rng.uniform(0.2, 4.0))
            jp = int(rng.integers(1, 30))
            delta = float(rng.uniform(0.01, 0.4))
            if abs(u * delta / 2.0) >= 3.0:
                continue
            expect = abs(_sinc(u * jp * delta)) * abs((u * delta / 2.0) / math.sin(u * delta / 2.0))
            assert epsilon_k(u + 1.5, 1.5, jp, delta) == pytest.approx(expect, rel=1e-14)

    def test_sinc_zero_annihilates(self):
        # (omega - omega') J' delta = pi: the factor vanishes to rounding
        assert epsilon_k(math.pi, 0.0, 5, 0.2) < 1e-15

    def test_small_delta_limit(self):
        assert epsilon_k(2.0, 0.0, 3, 1e-8) == pytest.approx(1.0, abs=1e-9)

    def test_resonance_rejected(self):
        with pytest.raises(ValidationError):
            epsilon_k(2.0 * math.pi, 0.0, 4, 1.0)  # half angle exactly pi

    def test_equal_frequencies_rejected(self):
        with pytest.raises(ValidationError):
            epsilon_k(1.5, 1.5, 4, 0.1)

    def test_bad_parameters(self):
        with pytest.raises(StructuralError):
            epsilon_k(1.0, 0.0, 0, 0.1)
        with pytest.raises(StructuralError):
            epsilon_k(1.0, 0.0, 3, -0.1)

    @pytest.mark.parametrize(
        "omega_k, omega_prime, delta, name",
        [
            (math.inf, 0.0, 0.1, "omega_k"),
            (math.nan, 0.0, 0.1, "omega_k"),
            (1.0, -math.inf, 0.1, "omega_prime"),
            (1e308, -1e308, 0.1, "half angle"),  # the difference overflows
            (1e10, 0.0, 1e300, "half angle"),  # its product with delta overflows
        ],
    )
    def test_non_finite_angle_is_structural(self, omega_k, omega_prime, delta, name):
        with pytest.raises(StructuralError, match=f"{name} must be a finite real"):
            epsilon_k(omega_k, omega_prime, 2, delta)

    @pytest.mark.parametrize(
        "omega_k, J_prime, delta, rel",
        [
            (1.7e308, 2, 1e-308, 1e-14),
            # sin near 1e10 turns the argument's rounding (1e-16 relative) into 1e-6
            (1e300, 10**10, 1e-300, 1e-5),
        ],
    )
    def test_overflowing_intermediate_product(self, omega_k, J_prime, delta, rel):
        # omega_k J' overflows, but the half angle and the sinc argument are finite
        with mp.workdps(40):
            x = mp.mpf(omega_k) * J_prime * mp.mpf(delta)
            half = mp.mpf(omega_k) * mp.mpf(delta) / 2
            expect = abs(mp.sin(x) / x) * abs(half / mp.sin(half))
        assert epsilon_k(omega_k, 0.0, J_prime, delta) == pytest.approx(float(expect), rel=rel)

    def test_overflowing_sinc_argument_is_structural(self):
        with pytest.raises(StructuralError, match="sinc argument must be a finite real, got inf"):
            epsilon_k(1e300, 0.0, 10**11, 1e-2)


class TestSincCrossing:
    def test_against_root_finder(self):
        for eps in (0.1, 0.25, 2.0 / math.pi, 0.9):
            root = brentq(lambda x: _sinc(x) - eps, 1e-12, math.pi, xtol=1e-14)
            c = _sinc_crossing(eps)
            assert abs(c - root) < 2e-12
            assert _sinc(c) > eps  # strict inequality at the returned point

    def test_classic_value(self):
        assert _sinc_crossing(2.0 / math.pi) == pytest.approx(math.pi / 2.0, abs=1e-11)

    def test_nonpositive_eps(self):
        assert _sinc_crossing(0.0) == math.pi
        assert _sinc_crossing(-1.0) == math.pi


def chain_plan(delta=0.2, J_prime=25, omega_prime=4.7):
    return plan_haraux(CHAIN, omega_prime, J_prime, delta)


class TestHarauxPlan:
    def test_plan_fields(self):
        plan = chain_plan()
        assert plan.active == (0, 1, 2, 3, 4)
        assert plan.gamma_prime == pytest.approx(1.3)
        assert 0.0 < plan.eps_sup < 1.0
        assert 0.0 < plan.c_prime <= math.pi
        assert plan.lipschitz_L > 0.0
        assert len(plan.eps_k) == 5
        assert plan.eps_sup == max(plan.eps_k)

    def test_lipschitz_formula(self):
        plan = chain_plan()
        scale = plan.eps_prime * plan.gamma_prime
        expect = 1.0 / scale + 1.0 / (plan.J_prime * plan.delta * scale * scale)
        assert plan.lipschitz_L == pytest.approx(expect, rel=1e-15)

    def test_collision_rejected(self):
        with pytest.raises(ValidationError):
            chain_plan(omega_prime=3.4)

    def test_proximity_violation(self):
        # both exponents are band-active at delta 0.1; a short filter keeps
        # eps' near 1 for the near one, so the admissible radius 2c'/delta
        # (about 4.2) falls below the distance 5.3 to the far one
        seq = ExponentSequence((0.0, 6.0), 1.0, 1.0)
        with pytest.raises(ValidationError) as err:
            plan_haraux(seq, 0.7, 3, 0.1)
        assert "proximity" in str(err.value)
        assert err.value.details["indices"] == [1]

    def test_empty_active(self):
        seq = ExponentSequence((30.0, 33.0), 1.0, 1.0)
        with pytest.raises(ValidationError) as err:
            plan_haraux(seq, 31.0, 4, 0.5)  # threshold ~5.8, both inactive
        assert "no active indices" in str(err.value)

    def test_bad_parameters(self):
        with pytest.raises(StructuralError):
            plan_haraux(CHAIN, 4.7, 0, 0.2)
        with pytest.raises(StructuralError):
            plan_haraux(CHAIN, 4.7, 4, math.inf)

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1))
    def test_contraction_always_below_one(self, seed):
        # the proximity condition forces eps_k < 1; any plan that builds
        # must be a strict contraction
        rng = np.random.default_rng(seed)
        seq = block_sequence(rng, nmax=6)
        delta = admissible_grid(seq, rng).delta
        gaps = seq.gaps()
        i = int(np.argmax(gaps))
        omega_prime = 0.5 * (seq.omegas[i] + seq.omegas[i + 1])
        gp = min(abs(w - omega_prime) for w in seq.omegas)
        J_prime = int(math.ceil(2.0 * math.pi / (gp * delta)))
        try:
            plan = plan_haraux(seq, omega_prime, J_prime, delta)
        except ValidationError:
            return  # proximity can fail for wide spans; nothing to check
        assert plan.eps_sup < 1.0


class TestHarauxFilter:
    def test_factor_modulus_is_epsilon(self, rng):
        for _ in range(20):
            u = float(rng.uniform(0.3, 5.0))
            jp = int(rng.integers(1, 20))
            delta = float(rng.uniform(0.02, 0.3))
            f = _filter_factor(u, 0.0, jp, delta)
            assert abs(f) == pytest.approx(epsilon_k(u, 0.0, jp, delta), rel=1e-13)

    def test_factor_is_one_at_omega_prime(self):
        assert _filter_factor(4.7, 4.7, 9, 0.3) == 1.0 + 0.0j

    def test_time_domain_equivalence(self, rng):
        # the coefficient-domain filter equals x(t) minus the demodulated
        # sliding average over the asymmetric window m = -J' .. J'-1
        plan = chain_plan()
        x = ExpSum(CHAIN, random_coeffs(rng, 5))
        aug = AugmentedExpSum(x, plan.omega_prime, uniform_disc(rng))
        y = haraux_filter(aug, plan)
        ms = np.arange(-plan.J_prime, plan.J_prime)
        demod = np.exp(-1j * plan.omega_prime * ms * plan.delta)
        for t in rng.uniform(-2.0, 2.0, size=6):
            avg = np.mean(demod * aug.eval(t + ms * plan.delta))
            direct = aug.eval(t) - avg
            assert complex(y.eval(t)) == pytest.approx(direct, abs=5e-13)

    def test_annihilation_is_exact(self, rng):
        # a pure omega' component filters to zero: y has no coefficients
        # besides the base ones, and x' never appears
        plan = chain_plan()
        aug = AugmentedExpSum(ExpSum(CHAIN, (0.0,) * 5), plan.omega_prime, 3.7 - 1.2j)
        y = haraux_filter(aug, plan)
        assert all(c == 0.0 for c in y.coeffs)

    def test_per_index_contraction(self, rng):
        plan = chain_plan()
        x = random_coeffs(rng, 5)
        aug = AugmentedExpSum(ExpSum(CHAIN, x), plan.omega_prime, uniform_disc(rng))
        y = haraux_filter(aug, plan)
        for k in range(5):
            assert abs(x[k] - y.coeffs[k]) == pytest.approx(plan.eps_k[k] * abs(x[k]), rel=1e-12)
            assert abs(y.coeffs[k]) >= (1.0 - plan.eps_k[k]) * abs(x[k]) - 1e-12

    def test_zero_coefficient_skips_resonant_factor(self):
        delta = 0.5
        resonant = 0.25 + 4.0 * math.pi / delta  # half angle exactly 2 pi
        seq = ExponentSequence((0.0, resonant), 1.0, 1.0)
        mask = band_mask(seq, delta)
        assert mask.active_indices() == (0,)
        plan = plan_haraux(seq, 0.25, 8, delta)
        ok = AugmentedExpSum(ExpSum(seq, (1.0, 0.0)), 0.25, 1.0)
        y = haraux_filter(ok, plan)
        assert y.coeffs[1] == 0.0
        bad = AugmentedExpSum(ExpSum(seq, (1.0, 1.0)), 0.25, 1.0)
        with pytest.raises(ValidationError):
            haraux_filter(bad, plan)

    def test_plan_mismatch(self):
        plan = chain_plan()
        aug = AugmentedExpSum(ExpSum(CHAIN, (1.0,) * 5), 4.9, 1.0)
        with pytest.raises(ValidationError):
            haraux_filter(aug, plan)

    def test_invalid_plan_refused(self):
        plan = dataclasses.replace(chain_plan(), eps_sup=1.0)
        aug = AugmentedExpSum(ExpSum(CHAIN, (1.0,) * 5), plan.omega_prime, 1.0)
        with pytest.raises(ValidationError, match="plan invalid: eps_sup >= 1"):
            haraux_filter(aug, plan)


class TestExtendedConstants:
    def grid(self):
        return SamplingGrid(0.2, 20)

    def test_positive_and_bounded(self):
        grid = self.grid()
        rep = extended_frame_constants(CHAIN, grid, plan_haraux(CHAIN, 4.7, 25, grid.delta))
        assert not rep.singular
        assert 0.0 < rep.c_lower <= rep.c_upper
        assert rep.pencil_dim == 6
        assert rep.companions["c1_base"] > 0.0
        assert rep.c_upper <= rep.companions["c4_formula"]

    def test_sandwich_on_augmented_vectors(self, rng):
        grid = self.grid()
        rep = extended_frame_constants(CHAIN, grid, plan_haraux(CHAIN, 4.7, 25, grid.delta))
        ext = SamplingGrid(grid.delta, grid.J + 25, grid.t_shift)
        for _ in range(25):
            aug = AugmentedExpSum(ExpSum(CHAIN, random_coeffs(rng, 5)), 4.7, uniform_disc(rng))
            qp = q_prime(aug)
            e = sampled_energy(aug, ext)
            assert rep.c_lower * qp <= e * (1 + 1e-9) + 1e-12
            assert e <= rep.c_upper * qp * (1 + 1e-9) + 1e-12

    def test_zero_augmented_coefficient(self, rng):
        grid = self.grid()
        rep = extended_frame_constants(CHAIN, grid, plan_haraux(CHAIN, 4.7, 25, grid.delta))
        ext = SamplingGrid(grid.delta, grid.J + 25, grid.t_shift)
        aug = AugmentedExpSum(ExpSum(CHAIN, random_coeffs(rng, 5)), 4.7, 0.0)
        qp = q_prime(aug)
        e = sampled_energy(aug, ext)
        assert rep.c_lower * qp <= e * (1 + 1e-9)

    def test_base_singular_rejected(self):
        seq = ExponentSequence((0.0, 3.0, 6.0, 9.0, 12.0), 1.0, 1.0)
        grid = SamplingGrid(0.2, 1)
        with pytest.raises(ValidationError) as err:
            extended_frame_constants(seq, grid, plan_haraux(seq, 1.5, 10, grid.delta))
        assert "singular" in str(err.value)

    @pytest.mark.parametrize(
        "plan",
        [
            lambda: plan_haraux(CHAIN, 4.7, 25, 0.25),
            lambda: plan_haraux(ExponentSequence(CHAIN.omegas[:-1], 1.0, 0.85), 4.7, 25, 0.2),
        ],
        ids=["other_delta", "other_active_set"],
    )
    def test_mismatched_plan_rejected(self, plan):
        with pytest.raises(ValidationError, match="plan was built for a different"):
            extended_frame_constants(CHAIN, self.grid(), plan())

    def test_plan_of_other_sequence_rejected(self):
        # same delta and active indices, but the last exponent sits 1e-9 from
        # omega' = 4.7: plan_haraux refuses it, and CHAIN's plan must not pass
        near = ExponentSequence(CHAIN.omegas[:-1] + (4.7 + 1e-9,), 0.3, 0.25)
        grid = self.grid()
        with pytest.raises(ValidationError, match="proximity condition"):
            plan_haraux(near, 4.7, 25, grid.delta)
        with pytest.raises(ValidationError, match="plan was built for a different sequence"):
            extended_frame_constants(near, grid, plan_haraux(CHAIN, 4.7, 25, grid.delta))

    @given(st.integers(0, 2**32 - 1))
    def test_c4_formula_bounds_c_upper(self, seed):
        # omega' halfway along a random gap, J' long enough to resolve it
        rng = np.random.default_rng(seed)
        seq = block_sequence(rng, nmax=8)
        grid = admissible_grid(seq, rng)
        i = int(rng.integers(0, len(seq) - 1))
        omega_prime = 0.5 * (seq.omegas[i] + seq.omegas[i + 1])
        gap_prime = min(abs(w - omega_prime) for w in seq.omegas)
        j_prime = int(math.ceil(2.0 * math.pi / (gap_prime * grid.delta)))
        try:
            ext = extended_frame_constants(seq, grid, plan_haraux(seq, omega_prime, j_prime, grid.delta))
        except ValidationError:
            assume(False)  # wide spans can violate the proximity condition
        assert ext.c_upper <= ext.companions["c4_formula"]

    def test_companion_formula_value(self):
        grid = self.grid()
        rep = extended_frame_constants(CHAIN, grid, plan_haraux(CHAIN, 4.7, 25, grid.delta))
        j, jp, d = grid.J, 25, grid.delta
        expect = (
            (1.0 + (2 * j + 2 * jp + 1) / (2 * j + 1))
            * max(4.0 * rep.companions["c2_base"], 12.0 * j * d)
            * (1.0 + (jp * d) ** 2)
        )
        assert rep.companions["c4_formula"] == pytest.approx(expect, rel=1e-15)

    def test_overflowing_c4_formula_never_reached(self):
        # (J' delta)^2 overflows only where the extended Gram's diagonal delta (2J + 2J' + 1)
        # does, so the pencil refuses its ||S|| before c4_formula is formed
        seq = ExponentSequence((0.0,), 1e-300, 1e-300)
        plan = plan_haraux(seq, 1e-155, 10**5, 1e150)  # J' delta = 1e155
        with pytest.raises(StructuralError, match=r"\|\|S\|\| = inf"):
            extended_frame_constants(seq, SamplingGrid(1e150, 1), plan)

    def test_huge_j_prime_refused_by_the_count_rule(self):
        with pytest.raises(StructuralError, match="J_prime must be a positive integer at most 2\\^53"):
            plan_haraux(CHAIN, 4.7, 10**160, 0.2)


class TestContinuumScan:
    def test_single_exponent_exact_gap(self):
        seq = ExponentSequence((0.0,), 1.0, 1.0)
        rows = continuum_limit_scan(seq, 4.0, [4, 8, 16])
        for row in rows:
            # delta (2J+1) vs 2R leaves exactly delta: rel gap = 1/(2J)
            assert row.rel_gap == pytest.approx(1.0 / (2 * row.J), rel=1e-10)
            assert not row.singular

    def test_gap_decreases(self):
        seq = ExponentSequence((-3.1, -0.4, 0.2, 2.6, 5.6), 1.2, 0.8)
        rows = continuum_limit_scan(seq, 4.0, [32, 64, 128, 256])
        gaps = [row.rel_gap for row in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2

    def test_active_change_flagged(self):
        seq = ExponentSequence((0.0, 3.0, 6.0, 9.0, 30.0), 1.0, 1.0)
        rows = continuum_limit_scan(seq, 4.0, [8, 16])
        # thresholds pi/delta - 1/2: 5.78 at J=8 keeps {0, 3}; 12.07 at J=16
        # keeps {0, 3, 6, 9}; 30 stays outside
        assert rows[0].active_count == 2 and rows[1].active_count == 4
        assert not rows[0].active_changed and rows[1].active_changed

    @pytest.mark.parametrize(
        "omegas, J_list, solves",
        [
            ((-3.1, -0.4, 0.2, 2.6, 5.6), [32, 64, 128, 256], 1),
            ((0.0, 3.0, 6.0, 9.0, 30.0), [8, 16], 2),
            ((0.0, 3.0, 6.0, 9.0, 30.0), [8, 16, 8, 16], 2),
        ],
        ids=["one-active-set", "active-change", "active-sets-revisited"],
    )
    def test_continuous_pencil_once_per_active_set(self, monkeypatch, omegas, J_list, solves):
        seq = ExponentSequence(omegas, 1.0, 1.0)
        expect = continuum_limit_scan(seq, 4.0, J_list)
        calls = []
        honest = ingham.bounds.continuous_gram
        monkeypatch.setattr(ingham.bounds, "continuous_gram", lambda *a: calls.append(a) or honest(*a))
        assert continuum_limit_scan(seq, 4.0, J_list) == expect
        assert len(calls) == solves

    @pytest.mark.parametrize("J", [0, -4, 4.7])
    def test_J_not_positive_integer_rejected(self, J):
        # checked before delta = R / J is formed
        seq = ExponentSequence((0.0,), 1.0, 1.0)
        with pytest.raises(StructuralError, match=f"J must be a positive integer, got {J}"):
            continuum_limit_scan(seq, 4.0, [J])

    def test_short_horizon_rejected(self):
        seq = ExponentSequence((0.0,), 1.0, 1.0)
        with pytest.raises(ValidationError):
            continuum_limit_scan(seq, 3.0, [8])


_PENCIL_NAMES = ("_gram_from_omegas", "hermitian_pencil_eig")


def _pencil_uses(path: Path) -> set[tuple[str, str]]:
    """(module:function, name) for each call or import of a _PENCIL_NAMES name in a module."""
    uses = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{path.name}:{node.name}"
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in _PENCIL_NAMES:
                uses.add((where, name))
        elif isinstance(node, ast.ImportFrom):
            uses.update((f"{path.name}:import", a.name) for a in node.names if a.name in _PENCIL_NAMES)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), f"{path.name}:<module>")
    return uses


def test_one_sampled_pencil_step():
    # every sampled pencil's Gram is formed in bounds._sampled_pencil, and every pencil,
    # sampled or continuous, is solved in bounds._pair_pencil; a junction case takes its
    # Gram eigenpairs from that step once, in verify_observability, and its bound (W^H N W,
    # solved in bounds._max_against_gram) and its round trip both read them, so observability
    # imports neither name
    package = Path(ingham.__file__).resolve().parent
    uses = set().union(*(_pencil_uses(path) for path in package.glob("*.py")))
    assert uses == {
        ("__init__.py:import", "hermitian_pencil_eig"),
        ("bounds.py:_max_against_gram", "hermitian_pencil_eig"),
        ("bounds.py:_pair_pencil", "hermitian_pencil_eig"),
        ("bounds.py:_sampled_pencil", "_gram_from_omegas"),
        ("bounds.py:sampled_gram", "_gram_from_omegas"),
    }
    assert not [path.name for path in package.glob("*.py") if "pencil_singular" in path.read_text()]


def _functions_with(path: Path, match) -> set[str]:
    """Names of the functions of a module (or "<module>") holding a node that match accepts."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if match(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def _is_np_exp(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "exp" and getattr(node.value, "id", None) == "np"


def _is_pow_of_s(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and getattr(node.right, "attr", None) == "s"


def _np_linalg_call(node) -> str | None:
    """The function name of a call np.linalg.<name>(...), else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        if isinstance(owner, ast.Attribute) and owner.attr == "linalg" and getattr(owner.value, "id", None) == "np":
            return node.func.attr
    return None


def test_each_numerical_rule_stated_once():
    modules = {path.name: path for path in Path(ingham.__file__).resolve().parent.glob("*.py")}
    texts = {name: path.read_text() for name, path in modules.items()}
    # one factorization: np.linalg serves norm, and eigh inside hermitian_pencil_eig alone
    called = {_np_linalg_call(node) for text in texts.values() for node in ast.walk(ast.parse(text))}
    assert called - {None} == {"norm", "eigh"}
    eighs = {name: where for name, path in modules.items()
             if (where := _functions_with(path, lambda node: _np_linalg_call(node) == "eigh"))}
    assert eighs == {"bounds.py": {"hermitian_pencil_eig"}}
    # the singular rule and the refusal of an unbounded shift each live in one function
    assert _functions_with(modules["bounds.py"], lambda node: getattr(node, "id", None) == "SINGULAR_RTOL") == {
        "<module>", "_singular"}
    assert not [name for name, text in texts.items() if name != "bounds.py" and "SINGULAR_RTOL" in text]
    shifts = {name: text.count("span of the frequencies is not finite") for name, text in texts.items()}
    assert {name: n for name, n in shifts.items() if n} == {"bounds.py": 1}
    # the period refusal lives in kernels, the pair-gap floor beside the Q block it guards
    periods = {name: text.count("window exceeds period") for name, text in texts.items()}
    assert {name: n for name, n in periods.items() if n} == {"kernels.py": 1}
    assert sorted(name for name, text in texts.items() if "PAIR_GAP_FLOOR" in text) == ["quadforms.py"]
    # every grid phasor is formed by sums._phasors
    exps = {name: where for name, path in modules.items() if (where := _functions_with(path, _is_np_exp))}
    assert exps == {"sums.py": {"_phasors"}}
    # a Sobolev exponent is applied only by SobolevSpec.weight
    assert _functions_with(modules["observability.py"], _is_pow_of_s) == {"weight"}
