"""Tests for the indefinite-form constructions."""

import numpy as np
import pytest

import uecsm.constructors
from uecsm import (
    DimensionMismatch,
    ExhaustedRetries,
    IsotropicVector,
    RepeatedDiagonal,
    Signature,
    SingularMatrix,
    UecsmError,
    angle_suite,
    conjugated_diagonal,
    eigensystem,
    generate_wat_not_sat,
    indefinite_gram_schmidt,
    indefinite_inner,
    lsat,
    random_su,
    sat,
    sat_obstruction,
    su_membership,
    trace_test_3,
    uecsm_verdict,
    wat,
)
from uecsm.gallery import SU22_LSAT_EXAMPLE, SU22_SAMPLE_Q

from _util import random_unitary, rng

SIG22 = Signature(2, 4)
SIG31 = Signature(3, 4)
SIG21 = Signature(2, 3)


def test_signature_needs_a_positive_cone():
    with pytest.raises(ValueError, match="need 1 <= k <= n"):
        Signature(k=0, n=3)


class TestIndefiniteInner:
    def test_basis_vectors(self):
        e1 = np.eye(4)[0]
        e4 = np.eye(4)[3]
        assert indefinite_inner(e1, e1, SIG22) == 1
        assert indefinite_inner(e4, e4, SIG22) == -1

    def test_hermitian_symmetry(self):
        gen = rng(80)
        for _ in range(10):
            v = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            w = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            assert indefinite_inner(v, w, SIG22) == pytest.approx(
                np.conj(indefinite_inner(w, v, SIG22))
            )

    def test_length_check(self):
        with pytest.raises(DimensionMismatch):
            indefinite_inner(np.ones(3), np.ones(4), SIG22)


class TestGramSchmidt:
    @pytest.mark.parametrize(
        "vectors, message",
        [([np.eye(3)[0], np.eye(3)[1]], "need 3 vectors, got 2"), ([np.ones(4)] * 3, "vectors must have length 3")],
        ids=["two-vectors", "wrong-length"],
    )
    def test_wrong_vectors_are_a_dimension_mismatch(self, vectors, message):
        with pytest.raises(DimensionMismatch, match=message):
            indefinite_gram_schmidt(vectors, SIG21)

    def test_standard_basis_gives_identity(self):
        q = indefinite_gram_schmidt(list(np.eye(4, dtype=complex)), SIG22)
        assert np.allclose(q, np.eye(4))

    def test_membership_of_output(self):
        gen = rng(81)
        produced = 0
        attempts = 0
        while produced < 25:
            attempts += 1
            vectors = [
                gen.integers(-2, 3, size=4) + 1j * gen.integers(-2, 3, size=4)
                for _ in range(4)
            ]
            try:
                q = indefinite_gram_schmidt(vectors, SIG22)
            except IsotropicVector:
                continue
            produced += 1
            assert su_membership(q, SIG22, tol=1e-10).passed
        assert attempts < 200

    def test_isotropic_rejected(self):
        # first vector with <v,v> = 0 under signature (1,1)
        sig = Signature(1, 2)
        with pytest.raises(IsotropicVector):
            indefinite_gram_schmidt([np.array([1.0, 1.0]), np.array([1.0, 0.0])], sig)

    def test_statistical_run_sig31(self):
        # 100 Gaussian-integer trials: every success is a member, failures
        # surface as isotropic-vector rejections
        gen = rng(85)
        successes = rejections = 0
        while successes < 100:
            vectors = [
                gen.integers(-2, 3, size=4) + 1j * gen.integers(-2, 3, size=4)
                for _ in range(4)
            ]
            try:
                q = indefinite_gram_schmidt(vectors, SIG31)
            except IsotropicVector:
                rejections += 1
                continue
            successes += 1
            assert su_membership(q, SIG31, tol=1e-10).max_residual < 1e-10
        assert rejections < 400

    def test_signature_reordering(self):
        # feed vectors so the negative direction comes first
        sig = Signature(1, 2)
        vecs = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        q = indefinite_gram_schmidt(vecs, sig)
        a = sig.matrix()
        assert np.allclose(q.conj().T @ a @ q, a, atol=1e-12)


class TestSuMembership:
    def test_identity(self):
        assert su_membership(np.eye(4, dtype=complex), SIG22).passed

    def test_sample_q(self):
        v = su_membership(SU22_SAMPLE_Q, SIG22, tol=1e-10)
        assert v.passed
        assert v.max_residual < 1e-10

    def test_random_unitary_fails(self):
        u = random_unitary(rng(82), 4)
        v = su_membership(u, SIG22)
        assert not v.passed
        assert dict(v.residuals)["form_preservation"] > 0.1

    def test_wrong_size_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            su_membership(np.eye(3), SIG22)

    def test_group_property(self):
        for seed in range(5):
            q1 = random_su(SIG22, seed=900 + seed)
            q2 = random_su(SIG22, seed=950 + seed)
            tol = 1e-8
            assert su_membership(q1 @ q2, SIG22, tol=2 * tol).passed
            assert su_membership(np.linalg.inv(q1), SIG22, tol=2 * tol).passed


class TestConjugatedDiagonal:
    def test_identity_q(self):
        d = [1.0, 2.0, 3.0, 4.0]
        t = conjugated_diagonal(np.eye(4, dtype=complex), d)
        assert np.allclose(t, np.diag(d))

    def test_sample_reproduction(self):
        t = conjugated_diagonal(SU22_SAMPLE_Q, [-1.0, 0.0, 1.0, 2.0])
        assert np.max(np.abs(t - SU22_LSAT_EXAMPLE)) < 1e-8

    def test_repeated_diagonal_rejected(self):
        with pytest.raises(RepeatedDiagonal):
            conjugated_diagonal(np.eye(4, dtype=complex), [1.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "q, error, message",
        [
            (np.ones((3, 4)), DimensionMismatch, "q must be square"),
            (np.zeros((3, 3)), SingularMatrix, "q is not invertible"),
            (np.diag([1.0, 1.0, 1e-14]), SingularMatrix, "q is numerically singular"),
        ],
        ids=["non-square", "zero", "ill-conditioned"],
    )
    def test_bad_q_is_refused(self, q, error, message):
        with pytest.raises(error, match=message):
            conjugated_diagonal(q.astype(complex), [1.0, 2.0, 3.0])

    def test_overflowing_product_is_an_error(self):
        # finite entries whose product with q overflows a float
        with pytest.raises(UecsmError, match="overflows"):
            conjugated_diagonal(np.diag([2.0, 1.0]).astype(complex), [1e308, 0.0])

    def test_lsat_by_construction(self):
        for seed in range(10):
            q = random_su(SIG22, seed=7000 + seed)
            t = conjugated_diagonal(q, [-1.0, 0.0, 1.0, 2.0])
            assert lsat(eigensystem(t), tol=1e-8).passed


class TestSatObstruction:
    def test_sample_q_triple(self):
        triples = sat_obstruction(SU22_SAMPLE_Q)
        first = triples[0]
        assert first.indices == (1, 2, 3)
        assert first.value == pytest.approx((100 - 8j) / 3, abs=1e-8)
        assert not first.is_real

    def test_identity_all_real(self):
        for tp in sat_obstruction(np.eye(4, dtype=complex)):
            assert tp.value == 0
            assert tp.is_real

    def test_zero_column_is_singular(self):
        with pytest.raises(SingularMatrix):
            sat_obstruction(np.diag([1, 0, 1.0]).astype(complex))

    def test_real_matrix_all_real(self):
        gen = rng(84)
        q = gen.standard_normal((4, 4))
        for tp in sat_obstruction(q.astype(complex)):
            assert tp.is_real


class TestGenerator:
    def test_produces_wat_not_sat(self):
        t = generate_wat_not_sat(11, SIG22)
        suite = angle_suite(t, tol=1e-8)
        assert suite["wat"].passed
        assert suite["lsat"].passed
        assert not suite["sat"].passed
        assert not uecsm_verdict(t).passed

    def test_deterministic(self):
        assert np.array_equal(generate_wat_not_sat(5, SIG22), generate_wat_not_sat(5, SIG22))

    def test_refuses_thin_cone(self):
        with pytest.raises(ValueError):
            generate_wat_not_sat(1, SIG31)

    def test_no_attempt_exhausts_the_retries(self, monkeypatch):
        with pytest.raises(ExhaustedRetries):
            random_su(SIG22, seed=0, max_attempts=0)
        monkeypatch.setattr(uecsm.constructors, "_WAT_NOT_SAT_ATTEMPTS", 0)
        with pytest.raises(ExhaustedRetries):
            generate_wat_not_sat(1, SIG22)

    def test_a_failed_draw_is_skipped(self, monkeypatch):
        # the draw of attempt 0 finds no SU(2,2) matrix; attempt 1 follows
        draw = uecsm.constructors.random_su
        seeds = []

        def flaky(sig, seed, max_attempts=200):
            seeds.append(seed)
            if len(seeds) == 1:
                raise ExhaustedRetries(f"no SU(2,2) matrix after {max_attempts} draws")
            return draw(sig, seed, max_attempts)

        monkeypatch.setattr(uecsm.constructors, "random_su", flaky)
        t = generate_wat_not_sat(11, SIG22)
        assert seeds[:2] == [11 * 1_000_003, 11 * 1_000_003 + 1]
        suite = angle_suite(t, tol=1e-8)
        assert suite["wat"].passed and suite["lsat"].passed and not suite["sat"].passed

    def test_wrong_diagonal_length(self):
        with pytest.raises(DimensionMismatch, match="diagonal must have length 4"):
            generate_wat_not_sat(1, SIG22, d=(1.0, 2.0, 3.0))

    def test_refuses_small_dimension(self):
        with pytest.raises(ValueError):
            generate_wat_not_sat(1, SIG21)


class TestOneDimensionalCone:
    def test_sig31_always_uecsm(self):
        for seed in range(15):
            q = random_su(SIG31, seed=100 + seed)
            t = conjugated_diagonal(q, [-1.0, 0.0, 1.0, 2.0])
            s = eigensystem(t)
            assert sat(s).passed
            assert uecsm_verdict(t).passed

    def test_sig21_always_uecsm(self):
        for seed in range(15):
            q = random_su(SIG21, seed=200 + seed)
            t = conjugated_diagonal(q, [-1.0, 1.0, 2.0])
            s = eigensystem(t)
            assert sat(s).passed
            assert trace_test_3(t).passed

    def test_sig12_never_fails_sat(self):
        # any 3x3 construction, whatever the signature, stays UECSM
        for seed in range(10):
            q = random_su(Signature(1, 3), seed=300 + seed)
            t = conjugated_diagonal(q, [-1.0, 1.0, 2.0])
            assert sat(eigensystem(t)).passed

    def test_wat_passes_too(self):
        q = random_su(SIG31, seed=400)
        t = conjugated_diagonal(q, [-1.0, 0.0, 1.0, 2.0])
        assert wat(eigensystem(t)).passed
