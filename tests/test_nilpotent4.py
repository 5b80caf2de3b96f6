"""Tests for the closed-form nilpotent classification."""

import cmath
from dataclasses import asdict

import numpy as np
import pytest

from uecsm import (
    NilpotentParams,
    build_matrix,
    classify,
    psi7,
    psi_closed_forms,
    symmetrizing_witness,
    uecsm_verdict,
    verify_witness,
)
from uecsm.gallery import NILPOTENT_QUARTET

from _util import nilpotent_c07_samples, rng


def random_params(gen, scale=3.0):
    vals = scale * (gen.standard_normal(6) + 1j * gen.standard_normal(6))
    return NilpotentParams.from_iterable(vals)


class TestBuildMatrix:
    def test_zero(self):
        assert np.all(build_matrix(NilpotentParams(0, 0, 0, 0, 0, 0)) == 0)

    def test_quartet_member(self):
        assert np.array_equal(build_matrix(NilpotentParams(2, 9, 1, 0, 6, 7)), NILPOTENT_QUARTET[2])

    def test_placement(self):
        t = build_matrix(NilpotentParams(1, 2, 3, 4, 5, 6))
        assert t[0, 1] == 1 and t[0, 2] == 2 and t[0, 3] == 3
        assert t[1, 2] == 4 and t[1, 3] == 5 and t[2, 3] == 6
        assert np.all(np.tril(t) == 0)

    def test_from_iterable_needs_six_values(self):
        with pytest.raises(ValueError, match="expected 6 parameters, got 5"):
            NilpotentParams.from_iterable([1, 2, 3, 4, 5])


class TestClosedForms:
    def test_all_zero(self):
        forms = psi_closed_forms(NilpotentParams(0, 0, 0, 0, 0, 0))
        assert all(
            v == 0
            for v in (forms.psi4, forms.psi7, forms.psi1_d0, forms.psi6_d0, forms.psi1_a0, forms.psi6_a0)
        )

    def test_psi4_sign_tracks_norm_gap(self):
        plus = psi_closed_forms(NilpotentParams(3, 1, 0.5, 2, 1, 1))
        minus = psi_closed_forms(NilpotentParams(1, 1, 0.5, 2, 1, 3))
        assert plus.psi4.real > 0
        assert minus.psi4.real < 0

    def test_matches_matrix_evaluation(self):
        gen = rng(70)
        for _ in range(200):
            p = random_params(gen)
            forms = psi_closed_forms(p)
            values = psi7(build_matrix(p)).values
            scale = max(1.0, abs(values[3]), abs(values[6]))
            assert abs(forms.psi4 - values[3]) <= 1e-9 * scale
            assert abs(forms.psi7 - values[6]) <= 1e-9 * scale

    def test_d0_slice_forms(self):
        gen = rng(71)
        for _ in range(100):
            p = random_params(gen)
            p0 = NilpotentParams(p.a, p.b, p.c, 0.0, p.e, p.f)
            forms = psi_closed_forms(p0)
            values = psi7(build_matrix(p0)).values
            scale = max(1.0, max(abs(v) for v in values))
            assert abs(forms.psi1_d0 - values[0]) <= 1e-9 * scale
            assert abs(forms.psi6_d0 - values[5]) <= 1e-9 * scale
            # everything else vanishes on this slice
            assert max(abs(values[i]) for i in (1, 2, 3, 4, 6)) <= 1e-9 * scale

    def test_a0_slice_forms(self):
        gen = rng(72)
        for _ in range(100):
            p = random_params(gen)
            p0 = NilpotentParams(0.0, p.b, p.c, p.d, p.e, p.f)
            forms = psi_closed_forms(p0)
            values = psi7(build_matrix(p0)).values
            scale = max(1.0, max(abs(v) for v in values))
            assert abs(forms.psi1_a0 - values[0]) <= 1e-9 * scale
            assert abs(forms.psi6_a0 - values[5]) <= 1e-9 * scale


    @pytest.mark.parametrize(
        "params, exact",
        [
            ((1e200, 1, 1, 1, 1, 1), {"psi1_a0": 2, "psi6_a0": 4}),
            ((1, 1e160, 1, 1, 1, 1), {"psi7": 0}),
            ((1.5e308 + 1.5e308j, 1, 1, 1, 1, 1), {"psi1_a0": 2, "psi6_a0": 4}),
            ((1e100, 1, 1, 1, 1, 1), {"psi1_a0": 2, "psi6_a0": 4}),
        ],
    )
    def test_overflow_gives_non_finite_fields(self, params, exact):
        # no exception: each field beyond the largest float is inf or nan,
        # and the fields in range keep their exact values
        forms = asdict(psi_closed_forms(NilpotentParams(*params)))
        for name, value in forms.items():
            if name in exact:
                assert value == exact[name], name
            else:
                assert not cmath.isfinite(value), name


class TestClassify:
    def test_quartet(self):
        expectations = {4: (), 5: (), 6: (2,), 7: ()}
        for t, e in zip(NILPOTENT_QUARTET, (4, 5, 6, 7)):
            result = classify(NilpotentParams(2, 9, 1, 0, e, 7))
            assert result.satisfied == expectations[e]
            assert result.uecsm == uecsm_verdict(t).passed

    def test_norm_identity_of_passing_member(self):
        # 2^2 + 9^2 = 85 = 6^2 + 7^2
        assert 2**2 + 9**2 == 85 == 6**2 + 7**2

    def test_square_zero_case(self):
        p = NilpotentParams(1, 1, 0.3 + 0.1j, 0, 1, -1)  # d = 0, ae + bf = 0
        result = classify(p)
        assert 1 in result.satisfied
        assert result.uecsm
        t = build_matrix(p)
        assert np.allclose(t @ t, 0)
        assert uecsm_verdict(t).passed

    def test_rank_one_case(self):
        # a = 0, b = d = 0: rank one, condition 4 absorbs it
        p = NilpotentParams(0, 0, 2.0, 0, 1.5j, 1.0)
        result = classify(p)
        assert 4 in result.satisfied
        assert uecsm_verdict(build_matrix(p)).passed

    def test_partial_isometry_case(self):
        # a = 0 with v3 orthogonal to v4 and equal norms satisfies condition 4
        gen = rng(73)
        for _ in range(20):
            b, d = gen.standard_normal(2) + 1j * gen.standard_normal(2)
            # v3 = (b, d, 0, 0); choose v4 = (c, e, f, 0) orthogonal, same norm
            c, e = -np.conj(d), np.conj(b)
            f = 0.0
            # f = 0 makes it rank-deficient in the wrong way; rescale instead
            norm3 = np.sqrt(abs(b) ** 2 + abs(d) ** 2)
            c *= 0.8
            e *= 0.8
            f = 0.6 * norm3
            p = NilpotentParams(0, b, c, d, e, f)
            quad = (abs(b) ** 2 + abs(d) ** 2) * (
                abs(b) ** 2 + abs(d) ** 2 - abs(c) ** 2 - abs(e) ** 2 - abs(f) ** 2
            ) + abs(b * np.conj(c) + d * np.conj(e)) ** 2
            assert abs(quad) < 1e-9 * norm3**4
            result = classify(p)
            assert 4 in result.satisfied
            assert uecsm_verdict(build_matrix(p)).passed

    def test_jordan_like_block_is_condition_6(self):
        # chained ones force |a| = |f| and |b| = |e| with matching products
        result = classify(NilpotentParams(1, 0, 0, 1, 0, 1))
        assert 6 in result.satisfied
        assert result.uecsm

    def test_square_zero_via_condition_3(self):
        gen = rng(78)
        for _ in range(10):
            b, c, d, e = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            p = NilpotentParams(0, b, c, d, e, 0)
            t = build_matrix(p)
            assert np.allclose(t @ t, 0)
            result = classify(p)
            assert 3 in result.satisfied
            assert uecsm_verdict(t).passed

    def test_case6_requires_matching_products(self):
        # moduli match but ae != bf: not UECSM, and classify agrees
        p = NilpotentParams(1, 1, 0, 1, 1, -1)
        result = classify(p)
        assert 6 not in result.satisfied
        assert not result.uecsm
        assert not uecsm_verdict(build_matrix(p)).passed

    def test_case6_with_matching_products(self):
        gen = rng(74)
        for _ in range(20):
            a, b, c, d = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            phase = np.exp(2j * np.pi * gen.random())
            f = a * phase
            e = b * phase  # then ae = ab*phase = bf
            p = NilpotentParams(a, b, c, d, e, f)
            result = classify(p)
            assert 6 in result.satisfied
            assert uecsm_verdict(build_matrix(p)).passed

    def test_reports_all_conditions(self):
        result = classify(NilpotentParams(0, 0, 0, 0, 0, 0))
        assert set(result.satisfied) == {1, 2, 3, 4, 5, 6}

    def test_scale_invariance(self):
        # classify reads the unit-norm representative, so no scale moves a
        # zero gate and no finite parameters overflow
        gen = rng(75)
        quartet = [NilpotentParams(2, 9, 1, 0, e, 7) for e in (4, 5, 6, 7)]
        for p in [random_params(gen) for _ in range(20)] + quartet:
            base = classify(p).satisfied
            for c in (10.0, 0.01, 3j, 1e-12, 1e-9, 1e-6, 1e6, 1e12, 1e100, 3e-10j):
                scaled = NilpotentParams.from_iterable(c * np.array(p.as_tuple()))
                assert classify(scaled).satisfied == base, (p, c)

    def test_equivalence_with_trace_verdict(self):
        gen = rng(76)
        tol = 1e-8
        checked = 0
        for _ in range(300):
            p = random_params(gen)
            result = classify(p, tol)
            verdict = uecsm_verdict(build_matrix(p), tol)
            if tol / 10 <= verdict.max_residual <= 10 * tol:
                continue
            checked += 1
            assert result.uecsm == verdict.passed
        assert checked > 250


class TestWitness:
    def test_verifies_on_case6(self):
        p = NilpotentParams(3, 1 + 2j, 2 - 1j, 1 + 1j, 1j * (1 + 2j), 3j)
        assert classify(p).satisfied == (6,)
        u = symmetrizing_witness(p)
        v = verify_witness(build_matrix(p), u, tol=1e-10)
        assert v.passed

    def test_random_matched_phases(self):
        gen = rng(77)
        for _ in range(20):
            a, b, c, d = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            phase = np.exp(2j * np.pi * gen.random())
            p = NilpotentParams(a, b, c, d, b * phase, a * phase)
            u = symmetrizing_witness(p)
            assert verify_witness(build_matrix(p), u, tol=1e-9).passed

    def test_refuses_phase_mismatch(self):
        with pytest.raises(ValueError):
            symmetrizing_witness(NilpotentParams(1, 1, 0, 1, 1, -1))

    def test_refuses_zero_a(self):
        with pytest.raises(ValueError, match="a and f nonzero"):
            symmetrizing_witness(NilpotentParams(0, 1, 0, 1, 1, 0))

    def test_gate_is_condition_6_with_a_and_f_nonzero(self):
        witnesses = 0
        for p in nilpotent_c07_samples():
            refused = 6 not in classify(p).satisfied or p.a == 0 or p.f == 0
            try:
                u = symmetrizing_witness(p)
            except ValueError:
                assert refused, p
                continue
            assert not refused, p
            assert verify_witness(build_matrix(p), u, tol=1e-9).passed
            witnesses += 1
        assert witnesses == 25

    def test_scaled_case6_witness(self):
        # the a, f gate reads the normalized entries, so 1e-9 is not zero
        p = NilpotentParams.from_iterable(1e-9 * np.array([3, 1 + 2j, 2 - 1j, 1 + 1j, 1j * (1 + 2j), 3j]))
        assert classify(p).satisfied == (6,)
        assert verify_witness(build_matrix(p), symmetrizing_witness(p), tol=1e-9).passed
