"""Tests for the eigenvector angle criteria."""

import dataclasses

import numpy as np
import pytest

from uecsm import (
    ConsistencyError,
    DegenerateSpectrum,
    DimensionMismatch,
    OrthogonalEigenvectors,
    angle_suite,
    det_criterion_3,
    eigensystem,
    lsat,
    sat,
    trace_test_3,
    uecsm_verdict,
    wat,
)
from uecsm.angletests import _TRIPLE_FLOOR
from uecsm.gallery import NILPOTENT_QUARTET, SU22_LSAT_EXAMPLE, WAT_COUNTEREXAMPLE
from uecsm.spectra import SpectralData

from _util import (
    random_complex_matrix,
    random_integer_matrix,
    random_symmetric_matrix,
    random_unitary,
    rng,
)


def normal_matrix():
    gen = rng(50)
    u = random_unitary(gen, 4)
    return u @ np.diag([1.0, 2.0, -1.0, 3.0 + 1.0j]).astype(complex) @ u.conj().T


class TestWat:
    def test_normal_matrix_passes(self):
        report = wat(eigensystem(normal_matrix()))
        assert report.passed
        assert all(d < 1e-10 for _, d in report.residuals)

    def test_counterexample_passes(self):
        assert wat(eigensystem(WAT_COUNTEREXAMPLE)).passed

    def test_lsat_example_passes(self):
        assert wat(eigensystem(SU22_LSAT_EXAMPLE)).passed

    def test_pair_indexing(self):
        report = wat(eigensystem(WAT_COUNTEREXAMPLE))
        assert [name for name, _ in report.residuals] == [
            "pair_1_2", "pair_1_3", "pair_1_4", "pair_2_3", "pair_2_4", "pair_3_4",
        ]


class TestSat:
    def test_counterexample_fails(self):
        report = sat(eigensystem(WAT_COUNTEREXAMPLE))
        assert not report.passed
        assert report.max_residual > 0.1

    def test_lsat_example_fails(self):
        assert not sat(eigensystem(SU22_LSAT_EXAMPLE)).passed

    def test_symmetric_conjugate_passes(self):
        gen = rng(51)
        u = random_unitary(gen, 4)
        t = u @ random_symmetric_matrix(gen, 4) @ u.conj().T
        assert sat(eigensystem(t)).passed

    def test_sat_implies_wat(self):
        # deviations of WAT pairs appear among SAT triples with k = j
        gen = rng(52)
        checked = 0
        while checked < 20:
            t = random_integer_matrix(gen, 4)
            try:
                s = eigensystem(t)
            except DegenerateSpectrum:
                continue
            checked += 1
            if sat(s).passed:
                assert wat(s, tol=1e-6).passed

    def test_wat_equals_sat_for_3x3(self):
        gen = rng(53)
        checked = 0
        while checked < 60:
            t = random_integer_matrix(gen, 3)
            try:
                s = eigensystem(t)
            except DegenerateSpectrum:
                continue
            wd = wat(s)
            sd = sat(s)
            tol = 1e-8
            if any(tol / 10 <= v.max_residual <= 10 * tol for v in (wd, sd)):
                continue
            checked += 1
            assert wd.passed == sd.passed


class TestLsat:
    def test_counterexample_passes(self):
        assert lsat(eigensystem(WAT_COUNTEREXAMPLE)).passed

    def test_lsat_example_passes(self):
        assert lsat(eigensystem(SU22_LSAT_EXAMPLE)).passed

    def test_normal_with_real_inner_products(self):
        # real orthogonal conjugation of a real diagonal keeps everything real
        gen = rng(54)
        q, _ = np.linalg.qr(gen.standard_normal((4, 4)))
        t = (q @ np.diag([1.0, 2.0, 3.0, -1.0]) @ q.T).astype(complex)
        assert lsat(eigensystem(t)).passed


class TestDetCriterion3:
    def test_symmetric_passes(self):
        gen = rng(55)
        found = 0
        while found < 10:
            s = random_symmetric_matrix(gen, 3)
            try:
                data = eigensystem(s)
                verdict = det_criterion_3(data)
            except (DegenerateSpectrum, OrthogonalEigenvectors):
                continue
            found += 1
            assert verdict.passed

    def test_trace_test_failure_matches(self):
        gen = rng(56)
        found = 0
        while found < 10:
            t = random_integer_matrix(gen, 3)
            if trace_test_3(t).passed or trace_test_3(t).max_residual < 1e-4:
                continue
            try:
                data = eigensystem(t)
                verdict = det_criterion_3(data)
            except (DegenerateSpectrum, OrthogonalEigenvectors):
                continue
            found += 1
            assert not verdict.passed

    def test_orthogonal_eigenvectors_refused(self):
        data = eigensystem(np.diag([1.0, 2.0, 3.0]).astype(complex))
        with pytest.raises(OrthogonalEigenvectors):
            det_criterion_3(data)

    def test_other_sizes_are_a_dimension_mismatch(self):
        # not the OrthogonalEigenvectors refusal, which asks for the trace test
        data = eigensystem(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        with pytest.raises(DimensionMismatch):
            det_criterion_3(data)

    def test_wat_failure_implies_trace_failure(self):
        # generate until the angle test fails, then the trace test must too
        gen = rng(61)
        found = 0
        while found < 10:
            t = random_integer_matrix(gen, 3)
            try:
                s = eigensystem(t)
            except DegenerateSpectrum:
                continue
            report = wat(s)
            if report.passed or report.max_residual < 1e-6:
                continue
            found += 1
            assert trace_test_3(t).max_residual > 1e-8

    def test_inconsistent_grams_are_refused(self):
        # a Y Gram matrix off by 10% breaks the determinant identities
        data = eigensystem(random_complex_matrix(rng(58), 3))
        grams = np.stack([data.grams[0], 1.1 * data.grams[1]])
        with pytest.raises(ConsistencyError):
            det_criterion_3(dataclasses.replace(data, grams=grams))

    def test_identity_residuals_reported(self):
        gen = rng(57)
        u = random_unitary(gen, 3)
        t = u @ random_symmetric_matrix(gen, 3) @ u.conj().T
        verdict = det_criterion_3(eigensystem(t))
        names = [name for name, _ in verdict.residuals]
        assert "det_vs_pairing_1" in names
        assert "dual_det_vs_pairing" in names


class TestAngleSuite:
    def test_counterexample_bundle(self):
        suite = angle_suite(WAT_COUNTEREXAMPLE, tol=1e-7)
        assert suite["wat"].passed
        assert suite["lsat"].passed
        assert not suite["sat"].passed
        assert suite["sat"].passed is False

    def test_normal_diagonal(self):
        suite = angle_suite(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        assert suite["wat"].passed
        assert suite["sat"].passed
        assert suite["lsat"].passed
        assert suite["sat"].passed is True

    def test_nilpotent_raises(self):
        with pytest.raises(DegenerateSpectrum):
            angle_suite(NILPOTENT_QUARTET[2])

    def test_phase_invariance(self):
        # re-phasing eigenvectors must not change any verdict
        s = eigensystem(WAT_COUNTEREXAMPLE)
        gen = rng(58)
        phases_x = np.exp(2j * np.pi * gen.random(4))
        phases_y = np.exp(2j * np.pi * gen.random(4))
        rephased = SpectralData(
            n=s.n,
            eigenvalues=s.eigenvalues,
            x=s.x * phases_x,
            y=s.y * phases_y,
            gap=s.gap,
        )
        for test in (wat, sat, lsat):
            a = test(s)
            b = test(rephased)
            assert a.passed == b.passed
            assert abs(a.max_residual - b.max_residual) < 1e-9

    def test_unitary_conjugation_invariance(self):
        gen = rng(59)
        u = random_unitary(gen, 4)
        conj = u @ WAT_COUNTEREXAMPLE @ u.conj().T
        a = angle_suite(WAT_COUNTEREXAMPLE)
        b = angle_suite(conj)
        for key in ("wat", "sat", "lsat"):
            assert a[key].passed == b[key].passed
            assert abs(a[key].max_residual - b[key].max_residual) < 1e-9


def test_sat_equals_psi_for_4x4_sample():
    gen = rng(60)
    checked = 0
    while checked < 40:
        t = random_integer_matrix(gen, 4)
        try:
            s = eigensystem(t)
        except DegenerateSpectrum:
            continue
        sd = sat(s)
        pd = uecsm_verdict(t)
        tol = 1e-8
        if any(tol / 10 <= v.max_residual <= 10 * tol for v in (sd, pd)):
            continue
        checked += 1
        assert sd.passed == pd.passed


# Reference implementation: the triple loops over explicit inner products
# that the Gram-matrix versions replace.


def _inner(u, v):
    return complex(np.vdot(v, u))


def reference_pairs(s):
    return [
        (
            f"pair_{i + 1}_{j + 1}",
            abs(abs(_inner(s.x[:, i], s.x[:, j])) - abs(_inner(s.y[:, i], s.y[:, j]))),
        )
        for i in range(s.n)
        for j in range(i + 1, s.n)
    ]


def reference_triples(s, conjugate):
    devs = []
    for i in range(s.n):
        for j in range(i, s.n):
            for k in range(j, s.n):
                lhs = _inner(s.x[:, i], s.x[:, j]) * _inner(s.x[:, j], s.x[:, k]) * _inner(
                    s.x[:, k], s.x[:, i]
                )
                rhs = _inner(s.y[:, i], s.y[:, j]) * _inner(s.y[:, j], s.y[:, k]) * _inner(
                    s.y[:, k], s.y[:, i]
                )
                if conjugate:
                    rhs = rhs.conjugate()
                dev = abs(lhs - rhs) / max(_TRIPLE_FLOOR, abs(lhs), abs(rhs))
                devs.append((f"triple_{i + 1}_{j + 1}_{k + 1}", dev))
    return devs


def _unit_columns(m):
    return m / np.linalg.norm(m, axis=0)


def _spectral_samples():
    gen = rng(62)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            x = _unit_columns(random_complex_matrix(gen, n))
            y = _unit_columns(random_complex_matrix(gen, n))
            yield SpectralData(n=n, eigenvalues=tuple(range(n)), x=x, y=y, gap=1.0)
    # exactly orthogonal pairs put triples on the floor of the comparison
    yield eigensystem(np.diag([1.0, 2.0, 3.0]).astype(complex))
    for t in (WAT_COUNTEREXAMPLE, SU22_LSAT_EXAMPLE):
        s = eigensystem(t)
        yield s
        yield SpectralData(
            n=s.n,
            eigenvalues=s.eigenvalues,
            x=s.x * np.exp(2j * np.pi * gen.random(s.n)),
            y=s.y * np.exp(2j * np.pi * gen.random(s.n)),
            gap=s.gap,
        )


def test_gram_deviations_match_reference_loops():
    # the Gram matrices sum the inner products in another order, so allow
    # a few n * eps on each factor, divided by the triple floor
    atol = 1e-10
    for s in _spectral_samples():
        pairs = wat(s).residuals
        expected = reference_pairs(s)
        assert [key for key, _ in pairs] == [key for key, _ in expected]
        assert np.allclose([d for _, d in pairs], [d for _, d in expected], rtol=0, atol=atol)
        for test, conjugate in ((sat, True), (lsat, False)):
            triples = test(s).residuals
            expected = reference_triples(s, conjugate)
            assert [key for key, _ in triples] == [key for key, _ in expected]
            assert np.allclose(
                [d for _, d in triples], [d for _, d in expected], rtol=0, atol=atol
            )
