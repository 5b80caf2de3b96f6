"""Tests for the eigensolver pipeline.

Independent oracle for eigenvalues: companion-matrix roots via LAPACK
(numpy), never the package's own Faddeev-LeVerrier / Durand-Kerner
path.
"""

import numpy as np
import pytest

from uecsm import (
    DegenerateSpectrum,
    NilpotentParams,
    build_matrix,
    characteristic_polynomial,
    determinant,
    durand_kerner,
    eigensystem,
    frobenius_norm,
)
from uecsm.gallery import WAT_COUNTEREXAMPLE

from _util import random_integer_matrix, rng


def companion_eigenvalues(t: np.ndarray) -> np.ndarray:
    """Oracle: roots of the characteristic polynomial via a companion matrix."""
    coeffs = np.poly(t)
    n = len(coeffs) - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[0, :] = -np.asarray(coeffs[1:], dtype=complex) / coeffs[0]
    comp[1:, :-1] = np.eye(n - 1)
    return np.linalg.eigvals(comp)


def sorted_by_parts(values) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    return arr[np.lexsort((arr.imag, arr.real))]


def assert_same_multiset(found, expected, atol):
    """Match each found value to a distinct expected value within atol."""
    remaining = list(expected)
    for v in found:
        i = min(range(len(remaining)), key=lambda j: abs(remaining[j] - v))
        assert abs(remaining[i] - v) <= atol, (v, remaining)
        remaining.pop(i)
    assert not remaining


class TestCharacteristicPolynomial:
    def test_diagonal(self):
        t = np.diag([1.0, 2.0, 3.0]).astype(complex)
        coeffs = characteristic_polynomial(t)
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        assert np.allclose(coeffs, [1, -6, 11, -6])

    def test_matches_numpy_poly(self):
        gen = rng(7)
        for _ in range(25):
            t = random_integer_matrix(gen, 4)
            assert np.allclose(characteristic_polynomial(t), np.poly(t), atol=1e-6)


class TestDurandKerner:
    def test_known_roots(self):
        # (x-1)(x-2i)(x+3) = monic cubic
        roots = np.array([1.0, 2j, -3.0])
        coeffs = np.poly(roots)
        found = sorted_by_parts(durand_kerner(coeffs))
        assert np.allclose(found, sorted_by_parts(roots), atol=1e-10)

    def test_random_polynomials_match_companion(self):
        gen = rng(8)
        for _ in range(25):
            roots = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            coeffs = np.poly(roots)
            assert_same_multiset(durand_kerner(coeffs), roots, atol=1e-8)


class TestEigensystem:
    def test_diagonal_trivial(self):
        s = eigensystem(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert np.allclose(s.eigenvalues, [1, 2, 3])
        assert np.allclose(np.abs(s.x), np.eye(3), atol=1e-12)
        assert np.allclose(np.abs(s.y), np.eye(3), atol=1e-12)

    def test_integer_example(self):
        t = WAT_COUNTEREXAMPLE
        s = eigensystem(t)
        assert_same_multiset(s.eigenvalues, companion_eigenvalues(t), atol=1e-8)
        # residuals and biorthogonality
        for i in range(4):
            assert np.linalg.norm(t @ s.x[:, i] - s.eigenvalues[i] * s.x[:, i]) < 1e-8
        cross = s.y.conj().T @ s.x
        off = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off)) < 1e-8

    def test_nilpotent_is_degenerate(self):
        t = build_matrix(NilpotentParams(1.0, 2.0, 0.5j, -1.0, 2j, 3.0))
        with pytest.raises(DegenerateSpectrum):
            eigensystem(t)

    def test_unit_vectors_and_phase(self):
        s = eigensystem(WAT_COUNTEREXAMPLE)
        for i in range(4):
            assert np.linalg.norm(s.x[:, i]) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(s.y[:, i]) == pytest.approx(1.0, abs=1e-12)
            lead = s.x[np.argmax(np.abs(s.x[:, i]) > 1e-8), i]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0

    def test_reconstruction_property(self):
        gen = rng(9)
        checked = 0
        while checked < 40:
            t = random_integer_matrix(gen, 4)
            try:
                s = eigensystem(t)
            except DegenerateSpectrum:
                continue
            checked += 1
            x = np.array(s.x)
            recon = x @ np.diag(s.eigenvalues) @ np.linalg.inv(x)
            assert np.linalg.norm(recon - t) <= 1e-7 * max(1.0, frobenius_norm(t))

    def test_trace_and_det_consistency(self):
        gen = rng(10)
        checked = 0
        while checked < 40:
            t = random_integer_matrix(gen, 4)
            try:
                s = eigensystem(t)
            except DegenerateSpectrum:
                continue
            checked += 1
            lam = np.array(s.eigenvalues)
            assert abs(lam.sum() - np.trace(t)) <= 1e-9 * max(1.0, frobenius_norm(t))
            det = determinant(t)
            assert abs(lam.prod() - det) <= 1e-8 * max(1.0, abs(det))

    def test_adjoint_pairing_conjugates(self):
        t = WAT_COUNTEREXAMPLE
        s = eigensystem(t)
        ta = t.conj().T
        for i in range(4):
            lam = np.conj(s.eigenvalues[i])
            assert np.linalg.norm(ta @ s.y[:, i] - lam * s.y[:, i]) < 1e-8

    def test_affine_image_reported_in_callers_units(self):
        # T -> cT + bI maps eigenvalues and gap, not the eigenvectors or
        # whether the spectrum counts as distinct
        base = eigensystem(WAT_COUNTEREXAMPLE)
        for c, b in ((1e-12, 0.0), (1e30, 0.0), (2j, 1e6), (1e-200, -3e-195j)):
            s = eigensystem(c * WAT_COUNTEREXAMPLE + b * np.eye(4))
            expected = np.array(base.eigenvalues) * c + b
            assert_same_multiset(s.eigenvalues, expected, atol=1e-9 * abs(c) * 12 + 1e-16 * abs(b))
            assert s.gap == pytest.approx(abs(c) * base.gap, rel=1e-6)

    def test_distinct_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            eigensystem(np.eye(2, dtype=complex), distinct_tol=0.0)

    def test_deterministic(self):
        a = eigensystem(WAT_COUNTEREXAMPLE)
        b = eigensystem(WAT_COUNTEREXAMPLE)
        assert a.eigenvalues == b.eigenvalues
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
