"""Tests for the eigensolver pipeline.

``eigensystem`` runs on LAPACK, and so do ``np.poly`` of a matrix and
companion matrices, so its eigenvalues are checked against independent
references: matrices ``V diag(lambda) V^-1`` with a unimodular integer
``V``, whose spectrum is known exactly, and the characteristic
polynomial of an integer matrix, computed here in exact integer
arithmetic.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from uecsm import (
    DegenerateSpectrum,
    NilpotentParams,
    build_matrix,
    durand_kerner,
    eigensystem,
)
from uecsm.gallery import WAT_COUNTEREXAMPLE

from uecsm.matcore import normalize_stack
from uecsm.spectra import eigensystem_stack

from _util import one_matrix_inputs, random_integer_matrix, random_unitary, rng


def unimodular(gen: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """An integer matrix with determinant 1 and its integer inverse."""
    lower = np.tril(gen.integers(-2, 3, size=(n, n)), -1) + np.eye(n, dtype=int)
    upper = np.triu(gen.integers(-2, 3, size=(n, n)), 1) + np.eye(n, dtype=int)
    v = lower @ upper
    v_inv = np.rint(np.linalg.inv(v)).astype(int)
    assert np.array_equal(v @ v_inv, np.eye(n, dtype=int))
    return v, v_inv


def integer_charpoly(t: np.ndarray) -> list[int]:
    """det(xI - T) of an integer matrix, highest degree first, in exact arithmetic.

    Faddeev-LeVerrier: ``M_1 = T``, ``c_k = -tr(M_k) / k`` and
    ``M_{k+1} = T (M_k + c_k I)``; every division is exact.
    """
    a = t.real.astype(int).astype(object)  # Python integers
    assert np.array_equal(a.astype(complex), t)
    eye = np.eye(len(a), dtype=int).astype(object)
    coeffs, m = [1], eye
    for k in range(1, len(a) + 1):
        m = a.dot(m)
        c, remainder = divmod(-np.trace(m), k)
        assert remainder == 0
        coeffs.append(c)
        m = m + c * eye
    return coeffs


def jordan_embedding(k: int, n: int = 4) -> np.ndarray:
    """A k x k nilpotent Jordan block followed by distinct eigenvalues away from 0."""
    t = np.diag([0.0] * k + [1.5 + 0.7j * i for i in range(1, n - k + 1)]).astype(complex)
    t[np.arange(k - 1), np.arange(1, k)] = 1.0
    return t


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
        # the polynomial with the found eigenvalues as roots (np.poly of a
        # vector multiplies out its factors) against the exact one
        coeffs = integer_charpoly(t)
        assert np.allclose(np.poly(s.eigenvalues), coeffs, rtol=0, atol=1e-12 * max(map(abs, coeffs)))
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

    def test_known_spectrum(self):
        # V diag(lambda) V^-1 is an exact integer matrix with spectrum lambda
        gen = rng(11)
        for n in (2, 3, 4, 4, 4):
            for _ in range(10):
                # distinct real parts, so rounding cannot reorder a tie
                lam = gen.choice(np.arange(-6, 7), n, replace=False) + 1j * gen.integers(-6, 7, n)
                v, v_inv = unimodular(gen, n)
                t = (v @ np.diag(lam) @ v_inv).astype(complex)
                s = eigensystem(t)
                assert np.allclose(s.eigenvalues, sorted_by_parts(lam), rtol=0, atol=1e-9)
                assert s.gap == pytest.approx(min(
                    abs(a - b) for i, a in enumerate(lam) for b in lam[i + 1:]
                ), rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rotated_jordan_block_is_degenerate(self, k):
        # rounding splits a k-fold eigenvalue by about eps**(1/k), above
        # the 1e-6 gap threshold for k >= 3; the condition-number test refuses anyway
        gen = rng(12 + k)
        for _ in range(20):
            u = random_unitary(gen, 4)
            with pytest.raises(DegenerateSpectrum):
                eigensystem(u @ jordan_embedding(k) @ u.conj().T)

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
            assert np.linalg.norm(recon - t) <= 1e-7 * max(1.0, np.linalg.norm(t))

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
            assert abs(lam.sum() - np.trace(t)) <= 1e-9 * max(1.0, np.linalg.norm(t))
            det = np.linalg.det(t)
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

    def test_deterministic(self):
        a = eigensystem(WAT_COUNTEREXAMPLE)
        b = eigensystem(WAT_COUNTEREXAMPLE)
        assert a.eigenvalues == b.eigenvalues
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)


class TestSpectralStackValues:
    def test_caller_unit_values_equal_the_frozen_record(self):
        # golden/spectral_stack.json: eigenvalues (real, imag) and gap of a
        # stack mixing accepted, gap-refused, ill-conditioned and
        # overflowing rows, by float.hex, frozen before they were computed
        # on first read; refused rows keep their values too
        record = json.loads((Path(__file__).parent / "golden" / "spectral_stack.json").read_text())
        inputs = dict(one_matrix_inputs())
        stack = eigensystem_stack(*normalize_stack(np.stack([inputs[label] for label in record["labels"]])))
        eigenvalues = [[[z.real.hex(), z.imag.hex()] for z in row] for row in stack.eigenvalues.tolist()]
        assert eigenvalues == record["eigenvalues"]
        assert [g.hex() for g in stack.gap.tolist()] == record["gap"]
        refusals = [None if r is None else f"{type(r).__name__}: {r}" for r in stack.refusals]
        assert refusals == record["refusals"]

    def test_overflowing_scale_reads_without_a_warning(self):
        inputs = dict(one_matrix_inputs())
        for label in ("overflow3", "overflow-jordan4"):
            stack = eigensystem_stack(*normalize_stack(inputs[label][None]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values, gap = stack.eigenvalues, stack.gap
            assert not np.isfinite(values).all() and gap[0] == np.inf, label
