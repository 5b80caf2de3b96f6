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

import uecsm.spectra as spectra
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

    @pytest.mark.parametrize(
        "coeffs, roots",
        [([2, -2], [1]), ([3, 0, -3], [1, -1]), ([0, 1, -1], [1]), ([0, 5], []), ([0, 0], [])],
        ids=["leading-2", "leading-3", "leading-zero", "constant", "zero"],
    )
    def test_polynomials_that_are_not_monic(self, coeffs, roots):
        # leading zeros are dropped, and a constant has no roots
        found = durand_kerner(coeffs)
        assert found.dtype == complex
        assert_same_multiset(found, roots, atol=1e-12)


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


def _vector_inputs() -> tuple[np.ndarray, ...]:
    """The arguments of ``_check_vectors``, before ``refusals``, for four 3x3 rows.

    Row 0 is a random matrix with its eigenvectors, which passes; rows 1
    to 3 are ``D = diag(0.1, 0.101, -0.5)`` with ``x = y = I``, and each
    fails one check: in row 1 the first eigenvalue is off by 1e-6
    (residual 1e-6, no defect); in row 2 ``y_1`` leans 1e-6 towards
    ``e_2``, whose eigenvalue is 1e-3 away (defect 1e-6, residual 1e-9);
    row 3 has a NaN on the diagonal of D (residual NaN, no defect).
    """
    gen = rng(11)
    t = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    rep = normalize_stack(t[None])[0][0]
    w, v = np.linalg.eig(rep)
    order = w.argsort()
    d = np.array([0.1, 0.101, -0.5], dtype=complex)
    reps = np.stack([rep, np.diag(d), np.diag(d), np.diag(d)])
    reps[3, 1, 1] = np.nan
    lam = np.stack([w[order], d + [1e-6, 0, 0], d, d])
    x = np.stack([v[:, order], *[np.eye(3, dtype=complex)] * 3])
    y = x.copy()
    y[0] = np.linalg.inv(x[0]).conj().T
    y[2, 1, 0] = 1e-6
    dist = np.abs(lam[:, :, None] - lam[:, None, :])
    dist[:, range(3), range(3)] = np.inf
    return reps, lam, np.zeros(4, dtype=complex), np.ones(4), x, y, dist.min(axis=2)


# each row's refusal, as the checks gave it before they skipped the row
# masks of a stack whose rows all pass
VECTOR_REFUSALS = (
    None,
    "NoConvergence: eigenvector residual 1.000e-06 of the normalized matrix exceeds 1.0e-08 "
    "for eigenvalue (0.100001+0j)",
    "NoConvergence: biorthogonality defect 1.000e-06 exceeds 1.0e-08",
    "NoConvergence: eigenvector residual nan of the normalized matrix exceeds 1.0e-08 for eigenvalue (0.1+0j)",
)


@pytest.mark.parametrize("rows", [(0, 1, 2, 3), (0, 3), (0, 2), (3, 0), (0,)], ids=str)
def test_vector_checks_refuse_each_failing_row(monkeypatch, rows):
    # at 1e-8 exactly one row fails each check; a NaN residual fails it
    # too, also when it is the only failing row of its stack
    monkeypatch.setattr(spectra, "_RESIDUAL_TOL", 1e-8)
    monkeypatch.setattr(spectra, "_BIORTHO_TOL", 1e-8)
    inputs = _vector_inputs()
    refusals = [None] * len(rows)
    checked = spectra._check_vectors(*(a[list(rows)] for a in inputs), refusals)
    assert [None if r is None else f"{type(r).__name__}: {r}" for r in refusals] == [
        VECTOR_REFUSALS[b] for b in rows
    ]
    alone = spectra._check_vectors(*(a[:1] for a in inputs), [None])
    for got, expected in zip(checked, alone):
        assert np.array_equal(got[rows.index(0)], expected[0])
