"""Tests for the trace-word criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uecsm import (
    DJOKOVIC_WORDS,
    DimensionMismatch,
    UnsupportedDimension,
    adjoint,
    cmatrix,
    djokovic_signature,
    normalize,
    phi3,
    psi7,
    reverse_word,
    trace_test_3,
    transpose_equivalence,
    uecsm_verdict,
    unitary_equivalence_4,
    word_trace,
)
from uecsm.gallery import (
    GALLERY,
    NILPOTENT_QUARTET,
    SCALAR_PLUS_SHIFT_12,
    SCALAR_PLUS_SHIFT_22,
    WAT_COUNTEREXAMPLE,
)

from _util import random_complex_matrix, random_symmetric_matrix, random_unitary, rng

# paper-layout proof matrix: rows (0,0,0), (a,1,0), (b,0,lam)
TRIANGULAR_PROOF_CASES = [
    cmatrix([[0, 0, 0], [0, 1, 0], [2.0, 0, 3.0]]),  # a = 0
    cmatrix([[0, 0, 0], [1.5j, 1, 0], [0, 0, 2.0 - 1j]]),  # b = 0
]


class TestPhi3:
    def test_zero_matrix(self):
        sig = phi3(np.zeros((3, 3), dtype=complex))
        assert sig.values == (0,) * 7

    def test_identity(self):
        sig = phi3(np.eye(3, dtype=complex))
        assert np.allclose(sig.values, [3] * 7)

    def test_degrees(self):
        assert phi3(np.eye(3, dtype=complex)).degrees == (1, 2, 3, 2, 3, 4, 6)

    def test_unitary_invariance(self):
        gen = rng(30)
        for _ in range(10):
            t = random_complex_matrix(gen, 3, scale=2.0)
            u = random_unitary(gen, 3)
            a = np.array(phi3(t).values)
            b = np.array(phi3(u @ t @ u.conj().T).values)
            scales = np.maximum(1.0, np.linalg.norm(t) ** np.array(phi3(t).degrees, float))
            assert np.max(np.abs(a - b) / scales) < 1e-9

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            phi3(np.eye(4, dtype=complex))


class TestTraceTest3:
    def test_complex_symmetric_passes(self):
        t = cmatrix([[1, 2j, 0], [2j, 3, 1], [0, 1, 1j]])
        v = trace_test_3(t)
        assert v.passed
        assert v.max_residual < 1e-12

    @pytest.mark.parametrize("t", TRIANGULAR_PROOF_CASES)
    def test_triangular_proof_matrix_passes(self, t):
        assert trace_test_3(t).passed

    def test_generic_integer_matrix_fails(self):
        t = cmatrix([[1, 2, 0], [0, 3, 1], [1, 0, -2]])
        v = trace_test_3(t)
        assert not v.passed
        assert v.max_residual > 1e-6

    def test_zero_matrix_passes_with_zero_residual(self):
        v = trace_test_3(np.zeros((3, 3), dtype=complex))
        assert v.passed
        assert v.max_residual == 0.0


class TestDjokovic:
    def test_word_table_shape(self):
        assert len(DJOKOVIC_WORDS) == 20
        assert [w.degree for w in DJOKOVIC_WORDS] == [
            1, 2, 2, 3, 3, 4, 4, 4, 4, 5, 6, 6, 6, 7, 8, 8, 8, 9, 9, 10,
        ]

    def test_zero_and_identity(self):
        assert djokovic_signature(np.zeros((4, 4), dtype=complex)).values == (0,) * 20
        assert np.allclose(djokovic_signature(np.eye(4, dtype=complex)).values, [4] * 20)

    def test_unitary_invariance(self):
        gen = rng(31)
        for _ in range(5):
            t = random_complex_matrix(gen, 4, scale=2.0)
            u = random_unitary(gen, 4)
            v = unitary_equivalence_4(t, u @ t @ u.conj().T, tol=1e-9)
            assert v.passed

    def test_reflexive(self):
        t = random_complex_matrix(rng(32), 4)
        assert unitary_equivalence_4(t, t).passed

    def test_shift_examples_separated_by_w3(self):
        v = unitary_equivalence_4(SCALAR_PLUS_SHIFT_22, SCALAR_PLUS_SHIFT_12)
        assert not v.passed
        residuals = dict(v.residuals)
        assert residuals["w03"] > 1e-3  # tr T T* is 9 vs 6
        sig1 = djokovic_signature(SCALAR_PLUS_SHIFT_22)
        sig2 = djokovic_signature(SCALAR_PLUS_SHIFT_12)
        assert sig1.values[2] == pytest.approx(9.0)
        assert sig2.values[2] == pytest.approx(6.0)


class TestPsi7:
    def test_shift_22_vanishes(self):
        values = np.array(psi7(SCALAR_PLUS_SHIFT_22).values)
        assert np.max(np.abs(values)) < 1e-10

    def test_shift_12_first_component(self):
        values = np.array(psi7(SCALAR_PLUS_SHIFT_12).values)
        assert values[0] == pytest.approx(-12.0, abs=1e-9)
        assert np.max(np.abs(values[1:])) < 1e-10

    def test_symmetric_vanishes(self):
        gen = rng(33)
        for _ in range(50):
            s = random_symmetric_matrix(gen, 4, scale=2.0)
            values = np.abs(np.array(psi7(s).values))
            bound = 1e-10 * np.linalg.norm(s) ** np.array(psi7(s).degrees, float)
            assert np.all(values <= bound)

    def test_matches_word_differences(self):
        # psi_i = tr w_i - tr (reversed w_i) for i in {12,14,15,16,18,19,20}
        t = random_complex_matrix(rng(34), 4)
        ta = adjoint(t)
        pairing = {1: 12, 2: 14, 3: 15, 4: 16, 5: 18, 6: 19, 7: 20}
        values = psi7(t).values
        for psi_index, word_index in pairing.items():
            w = DJOKOVIC_WORDS[word_index - 1]
            diff = word_trace(w, t, ta) - word_trace(reverse_word(w), t, ta)
            assert values[psi_index - 1] == pytest.approx(diff, rel=1e-8, abs=1e-8)


class TestUecsmVerdict:
    def test_quartet(self):
        expected = [False, False, True, False]
        for t, want in zip(NILPOTENT_QUARTET, expected):
            assert uecsm_verdict(t).passed is want

    def test_counterexample_fails(self):
        assert not uecsm_verdict(WAT_COUNTEREXAMPLE).passed

    def test_small_n_always_passes(self):
        assert uecsm_verdict(cmatrix([[3.7j]])).passed
        assert uecsm_verdict(random_complex_matrix(rng(35), 2)).passed

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            uecsm_verdict(np.eye(5, dtype=complex))

    def test_scale_invariant_residuals(self):
        gen = rng(36)
        t = random_complex_matrix(gen, 4)
        base = np.array([r for _, r in uecsm_verdict(t).residuals])
        for c in (3.7, 0.02, 1j, -2.5 + 1.5j):
            scaled = np.array([r for _, r in uecsm_verdict(c * t).residuals])
            assert np.allclose(scaled, base, rtol=1e-9, atol=1e-12)


class TestTransposeEquivalence:
    def test_symmetric_passes(self):
        s = random_symmetric_matrix(rng(37), 4)
        assert transpose_equivalence(s).passed

    def test_shift_12_fails(self):
        assert not transpose_equivalence(SCALAR_PLUS_SHIFT_12).passed

    def test_agrees_with_uecsm_verdict(self):
        gen = rng(38)
        for n in (3, 4):
            for _ in range(50):
                t = random_complex_matrix(gen, n, scale=2.0)
                assert transpose_equivalence(t).passed == uecsm_verdict(t).passed
            for _ in range(20):
                u = random_unitary(gen, n)
                s = u @ random_symmetric_matrix(gen, n) @ u.conj().T
                assert transpose_equivalence(s).passed
                assert uecsm_verdict(s).passed


def reference_transpose_equivalence(t, tol=1e-8):
    """Transpose equivalence by evaluating the words on T^t itself."""
    n = t.shape[0]
    if n == 3:
        rep, _, _ = normalize(t)
        residuals = tuple(
            (f"phi{i}", abs(a - b))
            for i, (a, b) in enumerate(zip(phi3(rep).values, phi3(rep.T).values), start=1)
        )
        return max(r for _, r in residuals) <= tol, residuals
    inner = unitary_equivalence_4(t, t.T, tol)
    return inner.passed, inner.residuals


def assert_matches_reference(t):
    v = transpose_equivalence(t)
    passed, residuals = reference_transpose_equivalence(t)
    assert [name for name, _ in v.residuals] == [name for name, _ in residuals]
    assert v.passed is passed
    assert np.allclose([r for _, r in v.residuals], [r for _, r in residuals], rtol=0, atol=1e-12)


class TestTransposeReversalIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([3, 4]), st.booleans())
    def test_matches_words_on_the_transpose(self, seed, n, uecsm):
        gen = rng(seed)
        if uecsm:
            u = random_unitary(gen, n)
            t = u @ random_symmetric_matrix(gen, n) @ u.conj().T
        else:
            t = random_complex_matrix(gen, n, scale=2.0)
        assert_matches_reference(t)
        assert transpose_equivalence(t).passed is uecsm

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    @pytest.mark.parametrize("label", sorted(GALLERY))
    def test_gallery(self, label, scale):
        matrix, expected = GALLERY[label]
        t = scale * np.asarray(matrix)
        assert_matches_reference(t)
        assert transpose_equivalence(t).passed is expected

    def test_residual_names(self):
        gen = rng(41)
        v3 = transpose_equivalence(random_complex_matrix(gen, 3))
        v4 = transpose_equivalence(random_complex_matrix(gen, 4))
        assert [name for name, _ in v3.residuals] == [f"phi{i}" for i in range(1, 8)]
        assert [name for name, _ in v4.residuals] == [f"w{i:02d}" for i in range(1, 21)]
        assert all(isinstance(r, float) for _, r in v3.residuals + v4.residuals)


class TestWordReductions:
    def test_first_eleven_automatic(self):
        gen = rng(39)
        for _ in range(20):
            t = random_complex_matrix(gen, 4, scale=2.0)
            ta = adjoint(t)
            norm = np.linalg.norm(t)
            for w in DJOKOVIC_WORDS[:11]:
                gap = abs(word_trace(w, t, ta) - word_trace(reverse_word(w), t, ta))
                assert gap <= 1e-10 * max(1.0, norm**w.degree)

    def test_pair_reductions(self):
        gen = rng(40)
        for _ in range(20):
            t = random_complex_matrix(gen, 4, scale=2.0)
            ta = adjoint(t)
            norm = max(1.0, np.linalg.norm(t))

            def gap(index):
                w = DJOKOVIC_WORDS[index - 1]
                return abs(word_trace(w, t, ta) - word_trace(reverse_word(w), t, ta))

            assert abs(gap(12) - gap(13)) <= 1e-9 * norm**6
            assert abs(gap(16) - gap(17)) <= 1e-9 * norm**8
