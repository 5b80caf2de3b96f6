"""Tests for the unitary-group symmetrizer search."""

import numpy as np
import pytest

from uecsm import (
    CostGuard,
    NilpotentParams,
    build_matrix,
    cayley_retract,
    cost_gradient,
    find_symmetrizer,
    symmetrizing_witness,
    symmetry_cost,
    symmetry_residual,
    verify_witness,
)
from uecsm.gallery import SCALAR_PLUS_SHIFT_22, WAT_COUNTEREXAMPLE

from _util import (
    random_complex_matrix,
    random_skew_hermitian,
    random_symmetric_matrix,
    random_unitary,
    rng,
)


class TestCostAndGradient:
    def test_symmetric_input_costs_nothing(self):
        s = random_symmetric_matrix(rng(90), 4)
        assert symmetry_cost(s, np.eye(4, dtype=complex)) < 1e-24

    def test_gradient_matches_finite_differences(self):
        gen = rng(91)
        for _ in range(20):
            t = random_complex_matrix(gen, 4, scale=2.0)
            u = random_unitary(gen, 4)
            k = random_skew_hermitian(gen, 4)
            g = cost_gradient(t, u)
            analytic = float(np.real(np.trace(g @ k.conj().T)))
            eps = 1e-6
            fd = (
                symmetry_cost(t, cayley_retract(eps * k, u))
                - symmetry_cost(t, cayley_retract(-eps * k, u))
            ) / (2 * eps)
            assert analytic == pytest.approx(fd, rel=1e-5)

    def test_gradient_is_skew(self):
        gen = rng(92)
        t = random_complex_matrix(gen, 4)
        u = random_unitary(gen, 4)
        g = cost_gradient(t, u)
        assert np.allclose(g, -g.conj().T, atol=1e-12)

    def test_cost_depends_only_on_conjugated_matrix(self):
        # replacing T by W T W* and U by U W* leaves the cost unchanged
        gen = rng(93)
        t = random_complex_matrix(gen, 4)
        u = random_unitary(gen, 4)
        w = random_unitary(gen, 4)
        a = symmetry_cost(t, u)
        b = symmetry_cost(w @ t @ w.conj().T, u @ w.conj().T)
        assert abs(a - b) < 1e-10 * max(1.0, a)

    def test_retraction_stays_unitary(self):
        gen = rng(94)
        u = np.eye(4, dtype=complex)
        for _ in range(50):
            u = cayley_retract(0.3 * random_skew_hermitian(gen, 4), u)
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-12


class TestFindSymmetrizer:
    def test_symmetric_input_immediate_witness(self):
        s = random_symmetric_matrix(rng(95), 4)
        result = find_symmetrizer(s)
        assert result.found
        assert result.restarts_used == 1
        assert result.residual < 1e-12
        assert np.allclose(result.u, np.eye(4))

    def test_shift_example(self):
        result = find_symmetrizer(SCALAR_PLUS_SHIFT_22)
        assert result.found
        assert result.residual < 1e-6
        assert result.restarts_used <= 20
        assert verify_witness(SCALAR_PLUS_SHIFT_22, result.u).passed
        assert np.linalg.norm(result.u.conj().T @ result.u - np.eye(4)) <= 1e-9

    def test_hidden_symmetric_conjugates(self):
        gen = rng(96)
        for _ in range(5):
            w = random_unitary(gen, 4)
            t = w @ random_symmetric_matrix(gen, 4) @ w.conj().T
            result = find_symmetrizer(t)
            assert result.found
            assert verify_witness(t, result.u).passed

    def test_counterexample_inconclusive(self):
        result = find_symmetrizer(WAT_COUNTEREXAMPLE, restarts=50)
        assert result.status == "inconclusive"
        assert result.u is None
        assert result.restarts_used == 50
        # observed floor, recorded rather than asserted tightly
        assert result.residual > 1e-3
        print(f"observed non-symmetrizable residual floor: {result.residual:.4f}")

    def test_random_uecsm_matrices_get_witnesses(self):
        # empirical target: witnesses within 20 restarts across 100 matrices
        gen = rng(990)
        for i in range(100):
            n = 3 if i % 2 == 0 else 4
            w = random_unitary(gen, n)
            t = w @ random_symmetric_matrix(gen, n) @ w.conj().T
            result = find_symmetrizer(t)
            assert result.found, (i, result.residual)
            assert result.restarts_used <= 20

    def test_shift_does_not_fake_a_witness(self):
        # |T + 1e6 I|_F is about 2e6, so a residual measured against it
        # passes 1e-6 on the counterexample; the shift-free norm does not
        shifted = WAT_COUNTEREXAMPLE + 1e6 * np.eye(4)
        result = find_symmetrizer(shifted, restarts=2)
        assert result.status == "inconclusive"
        assert result.residual > 1e-3

    def test_residual_ignores_shift(self):
        u = random_unitary(rng(99), 4)
        base = symmetry_residual(WAT_COUNTEREXAMPLE, u)
        shifted = symmetry_residual(WAT_COUNTEREXAMPLE + 1e3j * np.eye(4), u)
        assert shifted == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    def test_search_is_scale_free(self, scale):
        # the search runs on the normalized matrix: no underflow to a false
        # witness at 1e-170, no overflow at 1e170
        result = find_symmetrizer(scale * WAT_COUNTEREXAMPLE, restarts=2)
        assert result.status == "inconclusive"
        assert result.residual == pytest.approx(0.1291630315, rel=1e-6)
        w = random_unitary(rng(97), 4)
        t = scale * (w @ random_symmetric_matrix(rng(98), 4) @ w.conj().T)
        result = find_symmetrizer(t)
        assert result.found
        assert verify_witness(t, result.u).passed

    def test_scalar_matrix_is_a_witness(self):
        result = find_symmetrizer((2 - 1j) * np.eye(3, dtype=complex))
        assert result.found
        assert result.residual == 0.0

    def test_cost_guard(self):
        with pytest.raises(CostGuard):
            find_symmetrizer(np.eye(7, dtype=complex))

    def test_deterministic(self):
        a = find_symmetrizer(WAT_COUNTEREXAMPLE, restarts=3, seed=5)
        b = find_symmetrizer(WAT_COUNTEREXAMPLE, restarts=3, seed=5)
        assert a.residual == b.residual
        assert a.iterations == b.iterations


class TestVerifyWitness:
    def test_identity_on_symmetric(self):
        s = random_symmetric_matrix(rng(97), 3)
        assert verify_witness(s, np.eye(3, dtype=complex)).passed

    def test_non_unitary_rejected(self):
        s = random_symmetric_matrix(rng(98), 3)
        bad = 2.0 * np.eye(3, dtype=complex)
        v = verify_witness(s, bad)
        assert not v.passed
        assert dict(v.residuals)["unitarity"] > 0.5

    def test_case6_analytic_witness(self):
        p = NilpotentParams(3, 1 + 2j, 2 - 1j, 1 + 1j, 1j * (1 + 2j), 3j)
        t = build_matrix(p)
        u = symmetrizing_witness(p)
        v = verify_witness(t, u, tol=1e-10)
        assert v.passed
        assert symmetry_residual(t, u) < 1e-12
