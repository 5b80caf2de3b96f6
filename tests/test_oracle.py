"""Tests for the unitary-group symmetrizer search."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uecsm import (
    CostGuard,
    DimensionMismatch,
    NilpotentParams,
    Signature,
    build_matrix,
    cayley_retract,
    conjugated_diagonal,
    find_symmetrizer,
    normalize,
    random_su,
    symmetrizing_witness,
    symmetry_cost,
    symmetry_residual,
    verify_witness,
)
from uecsm import oracle
from uecsm.gallery import GALLERY, SCALAR_PLUS_SHIFT_22, WAT_COUNTEREXAMPLE

from _util import (
    near_parallel_inputs,
    phase_probe_inputs,
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

    def test_lm_jacobian_matches_finite_differences(self):
        # the LM residual r(U) and its Jacobian along exp(K) U, with
        # K = sum_a x_a E_a; J^t r gives the Riemannian gradient's
        # coordinates in the same basis, since d|r|^2 = 2 r^t J x
        gen = rng(104)
        for n in (3, 4, 6):
            basis = oracle._skew_basis(n)
            for _ in range(5):
                t = random_complex_matrix(gen, n, scale=2.0)
                u = random_unitary(gen, n)
                x = gen.standard_normal(n * n)
                lam, v = np.linalg.eigh(-1j * np.tensordot(x, basis, 1))
                eps = 1e-6

                def moved(step):  # exp(step K) U
                    return (v * np.exp(1j * step * lam)) @ v.conj().T @ u

                def residual(step):
                    return oracle._upper(oracle._evaluate(t, moved(step))[1])

                s, g, cost = oracle._evaluate(t, u)
                jac = oracle._jacobian(s)
                fd = (residual(eps) - residual(-eps)) / (2 * eps)
                assert np.allclose(jac.T @ x, fd, rtol=0, atol=1e-8 * np.linalg.norm(fd))
                r = oracle._upper(g)
                assert np.linalg.norm(r) ** 2 == pytest.approx(cost, rel=1e-12)
                cost_fd = (symmetry_cost(t, moved(eps)) - symmetry_cost(t, moved(-eps))) / (2 * eps)
                assert 2 * (jac @ r) @ x == pytest.approx(cost_fd, rel=1e-5)

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
        assert (result.restarts_used, result.iterations) == (0, 0)
        assert result.residual < 1e-12
        assert verify_witness(s, result.u).passed
        # the LM search alone takes the identity start, with no step
        result = _lm_search(s, restarts=20)
        assert result.found
        assert (result.restarts_used, result.iterations) == (1, 0)
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
        # the LM search alone can only give up; the closed form refutes
        result = _lm_search(WAT_COUNTEREXAMPLE, restarts=50)
        assert result.status == "inconclusive"
        assert result.u is None
        assert result.restarts_used == 50
        # observed floor, recorded rather than asserted tightly
        assert result.residual > 1e-3
        print(f"observed non-symmetrizable residual floor: {result.residual:.4f}")
        assert find_symmetrizer(WAT_COUNTEREXAMPLE, restarts=50).status == "refuted"

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
        result = _lm_search(shifted, restarts=2)
        assert result.status == "inconclusive"
        assert result.residual > 1e-3
        assert find_symmetrizer(shifted, restarts=2).status == "refuted"

    def test_residual_ignores_shift(self):
        u = random_unitary(rng(99), 4)
        base = symmetry_residual(WAT_COUNTEREXAMPLE, u)
        shifted = symmetry_residual(WAT_COUNTEREXAMPLE + 1e3j * np.eye(4), u)
        assert shifted == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    def test_search_is_scale_free(self, scale):
        # the search runs on the normalized matrix: no underflow to a false
        # witness at 1e-170, no overflow at 1e170
        result = _lm_search(scale * WAT_COUNTEREXAMPLE, restarts=2)
        assert result.status == "inconclusive"
        assert result.residual == pytest.approx(0.1291630315, rel=1e-6)
        assert find_symmetrizer(scale * WAT_COUNTEREXAMPLE, restarts=2).status == "refuted"
        w = random_unitary(rng(97), 4)
        t = scale * (w @ random_symmetric_matrix(rng(98), 4) @ w.conj().T)
        result = find_symmetrizer(t)
        assert result.found
        assert verify_witness(t, result.u).passed

    def test_scalar_matrix_is_a_witness(self):
        result = find_symmetrizer((2 - 1j) * np.eye(3, dtype=complex))
        assert result.found
        assert result.residual == 0.0
        # no restart runs, as for the closed-form witness
        assert (result.restarts_used, result.iterations) == (0, 0)

    def test_cost_guard(self):
        with pytest.raises(CostGuard):
            find_symmetrizer(np.eye(7, dtype=complex))

    def test_no_restart_is_refused(self):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            find_symmetrizer(WAT_COUNTEREXAMPLE, restarts=0)

    def test_deterministic(self):
        a = find_symmetrizer(WAT_COUNTEREXAMPLE, restarts=3, seed=5)
        b = find_symmetrizer(WAT_COUNTEREXAMPLE, restarts=3, seed=5)
        assert a.residual == b.residual
        assert a.iterations == b.iterations


def _lm_search(t, restarts, seed=0, start=None):
    """The Levenberg-Marquardt search of :func:`find_symmetrizer` alone, without the closed form.

    Start 0 is ``start`` (the identity when None), as the search takes it
    from the closed-form stage.
    """
    rep = normalize(t)[0]
    if start is None:
        start = np.eye(t.shape[0], dtype=complex)
    return oracle._search(rep, start, restarts, oracle.WITNESS_TOL, seed)


def _c11_fixture(seed):
    return conjugated_diagonal(random_su(Signature(3, 4), seed=seed), [-1.0, 0.0, 1.0, 2.0])


class TestLmStarts:
    def test_huge_budget_with_a_first_restart_witness(self):
        s = random_symmetric_matrix(rng(101), 4)
        result = find_symmetrizer(s, restarts=10**6)
        assert result.found
        assert (result.restarts_used, result.iterations) == (0, 0)
        result = _lm_search(s, restarts=10**6)
        assert result.found
        assert result.restarts_used == 1

    def test_waves_are_bounded_and_drawn_when_run(self, monkeypatch):
        # each random start is drawn just before its own LM run
        events = []
        solve, draw = oracle._levenberg_marquardt, oracle._random_unitary

        def spy_solve(*args):
            events.append("lm")
            return solve(*args)

        def spy_draw(gen, n):
            events.append("draw")
            return draw(gen, n)

        monkeypatch.setattr(oracle, "_levenberg_marquardt", spy_solve)
        monkeypatch.setattr(oracle, "_random_unitary", spy_draw)
        result = _lm_search(WAT_COUNTEREXAMPLE, restarts=5)
        assert result.restarts_used == 5
        assert events == ["lm"] + ["draw", "lm"] * 4
        # the closed-form refutation draws nothing and runs no LM step
        del events[:]
        result = find_symmetrizer(WAT_COUNTEREXAMPLE, restarts=5)
        assert result.status == "refuted"
        assert events == []


def _closed_form(t):
    """The decision of the closed-form stage, None where it declines."""
    return oracle._closed_form(normalize(t)[0], oracle.WITNESS_TOL)[0]


def _widest_gap(t):
    """The widest smallest eigenvalue gap of Re(cT) on the representative."""
    rep = normalize(t)[0]
    turned = oracle._turned_phases(rep)[:, None, None] * rep
    herm = 0.5 * (turned + turned.conj().swapaxes(-1, -2))
    return np.diff(np.linalg.eigvalsh(herm), axis=-1).min(axis=-1).max()


def _near_uecsm(seed, n, log_eps):
    """U S U* plus a Gaussian matrix of relative size 10**log_eps."""
    gen = rng(seed)
    w = random_unitary(gen, n)
    s = random_symmetric_matrix(gen, n)
    e = random_complex_matrix(gen, n)
    return w @ s @ w.conj().T + 10.0**log_eps * np.linalg.norm(s) / np.linalg.norm(e) * e


class TestClosedForm:
    """The Cartesian criterion that runs ahead of the LM search."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(3, 6),
        st.floats(-150, 150),
        st.floats(0, 2 * math.pi),
        st.floats(-6, 6),
        st.floats(0, 2 * math.pi),
    )
    def test_built_uecsm_inputs_get_closed_form_witnesses(self, seed, n, exponent, theta, shift_exponent, phi):
        gen = rng(seed)
        w = random_unitary(gen, n)
        t = w @ random_symmetric_matrix(gen, n) @ w.conj().T
        images = {
            "base": t,
            "scale": 10.0**exponent * cmath.exp(1j * theta) * t,
            "shift": t + 10.0**shift_exponent * cmath.exp(1j * theta) * np.eye(n),
            "phase": cmath.exp(1j * phi) * t,
        }
        for name, image in images.items():
            result = find_symmetrizer(image)
            assert result.found, name
            assert (result.restarts_used, result.iterations) == (0, 0), name
            assert verify_witness(image, result.u).passed, name

    def test_direct_sum_with_zero_coupling(self):
        # B' splits into blocks, so the spanning tree crosses an exact zero
        gen = rng(102)
        w = random_unitary(gen, 5)
        s = np.zeros((5, 5), dtype=complex)
        s[:2, :2] = random_symmetric_matrix(gen, 2)
        s[2:, 2:] = random_symmetric_matrix(gen, 3)
        t = w @ s @ w.conj().T
        result = find_symmetrizer(t)
        assert result.found and result.restarts_used == 0
        assert verify_witness(t, result.u).passed

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_gaussian_inputs_are_refuted(self, n):
        t = random_complex_matrix(rng(110 + n), n)
        result = _closed_form(t)
        assert result.status == "refuted" and result.u is None
        assert (result.iterations, result.restarts_used) == (0, 0)
        assert result.residual > 1e3 * oracle.WITNESS_TOL
        assert find_symmetrizer(t, restarts=3) == result

    @pytest.mark.parametrize("seed, n", [(9, 3), (2, 4), (0, 5)])
    def test_band_inputs_fall_through_to_the_lm_search(self, seed, n):
        # the candidate misses witness_tol but not by enough to refute,
        # and the LM search, which then runs from it as it would alone,
        # finds a witness
        t = _near_uecsm(seed, n, -6.0)
        decision, candidate = oracle._closed_form(normalize(t)[0], oracle.WITNESS_TOL)
        assert decision is None and candidate is not None and _widest_gap(t) > oracle._GAP_MIN
        result = find_symmetrizer(t, restarts=3)
        reference = _lm_search(t, restarts=3, start=candidate)
        assert result.found and result.restarts_used >= 1
        assert dataclasses.replace(result, u=None) == dataclasses.replace(reference, u=None)
        assert np.array_equal(result.u, reference.u)

    def test_repeated_hermitian_parts_decline(self):
        # a normal matrix: every Re(cT) is a multiple of Q diag(1, 1, 2) Q*
        # or of the zero matrix, so each has a repeated eigenvalue, and
        # the LM search starts from the identity
        q = random_unitary(rng(103), 3)
        t = q @ np.diag([1.0, 1.0, 2.0]).astype(complex) @ q.conj().T
        assert oracle._closed_form(normalize(t)[0], oracle.WITNESS_TOL) == (None, None)
        result = find_symmetrizer(t)
        assert result.found and result.restarts_used >= 1
        assert verify_witness(t, result.u).passed
        reference = _lm_search(t, restarts=20)
        assert dataclasses.replace(result, u=None) == dataclasses.replace(reference, u=None)
        assert np.array_equal(result.u, reference.u)

    @pytest.mark.parametrize("label", sorted(GALLERY))
    def test_gallery(self, label):
        matrix, expected = GALLERY[label]
        result = _closed_form(matrix)
        assert result.status == ("witness" if expected else "refuted")
        assert (result.iterations, result.restarts_used) == (0, 0)
        if expected:
            assert verify_witness(matrix, result.u).passed
            assert find_symmetrizer(matrix).restarts_used == 0
        else:
            assert result.u is None
            assert find_symmetrizer(matrix) == result

    @pytest.mark.parametrize("seed", [1018, 1028, 1035])
    def test_long_valley_inputs(self, seed):
        # the gradient descent that preceded the LM search ran every
        # restart to its iteration cap on these and ended inconclusive
        t = _c11_fixture(seed)
        result = find_symmetrizer(t)
        assert result.found
        assert (result.restarts_used, result.iterations) == (0, 0)
        assert verify_witness(t, result.u).passed


# (exponent, theta) of the scale 10**exponent e^{i theta} = 2 - 3i
_SCALE_2_MINUS_3I = (math.log10(abs(2 - 3j)), cmath.phase(2 - 3j) % (2 * math.pi))


class TestRefutationIsSound:
    """A refutation stands only where no unitary reaches witness_tol."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 6), st.floats(-9, -4))
    # inputs in the band, where the LM search finds a witness that the
    # closed-form candidate misses
    @example(9, 3, -6.0)
    @example(2, 4, -6.0)
    @example(0, 5, -6.0)
    def test_no_refutation_where_the_lm_search_finds_a_witness(self, seed, n, log_eps):
        t = _near_uecsm(seed, n, log_eps)
        if _lm_search(t, restarts=4).found:
            assert find_symmetrizer(t, restarts=4).status != "refuted"

    # The explicit examples are the inputs of the seed-777 phase probe
    # (tests/_util.phase_probe_inputs) whose status changed under
    # e^{i phi} T or (2 - 3i) T + 5I while the stage used a fixed phase
    # set; "scale" is (2 - 3i) T here.  Derandomized, as the status of an
    # input whose defect sits within rounding of the threshold is not pinned.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([3, 4]),
        st.floats(-150, 150),
        st.floats(0, 2 * math.pi),
        st.floats(-6, 6),
        st.floats(0, 2 * math.pi),
        st.none(),
    )
    @example(0, 3, *_SCALE_2_MINUS_3I, 0.0, None, 1066)
    @example(0, 3, *_SCALE_2_MINUS_3I, 0.0, None, 2863)
    @example(0, 3, *_SCALE_2_MINUS_3I, 0.0, None, 4308)
    @example(0, 3, *_SCALE_2_MINUS_3I, 0.0, None, 6649)
    @example(0, 3, *_SCALE_2_MINUS_3I, 0.0, None, 14377)
    @example(0, 3, *_SCALE_2_MINUS_3I, 0.0, None, 16539)
    @example(0, 3, *_SCALE_2_MINUS_3I, 0.0, None, 18553)
    def test_refutation_is_invariant_under_symmetries(self, seed, n, exponent, theta, shift_exponent, phi, probe):
        if probe is None:
            gen = rng(seed)
            t = random_complex_matrix(gen, n)
            u = random_unitary(gen, n)
        else:
            # input ``probe`` of the phase probe, with its own phi and Q
            t, phi, u = phase_probe_inputs()[probe]
        images = {
            "base": t,
            "scale": 10.0**exponent * cmath.exp(1j * theta) * t,
            "unitary": u @ t @ u.conj().T,
            "transpose": t.T,
            "shift": t + 10.0**shift_exponent * np.linalg.norm(t) * cmath.exp(1j * phi) * np.eye(n),
            "phase": cmath.exp(1j * phi) * t,
        }
        base = find_symmetrizer(t)
        for name, image in images.items():
            result = find_symmetrizer(image)
            assert result.status == base.status, name
            if result.status == "refuted":
                assert (result.restarts_used, result.iterations) == (0, 0), name


def test_lm_search_alone_finds_the_c11_witnesses():
    # the c11 fixtures get closed-form witnesses, so the LM search from
    # the identity keeps its own cross-validation here
    fixtures = [_c11_fixture(400 + k) for k in range(5)]
    fixtures += [
        conjugated_diagonal(random_su(Signature(2, 3), seed=500 + k), [-1.0, 0.5, 2.0]) for k in range(5)
    ]
    for t in fixtures:
        result = _lm_search(t, restarts=20)
        assert result.found and result.restarts_used >= 1
        assert verify_witness(t, result.u).passed


def test_near_parallel_corpus():
    # the first 100 draws of the near-parallel-eigenvector corpus, about
    # a fifth of which the closed form leaves to the LM search
    searched = 0
    for _, t in near_parallel_inputs(100):
        result = find_symmetrizer(t, restarts=4)
        assert result.iterations <= result.restarts_used * oracle._LM_STEPS
        if result.found:
            assert verify_witness(t, result.u).passed
        elif result.status == "refuted":
            assert not _lm_search(t, restarts=4).found
        searched += result.restarts_used > 0
    assert searched >= 10


class TestVerifyWitness:
    def test_identity_on_symmetric(self):
        s = random_symmetric_matrix(rng(97), 3)
        assert verify_witness(s, np.eye(3, dtype=complex)).passed

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_witness(np.eye(3, dtype=complex), np.eye(4, dtype=complex))

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
