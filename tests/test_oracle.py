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
        # the second stage alone finds a witness too
        result = _second_stage(s)
        assert result.found
        assert (result.restarts_used, result.iterations) == (1, 0)
        assert result.residual < 1e-12
        assert verify_witness(s, result.u).passed

    def test_shift_example(self):
        result = find_symmetrizer(SCALAR_PLUS_SHIFT_22)
        assert result.found
        assert result.residual < 1e-6
        assert result.restarts_used <= 1
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
        # beside a zero block, the counterexample's symmetric intertwiners
        # vanish on its own block, so every one of them is singular: the
        # second stage finds no witness and cannot refute.  Alone, the
        # counterexample is refuted by either stage.
        t = np.zeros((6, 6), dtype=complex)
        t[:4, :4] = WAT_COUNTEREXAMPLE
        result = find_symmetrizer(t)
        assert result.status == "inconclusive"
        assert result.u is None
        assert result.restarts_used == 1
        # observed defect, recorded rather than asserted tightly
        assert result.residual > 1e-3
        print(f"observed candidate defect: {result.residual:.4f}")
        assert _second_stage(WAT_COUNTEREXAMPLE).status == "refuted"
        assert find_symmetrizer(WAT_COUNTEREXAMPLE).status == "refuted"

    def test_random_uecsm_matrices_get_witnesses(self):
        # empirical target: witnesses from one start across 100 matrices
        gen = rng(990)
        for i in range(100):
            n = 3 if i % 2 == 0 else 4
            w = random_unitary(gen, n)
            t = w @ random_symmetric_matrix(gen, n) @ w.conj().T
            result = find_symmetrizer(t)
            assert result.found, (i, result.residual)
            assert result.restarts_used <= 1

    def test_shift_does_not_fake_a_witness(self):
        # |T + 1e6 I|_F is about 2e6, so a residual measured against it
        # passes 1e-6 on the counterexample; the shift-free norm does not
        shifted = WAT_COUNTEREXAMPLE + 1e6 * np.eye(4)
        result = _second_stage(shifted)
        assert result.status == "refuted"
        assert result.residual > 1e-3
        assert find_symmetrizer(shifted).status == "refuted"

    def test_residual_ignores_shift(self):
        u = random_unitary(rng(99), 4)
        base = symmetry_residual(WAT_COUNTEREXAMPLE, u)
        shifted = symmetry_residual(WAT_COUNTEREXAMPLE + 1e3j * np.eye(4), u)
        assert shifted == pytest.approx(base, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e170])
    def test_search_is_scale_free(self, scale):
        # the oracle runs on the normalized matrix: no underflow to a false
        # witness at 1e-170, no overflow at 1e170
        result = _second_stage(scale * WAT_COUNTEREXAMPLE)
        assert result.status == "refuted"
        assert result.residual == pytest.approx(0.1291641622, rel=1e-6)
        assert find_symmetrizer(scale * WAT_COUNTEREXAMPLE).status == "refuted"
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

    def test_deterministic(self):
        # two calls are equal: a closed-form refutation, and a second-stage witness
        q = random_unitary(rng(103), 3)
        normal = q @ np.diag([1.0, 1.0, 2.0]).astype(complex) @ q.conj().T
        for t in (WAT_COUNTEREXAMPLE, normal):
            a, b = find_symmetrizer(t), find_symmetrizer(t)
            assert dataclasses.replace(a, u=None) == dataclasses.replace(b, u=None)
            assert (a.u is None and b.u is None) or np.array_equal(a.u, b.u)


def _second_stage(t):
    """The symmetric-intertwiner stage of :func:`find_symmetrizer` alone, without the closed form."""
    return oracle._intertwiner(normalize(t)[0])


def _c11_fixture(seed):
    return conjugated_diagonal(random_su(Signature(3, 4), seed=seed), [-1.0, 0.0, 1.0, 2.0])


def _closed_form(t):
    """The decision of the closed-form stage, None where it declines."""
    return oracle._closed_form(normalize(t)[0])


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


def _repeated_hermitian_inputs():
    """UECSM inputs on which every Re(cT) has a repeated eigenvalue, as ``(name, T)``.

    A normal ``Q diag(1, 1, 2) Q*``; seeded normal ``Q diag(a, a, b) Q*``
    and ``Q diag(a, a, b, c) Q*`` and ``Q (S + lam I_2) Q*`` (``S`` a 2 x 2
    complex symmetric block, ``lam I_2`` the other), complex Gaussian
    entries; and a J-symmetric ``(A + J A^t J*) / 2``, ``J = [[0, I_2],
    [-I_2, 0]]``, whose eigenvalues are all doubled, conjugated and
    shifted.  ``Q`` is the unitary of :func:`random_unitary`.
    """
    q = random_unitary(rng(103), 3)
    yield "diag(1,1,2)", q @ np.diag([1.0, 1.0, 2.0]).astype(complex) @ q.conj().T
    gen = rng(44)
    for k in range(3):
        a, b, c, lam = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        s = np.zeros((4, 4), dtype=complex)
        s[:2, :2] = random_symmetric_matrix(gen, 2)
        s[2:, 2:] = lam * np.eye(2)
        for name, d in (("diag(a,a,b)", np.diag([a, a, b])), ("diag(a,a,b,c)", np.diag([a, a, b, c])), ("S+lam", s)):
            q = random_unitary(gen, len(d))
            yield f"{name}-{k}", q @ d @ q.conj().T
    j = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    for k in range(3):
        a = random_complex_matrix(gen, 4)
        q = random_unitary(gen, 4)
        shift = gen.standard_normal() + 1j * gen.standard_normal()
        yield f"J-symmetric-{k}", q @ (0.5 * (a + j @ a.T @ j.T)) @ q.conj().T + shift * np.eye(4)


def _real_inputs():
    """Real 4 x 4 UECSM inputs, times a phase, on which the closed form declines, as ``(name, T)``.

    A J-symmetric integer matrix, ``J`` as in :func:`_repeated_hermitian_inputs`,
    conjugated by a real orthogonal ``Q`` and shifted; a normal ``Q (R + R) Q^t``
    with ``R`` a rotation; and ``e^{0.7 i} Q (G + 1.5 I_2) Q^t`` with ``G`` a
    real Gaussian 2 x 2 block.  From ``numpy.random.default_rng(105)``.
    """
    gen = rng(105)
    q = np.linalg.qr(gen.standard_normal((4, 4)))[0]  # real orthogonal
    j = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    a = gen.integers(-2, 3, size=(4, 4)).astype(float)
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    block = np.zeros((4, 4))
    block[:2, :2], block[2:, 2:] = gen.standard_normal((2, 2)), 1.5 * np.eye(2)
    yield "J-symmetric", (q @ (0.5 * (a + j @ a.T @ j.T)) @ q.T + 2 * np.eye(4)).astype(complex)
    yield "normal", (q @ np.kron(np.eye(2), rotation) @ q.T).astype(complex)
    yield "block-phase", np.exp(0.7j) * (q @ block @ q.T)


class TestClosedForm:
    """The Cartesian criterion that runs ahead of the second stage."""

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
        assert find_symmetrizer(t) == result

    @pytest.mark.parametrize("seed, n", [(9, 3), (2, 4), (0, 5)])
    def test_band_inputs_fall_through_to_the_second_stage(self, seed, n):
        # the candidate misses witness_tol but not by enough to refute,
        # and the second stage, as it runs alone, finds a witness
        t = _near_uecsm(seed, n, -6.0)
        assert _closed_form(t) is None and _widest_gap(t) > oracle._GAP_MIN
        result = find_symmetrizer(t)
        reference = _second_stage(t)
        assert result.found and result.restarts_used == 1
        assert verify_witness(t, result.u).passed
        assert dataclasses.replace(result, u=None) == dataclasses.replace(reference, u=None)
        assert np.array_equal(result.u, reference.u)

    def test_repeated_hermitian_parts_decline(self):
        # every Re(cT) has a repeated eigenvalue, so the closed form has no
        # candidate, and the second stage finds the witness
        for name, t in _repeated_hermitian_inputs():
            assert _closed_form(t) is None and _widest_gap(t) <= oracle._GAP_MIN, name
            result = find_symmetrizer(t)
            assert result.found and result.restarts_used == 1, name
            assert verify_witness(t, result.u).passed, name
            reference = _second_stage(t)
            assert dataclasses.replace(result, u=None) == dataclasses.replace(reference, u=None), name
            assert np.array_equal(result.u, reference.u), name

    def test_real_inputs_leave_the_identity(self):
        # the identity is a critical point of the symmetry defect for every
        # real matrix times a phase, so a descent from it stops at once; the
        # second stage starts nowhere, and its candidate is a witness
        for name, t in _real_inputs():
            assert _closed_form(t) is None, name
            result = find_symmetrizer(t)
            assert result.found and (result.restarts_used, result.iterations) == (1, 0), name
            assert verify_witness(t, result.u).passed, name
            assert not np.allclose(result.u, result.u[0, 0] * np.eye(4)), name
            reference = _second_stage(t)
            assert result.residual == reference.residual and np.array_equal(result.u, reference.u), name

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
    # inputs in the band, where the second stage finds a witness that the
    # closed-form candidate misses
    @example(9, 3, -6.0)
    @example(2, 4, -6.0)
    @example(0, 5, -6.0)
    def test_no_refutation_where_the_second_stage_finds_a_witness(self, seed, n, log_eps):
        # either stage alone gives no verdict the other contradicts
        t = _near_uecsm(seed, n, log_eps)
        statuses = {_second_stage(t).status, find_symmetrizer(t).status}
        assert statuses != {"witness", "refuted"}

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
        assert base.status != "inconclusive"  # the closed form or the second stage decides
        for name, image in images.items():
            assert find_symmetrizer(image).status == base.status, name


def test_second_stage_alone_finds_the_c11_witnesses():
    # the c11 fixtures get closed-form witnesses, so the second stage
    # keeps its own cross-validation here
    fixtures = [_c11_fixture(400 + k) for k in range(5)]
    fixtures += [
        conjugated_diagonal(random_su(Signature(2, 3), seed=500 + k), [-1.0, 0.5, 2.0]) for k in range(5)
    ]
    for t in fixtures:
        result = _second_stage(t)
        assert result.found and result.restarts_used == 1
        assert verify_witness(t, result.u).passed


def test_near_parallel_corpus():
    # the first 100 draws of the near-parallel-eigenvector corpus, about
    # a fifth of which the closed form leaves to the second stage; each
    # is decided, as the second stage decides every draw of the first 600
    searched = 0
    for _, t in near_parallel_inputs(100):
        result = find_symmetrizer(t)
        assert result.iterations == 0
        assert result.status != "inconclusive"
        if result.found:
            assert verify_witness(t, result.u).passed
        else:
            assert not _second_stage(t).found
        searched += result.restarts_used > 0
    assert searched >= 10


def _lower_bound(t):
    """``sqrt(n / 8) sigma_min(L_T)`` on the representative of ``t``, by a column loop.

    ``L_T: X -> (T X - X T^t, T* X - X conj(T))`` on the symmetric ``X``,
    one column per element ``e_jj`` or ``(e_jk + e_kj) / sqrt(2)`` of an
    orthonormal basis.  The value bounds the distance from the
    representative to the UECSM set from below.
    """
    rep = normalize(t)[0]
    n = rep.shape[0]
    columns = []
    for j in range(n):
        for k in range(j, n):
            x = np.zeros((n, n))
            x[j, k] = x[k, j] = 1.0 if j == k else math.sqrt(0.5)
            images = (rep @ x - x @ rep.T, rep.conj().T @ x - x @ rep.conj())
            columns.append(np.concatenate([image.ravel() for image in images]))
    return math.sqrt(n / 8) * np.linalg.svd(np.column_stack(columns), compute_uv=False)[-1]


def _zero_block_sums():
    """Three ``Q (G + 0_2) Q*`` at n = 5, ``G`` a complex Gaussian 3 x 3, from ``numpy.random.default_rng(5)``.

    Not UECSM, and every symmetric intertwiner is singular: it vanishes
    on the block of ``G``.
    """
    gen = rng(5)
    for k in range(3):
        t = np.zeros((5, 5), dtype=complex)
        t[:3, :3] = random_complex_matrix(gen, 3)
        q = random_unitary(gen, 5)
        yield f"G3+0-{k}", q @ t @ q.conj().T


# Rounding of sigma_min (at most 8 sqrt(2) n^2 eps, 9e-14 at n = 6) and of the
# defect, on a unit-norm representative.
_ROUNDING = 1e-13


class TestSecondStage:
    """The symmetric-intertwiner stage alone."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 6), st.one_of(st.none(), st.floats(-12, -1)))
    def test_certified_bracket(self, seed, n, log_eps):
        # T = U S U* + eps E: the lower bound l on the distance from the
        # representative to the UECSM set lies below half the candidate's
        # defect d, which a UECSM matrix within d / 2 shows, and below the
        # distance to U S U*; at eps = 0 the candidate is a witness
        gen = rng(seed)
        w = random_unitary(gen, n)
        s = random_symmetric_matrix(gen, n)
        e = random_complex_matrix(gen, n)
        if log_eps is not None:
            e *= 10.0**log_eps * np.linalg.norm(s) / np.linalg.norm(e)
        t = w @ s @ w.conj().T + (0.0 if log_eps is None else e)
        result = _second_stage(t)
        bound = _lower_bound(t)
        assert bound <= result.residual / 2 + _ROUNDING
        distance = 0.0 if log_eps is None else np.linalg.norm(e) / normalize(t)[2]
        assert bound <= distance + _ROUNDING
        if result.status == "refuted":
            assert bound > oracle.WITNESS_TOL / 2
        if log_eps is None:
            assert result.found and verify_witness(t, result.u).passed

    def test_status_is_invariant_under_symmetries(self):
        # sigma(L_T) is unchanged by cT, U T U*, T^t, T + lam I and e^{i phi} T,
        # since X -> U X U^t and X -> conj(X) are isometries of the
        # symmetric matrices; so is the status, on inputs the closed form declines
        inputs = [*_repeated_hermitian_inputs(), *_real_inputs(), *_zero_block_sums()]
        inputs += [
            (f"near-parallel-{k}", t)
            for k, (_, t) in enumerate(near_parallel_inputs(600))
            if find_symmetrizer(t).restarts_used
        ]
        statuses = set()
        gen = rng(106)
        for name, t in inputs:
            n = t.shape[0]
            u = random_unitary(gen, n)
            base = _second_stage(t)
            statuses.add(base.status)
            bound = _lower_bound(t)
            images = {
                "scale": 1e5 * (2 - 3j) * t,
                "unitary": u @ t @ u.conj().T,
                "transpose": t.T,
                "shift": t + (3 + 4j) * np.linalg.norm(t) * np.eye(n),
                "phase": cmath.exp(0.7j) * t,
            }
            for label, image in images.items():
                assert _second_stage(image).status == base.status, (name, label)
                assert _lower_bound(image) == pytest.approx(bound, rel=1e-6, abs=_ROUNDING), (name, label)
        assert statuses == {"witness", "refuted", "inconclusive"}


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
