"""Witness search: symmetrize a matrix over the unitary group.

A closed-form stage runs first.  It is the Cartesian criterion of
Tener, "Unitary equivalence to a complex symmetric matrix: an algorithm"
(JMAA 2008), which rests on Garcia-Putinar (TAMS 2006): T is UECSM
exactly when CTC = T* for some conjugation C, that is, when one unitary
makes both Hermitian parts of T real symmetric.  If Re(cT) has a simple
spectrum for one of eight phases c, one ``eigh`` of it and phases
solved along a maximum spanning tree give the candidate.  The eight
phases are turned by a phase invariant of T, so the stage's outcome does
not depend on the phase of the input.  The stage decides both ways: a
candidate within the witness tolerance ``WITNESS_TOL`` is a witness,
and one that misses it by more than rounding and eigenbasis error allow
is a refutation, status ``refuted``: then no conjugation exists, and no
unitary reaches the tolerance.  Both are reported with
``restarts_used = 0`` and ``iterations = 0``.  The stage declines when
every Re(cT) has a repeated eigenvalue, or when the candidate's miss
lies in the band between the two.

When it declines, a Levenberg-Marquardt search runs (Levenberg 1944,
Marquardt 1963).  |U T U* - (U T U*)^t|_F^2 is a nonlinear least-squares
cost with n(n-1) real residuals in n^2 real coordinates of u(n), and each
step moves U by the exponential of a skew-Hermitian K (the retraction
form of Absil-Mahony-Sepulchre 2008).  Its starts are fixed: the
closed-form candidate in the band; below the gap threshold the identity
and, only when that start fails, one fixed unitary with no real
structure (:func:`_second_start`), since the identity is a critical
point of the cost for every real matrix times a phase.  No step calls
:func:`cayley_retract`, the Cayley retraction ``(I - K/2)^{-1} (I + K/2) U``,
which is one ``solve``.

A small enough final residual yields a constructive witness that T is
UECSM; a floor above the tolerance is only evidence in the other
direction, never a proof, so the search's failure status is
``inconclusive``.  Only the closed-form stage says ``refuted``.  No
part of the search is random: its result depends only on the matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import CostGuard
from .matcore import EPS, CMatrix, _identity, _require_finite, _require_pair, _require_square, adjoint, normalize
from .tracetests import Verdict

# The symmetry defect, on the unit-norm representative, within which a
# unitary is a witness.
WITNESS_TOL = 1e-6
_MAX_DIM = 6
# Cap on the Levenberg-Marquardt steps of one start.
_LM_STEPS = 200
# Phases c = e^{i pi k / 8} of the closed-form stage: one of them gives
# Re(cT) a simple spectrum unless every Hermitian part of T has a
# repeated eigenvalue.  Re(-cT) = -Re(cT), so half a turn covers them all.
_PHASES = np.exp(1j * np.pi * np.arange(8) / 8)
# Below this modulus, on the unit-norm representative, a phase invariant
# is too small to fix the turn of _PHASES.
_PHASE_MIN = 1e-3
# Smallest eigenvalue gap of Re(cT), on the unit-norm representative,
# for which the closed-form stage trusts the eigenbasis.
_GAP_MIN = 1e-8
# Margin of the closed-form refutation over (WITNESS_TOL + eps) / gap;
# _closed_form derives it.
_REFUTE_K = 128.0


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the search; ``u`` is populated only for a witness."""

    status: str  # "witness" | "refuted" (closed form) | "inconclusive"
    u: Optional[CMatrix]
    residual: float
    iterations: int
    restarts_used: int  # Levenberg-Marquardt starts run: 0, 1 or 2

    @property
    def found(self) -> bool:
        return self.status == "witness"


def _evaluate(t: CMatrix, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """S = U T U*, its asymmetry G = S - S^t and the cost |G|_F^2."""
    s = u @ t @ u.conj().T
    g = s - s.T
    return s, g, float(np.vdot(g, g).real)


def _residual(cost: float) -> float:
    return math.sqrt(max(cost, 0.0))


def symmetry_cost(t: CMatrix, u: CMatrix) -> float:
    """f(U) = |U T U* - (U T U*)^t|_F^2.

    ``t`` and ``u`` must be square matrices of one shape, else
    :class:`DimensionMismatch`; a NaN or inf entry raises ``ValueError``.
    """
    _require_pair(t, u)
    _require_finite(t, u)
    return _evaluate(t, u)[2]


def symmetry_residual(t: CMatrix, u: CMatrix) -> float:
    """Normalized defect |UTU* - (UTU*)^t|_F / |T - mu I|_F, mu = tr T / n.

    The defect is unchanged by a shift T + bI, so it is the defect of
    the representative ``(T - mu I) / |T - mu I|_F`` of
    :func:`~uecsm.matcore.normalize`, which cannot overflow or
    underflow; a scalar matrix (all-zero representative) gives 0.
    """
    return _residual(symmetry_cost(normalize(t)[0], u))


def cayley_retract(k: CMatrix, u: CMatrix) -> CMatrix:
    """Move from ``u`` along skew-Hermitian ``k``: (I - k/2)^{-1} (I + k/2) u, by one ``solve``.

    ``k`` and ``u`` must be square matrices of one shape, else
    :class:`DimensionMismatch`; a NaN or infinite entry raises
    ``ValueError``.  The search does not call it: it stays only because the
    benchmark's tracer counts its calls, until ROADMAP item 1 removes both.
    """
    eye = _identity(_require_pair(k, u))
    _require_finite(k, u)
    return np.linalg.solve(eye - 0.5 * k, (eye + 0.5 * k) @ u)


@lru_cache(maxsize=None)
def _skew_basis(n: int) -> np.ndarray:
    """A basis E_a of u(n), the skew-Hermitian n x n matrices, as an (n^2, n, n) stack.

    The ``i e_jj``, then the ``e_jk - e_kj`` and the ``i (e_jk + e_kj)``
    for ``j < k``, in the order of ``np.triu_indices``.
    """
    j, k = np.triu_indices(n, 1)
    a = n + np.arange(j.size)
    b = a + j.size
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1j
    basis[a, j, k], basis[a, k, j] = 1.0, -1.0
    basis[b, j, k] = basis[b, k, j] = 1j
    basis.flags.writeable = False
    return basis


def _upper(m: np.ndarray) -> np.ndarray:
    """sqrt(2) times the real and imaginary parts of the strict upper triangle of ``m``.

    ``m`` is one n x n matrix or a stack of them.  For an antisymmetric
    ``m`` the vector has the Frobenius norm of ``m``.
    """
    j, k = np.triu_indices(m.shape[-1], 1)
    x = m[..., j, k]
    return np.sqrt(2.0) * np.concatenate((x.real, x.imag), axis=-1)


def _jacobian(s: np.ndarray) -> np.ndarray:
    """Jacobian of ``_upper(G)`` at ``S`` along ``exp(K) U``, ``K = sum_a x_a E_a``.

    Moving U to exp(K) U moves S by [K, S] at first order, so column
    ``a`` is ``_upper`` of ``[E_a, S] - [E_a, S]^t``.  Returned as its
    transpose, one row per basis element of :func:`_skew_basis`.
    """
    basis = _skew_basis(s.shape[0])
    c = basis @ s - s @ basis
    return _upper(c - c.swapaxes(-1, -2))


def _levenberg_marquardt(rep: CMatrix, u: np.ndarray, target_cost: float) -> tuple[np.ndarray, float, int]:
    """Minimize |G|_F^2 = |r|^2, r = ``_upper(G)``, by Levenberg-Marquardt from ``u``.

    Each step solves ``(J^t J + mu I) x = -J^t r``, with the damping
    ``mu`` a factor times the mean diagonal of ``J^t J``, and tries
    ``U <- exp(K) U``, ``K = sum_a x_a E_a``, the exponential taken from
    one ``eigh`` of ``-iK``.  A trial that does not lower the cost is
    rejected and the factor is multiplied by 4; an accepted one divides
    it by 3.  Stops once the cost is at most ``target_cost``, when an
    accepted step lowers the cost by less than 1e-10 of it, when the
    step vanishes before any damping lowers the cost, or after
    ``_LM_STEPS`` steps.  Returns the final point, its cost and the
    steps taken.
    """
    n2 = rep.shape[0] ** 2
    basis = _skew_basis(rep.shape[0])
    s, g, cost = _evaluate(rep, u)
    factor = 1e-3
    steps = 0
    while cost > target_cost and steps < _LM_STEPS:
        steps += 1
        jac = _jacobian(s)
        jtj = jac @ jac.T
        jtr = jac @ _upper(g)
        scale = np.trace(jtj) / n2
        while True:
            x = np.linalg.solve(jtj + factor * scale * np.eye(n2), -jtr)
            if np.linalg.norm(x) <= EPS:
                return u, cost, steps  # no damping lowers the cost
            lam, v = np.linalg.eigh(-1j * np.tensordot(x, basis, 1))
            u_try = (v * np.exp(1j * lam)) @ (adjoint(v) @ u)
            s_try, g_try, cost_try = _evaluate(rep, u_try)
            if cost_try < cost:
                break
            factor *= 4.0
        factor /= 3.0
        stalled = cost - cost_try <= 1e-10 * cost
        u, s, g, cost = u_try, s_try, g_try, cost_try
        if stalled:
            break
    return u, cost, steps


def _second_start(n: int) -> CMatrix:
    """The start after the identity: the Q factor of the unit-modulus matrix ``exp(i sqrt(m))``, m = 1..n^2.

    The cost is unchanged by real orthogonal U when T is real, and its
    derivative along ``i S`` (S real symmetric) vanishes at U = I, so the
    identity is a critical point for every real matrix times a phase and
    Levenberg-Marquardt cannot leave it.  This start is fixed, so the
    search stays deterministic, and its entries have no real structure.
    """
    return np.linalg.qr(np.exp(1j * np.sqrt(np.arange(1.0, n * n + 1))).reshape(n, n))[0]


def _search(rep: CMatrix, starts: tuple) -> OracleResult:
    """Levenberg-Marquardt from each of ``starts`` in turn, until one reaches ``WITNESS_TOL``.

    Returns the witness of the first start that reaches it, with
    ``restarts_used`` the starts run and ``iterations`` the steps of all
    of them, or ``inconclusive`` with the residual of the last start.
    """
    target_cost = 0.25 * WITNESS_TOL**2  # stop once safely inside
    steps = 0
    for r, start in enumerate(starts, 1):
        u, cost, used = _levenberg_marquardt(rep, start, target_cost)
        steps += used
        residual = _residual(cost)  # rep has unit norm
        if residual <= WITNESS_TOL:
            u = np.array(u)
            u.flags.writeable = False
            return OracleResult("witness", u, residual, steps, r)
    return OracleResult("inconclusive", None, residual, steps, r)


def _tree_phases(b: np.ndarray) -> np.ndarray:
    """Phases ``alpha`` making every ``e^{i(alpha_i - alpha_j)} b_ij`` real on a tree.

    The tree is a maximum spanning tree of ``|b_ij|`` (Prim's algorithm
    from vertex 0), so no phase comes from a rounding-sized entry; along
    it ``alpha_j = alpha_parent + arg b_parent,j``, which makes the tree
    entries positive.  Plain Python, since ``n <= _MAX_DIM``.
    """
    n = b.shape[0]
    weight = np.abs(b).tolist()
    angle = np.arctan2(b.imag, b.real).tolist()  # np.angle(b)
    alpha = [0.0] * n
    best = weight[0][:]  # heaviest edge from the tree to each vertex
    parent = [0] * n
    outside = list(range(1, n))
    while outside:
        j = max(outside, key=best.__getitem__)
        outside.remove(j)
        alpha[j] = alpha[parent[j]] + angle[parent[j]][j]
        for v in outside:
            if weight[j][v] > best[v]:
                best[v], parent[v] = weight[j][v], j
    return np.array(alpha)


def _turned_phases(rep: CMatrix) -> np.ndarray:
    """``_PHASES`` turned by a phase invariant of ``rep``, so ``c rep`` ignores the phase of ``rep``.

    ``z = tr(rep^2 rep*)`` turns by ``e^{i phi}`` under ``rep -> e^{i phi} rep``
    and is unchanged by ``U rep U*`` and ``rep^t``, so ``conj(z) / |z| rep``
    is the same for every phase of the input.  Where ``|z| <= _PHASE_MIN``,
    half the phase of ``tr(rep^2)``, which turns by ``e^{2 i phi}``, takes
    its place; its sign is harmless, since ``Re(-cT) = -Re(cT)``.  Where
    both are small, ``_PHASES`` is not turned.
    """
    square = rep @ rep
    z = complex(np.vdot(rep, square))  # tr(rep^2 rep*)
    if abs(z) > _PHASE_MIN:
        return _PHASES * (z.conjugate() / abs(z))
    w = complex(np.trace(square))
    if abs(w) > _PHASE_MIN:
        return _PHASES * cmath.exp(-0.5j * cmath.phase(w))
    return _PHASES


def _closed_form(rep: CMatrix) -> tuple[Optional[OracleResult], Optional[CMatrix]]:
    """The Cartesian criterion of Tener (2008): a decision, or the candidate it declines.

    ``T`` is UECSM exactly when ``CTC = T*`` for some conjugation ``C``
    (Garcia-Putinar 2006), that is, when some unitary makes both
    Hermitian parts ``A = Re T`` and ``B = Im T`` real symmetric at once.
    Such a ``C`` fixes ``A`` and ``B``.  If ``A = V D V*`` has a simple
    spectrum, ``C`` is therefore ``V diag(e^{i theta}) J V*``, and the
    unitary is ``diag(e^{i alpha}) V*`` with phases making
    ``B' = V* B V`` real; a spanning tree of ``B'`` fixes them up to
    sign.  ``T`` is turned by the phase ``c`` of :func:`_turned_phases`
    whose ``Re(cT)`` has the widest smallest eigenvalue gap ``g``.  The
    candidate is a witness when its defect is within ``WITNESS_TOL``, and
    ``refuted`` when the defect exceeds ``_REFUTE_K (WITNESS_TOL + eps) / g``.

    Returns ``(decision, None)`` when the stage decides, ``(None,
    candidate)`` when the defect lies in the band between the two, and
    ``(None, None)`` when ``g <= _GAP_MIN``, where there is no candidate.

    The refutation threshold, with ``tau = WITNESS_TOL`` on the unit-norm
    representative, in four steps:

    1. If some unitary reaches ``tau``, then ``U T U*`` lies within
       ``tau / 2`` of its symmetric part, so ``T`` lies within
       ``delta = tau / 2`` of a UECSM ``T0``, and (Re and Im being
       contractions) ``A``, ``B`` within ``delta`` of ``A0``, ``B0``.
    2. Davis-Kahan, column by column: the sines of the angles between
       the eigenvectors of ``A`` and ``A0`` have squares summing to at
       most ``(delta / (g - delta))^2``.  So ``B'`` lies within
       ``eta <= delta + 2 sqrt(2) delta / (g - delta) ~ 3 sqrt(2) delta / g``
       of a matrix ``P X P*``, ``X`` real and ``P`` diagonal unitary
       (using ``g <= sqrt(2)`` for a unit-norm ``A``).
    3. The tree entries of the candidate are real.  An off-tree entry
       ``(k, l)`` takes the phase error of the cycle it closes, and by
       the cycle property of a maximum spanning tree every tree edge on
       that cycle weighs at least ``|b'_kl|``; so its imaginary part is
       at most ``pi`` times the summed perturbation of the cycle's
       entries.  Small entries amplify nothing.  With at most ``n`` edges
       per cycle and ``N = (n-1)(n-2)/2`` cycles through one edge, the
       defect ``2 |Im M|_F`` is at most ``2 pi sqrt(n N) eta``.
    4. Together: the defect is at most
       ``3 sqrt(2) pi sqrt(n N) tau / g``, which is ``23 tau / g`` at
       ``n = 3`` and ``103 tau / g`` at ``n = 6``.  ``_REFUTE_K = 128``
       covers every ``n <= _MAX_DIM`` with room for the second-order
       terms, and ``eps`` stands for the backward error of ``eigh`` and
       of the products, which acts like ``delta``.

    So a refutation never occurs where a search could still reach
    ``WITNESS_TOL``.  As a defect is at most 2, a refutation also needs
    ``g > 64 tau``, where ``delta / g`` is small, as step 2 assumes.
    """
    turned = _turned_phases(rep)[:, None, None] * rep
    herm = 0.5 * (turned + turned.conj().swapaxes(1, 2))  # Re(cT) for every phase c
    values = np.linalg.eigvalsh(herm)
    gaps = np.minimum.reduce(values[:, 1:] - values[:, :-1], axis=-1)  # np.diff, then min
    k = int(gaps.argmax())
    if gaps[k] <= _GAP_MIN:
        return None, None
    _, v = np.linalg.eigh(herm[k])
    vh = v.conj().T
    b = -1j * (vh @ (turned[k] - herm[k]) @ v)  # B' = V* Im(cT) V
    u = np.exp(1j * _tree_phases(b))[:, None] * vh
    residual = _residual(_evaluate(rep, u)[2])  # rep has unit norm
    if residual <= WITNESS_TOL:
        u.flags.writeable = False
        return OracleResult("witness", u, residual, 0, 0), None
    if residual > _REFUTE_K * (WITNESS_TOL + EPS) / gaps[k]:
        return OracleResult("refuted", None, residual, 0, 0), None
    return None, u


def find_symmetrizer(t: CMatrix) -> OracleResult:
    """Search for a unitary U making U T U* complex symmetric.

    The search runs on the centered, normalized representative of
    :func:`~uecsm.matcore.normalize`, so it behaves the same at every
    scale and shift of ``t``; a scalar matrix is a witness at once, with
    ``iterations = 0`` and ``restarts_used = 0``.  Every entry must be
    finite: a NaN or infinite entry raises ``ValueError``.

    The closed-form Cartesian criterion comes first (see
    :func:`_closed_form`): one stacked ``eigvalsh`` and one ``eigh``.  It
    returns a witness, or ``refuted`` (with ``u = None`` and the
    candidate's defect as ``residual``) when no unitary can reach
    :data:`WITNESS_TOL`; either has ``iterations = 0`` and
    ``restarts_used = 0``.  It declines when no turned Hermitian part
    ``Re(cT)`` has a simple spectrum (a normal matrix such as
    ``Q diag(1, 1, 2) Q*``) or when its candidate's defect lies between
    ``WITNESS_TOL`` and the refutation threshold, as on matrices within
    about ``_REFUTE_K WITNESS_TOL / g`` of the UECSM set.

    Then Levenberg-Marquardt runs (see :func:`_levenberg_marquardt`):
    from the candidate when there is one; otherwise from the identity
    and, if that start misses ``WITNESS_TOL``, from the fixed unitary of
    :func:`_second_start`.  It returns the witness of the first start
    that reaches ``WITNESS_TOL``, with ``restarts_used`` the starts run
    (1, or 2 after the identity failed) and ``iterations`` the LM steps
    of all of them; otherwise ``inconclusive`` with the residual of the
    last start.
    An ``inconclusive`` result carries no information that T is not
    UECSM; only ``refuted`` does.  Nothing is random: the result depends
    only on ``t``.
    """
    n = _require_square(t)
    if n > _MAX_DIM:
        raise CostGuard(f"search limited to n <= {_MAX_DIM}, got n = {n}")
    rep, _, s = normalize(t)
    return _symmetrizer(rep, s)


def _symmetrizer(rep: CMatrix, s: float) -> OracleResult:
    """:func:`find_symmetrizer` of a matrix with representative ``rep`` and scale ``s``.

    A scalar matrix is a witness at once; otherwise the closed form
    decides, or :func:`_search` runs from its fixed starts.  Searching
    on the representative loses nothing: U symmetrizes ``T = s rep + mu I``
    exactly when it symmetrizes ``rep``, and the unit norm keeps the cost
    in range.
    """
    n = rep.shape[0]
    if s == 0.0:
        return OracleResult("witness", _identity(n), 0.0, 0, 0)
    decision, candidate = _closed_form(rep)
    if decision is not None:
        return decision
    starts = (_identity(n), _second_start(n)) if candidate is None else (candidate,)
    return _search(rep, starts)


def verify_witness(t: CMatrix, u: CMatrix, tol: float = WITNESS_TOL) -> Verdict:
    """Check that ``u`` is unitary and that U T U* is symmetric to ``tol``."""
    symmetry = symmetry_residual(t, u)  # first: it refuses bad shapes and non-finite entries
    unitarity = float(np.linalg.norm(u.conj().T @ u - np.eye(t.shape[0])))
    row = (unitarity, symmetry)
    return Verdict("witness", ("unitarity", "symmetry"), row, tol)
