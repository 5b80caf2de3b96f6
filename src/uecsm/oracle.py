"""Witness oracle: a unitary that makes a matrix complex symmetric, or a proof that none does.

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

When it declines, the second stage solves the same characterization
as a linear problem.  T is UECSM exactly when some symmetric unitary U
gives T U = U T^t and T* U = U conj(T), so the symmetric matrices X with
T X = X T^t and T* X = X conj(T) form the kernel of a linear map L_T.  One
``svd`` of L_T gives that kernel and its smallest singular value; the
polar factor of a generic kernel element, Takagi-factored as U = W W^t,
gives the candidate W*.  The smallest singular value bounds the distance
from T to the UECSM set from below, so where it clears a gate derived
from ``WITNESS_TOL`` the stage says ``refuted``.  Where the kernel is
nonzero but its candidate misses the tolerance, as when every kernel
element is singular, the status is ``inconclusive``: evidence, never a
proof.  Nothing in either stage is random: the result depends only on
the matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import CostGuard
from .matcore import EPS, CMatrix, _identity, _require_finite, _require_pair, _require_square, normalize
from .tracetests import Verdict

# The symmetry defect, on the unit-norm representative, within which a
# unitary is a witness.
WITNESS_TOL = 1e-6
# The closed form's _REFUTE_K is derived for n <= 6 only: at n = 7 the
# bound 3 sqrt(2) pi sqrt(n N) of its step 4 is 137.
_MAX_DIM = 6
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
    """Outcome of the oracle; ``u`` is populated only for a witness."""

    status: str  # "witness" | "refuted" | "inconclusive"
    u: Optional[CMatrix]
    residual: float
    iterations: int
    restarts_used: int  # 1 when the second stage ran, else 0

    @property
    def found(self) -> bool:
        return self.status == "witness"


def _cost(t: CMatrix, u: np.ndarray) -> float:
    """|G|_F^2 for the asymmetry G = S - S^t of S = U T U*."""
    s = u @ t @ u.conj().T
    g = s - s.T
    return float(np.vdot(g, g).real)


def symmetry_cost(t: CMatrix, u: CMatrix) -> float:
    """f(U) = |U T U* - (U T U*)^t|_F^2.

    ``t`` and ``u`` must be square matrices of one shape, else
    :class:`DimensionMismatch`; a NaN or inf entry raises ``ValueError``.
    """
    _require_pair(t, u)
    _require_finite(t, u)
    return _cost(t, u)


def symmetry_residual(t: CMatrix, u: CMatrix) -> float:
    """Normalized defect |UTU* - (UTU*)^t|_F / |T - mu I|_F, mu = tr T / n.

    The defect is unchanged by a shift T + bI, so it is the defect of
    the representative ``(T - mu I) / |T - mu I|_F`` of
    :func:`~uecsm.matcore.normalize`, which cannot overflow or
    underflow; a scalar matrix (all-zero representative) gives 0.
    """
    return math.sqrt(symmetry_cost(normalize(t)[0], u))


def cayley_retract(k: CMatrix, u: CMatrix) -> CMatrix:
    """Move from ``u`` along skew-Hermitian ``k``: (I - k/2)^{-1} (I + k/2) u, by one ``solve``.

    ``k`` and ``u`` must be square matrices of one shape, else
    :class:`DimensionMismatch`; a NaN or infinite entry raises
    ``ValueError``.  The oracle does not call it: it stays only because the
    benchmark's tracer counts its calls, until ROADMAP item 1 removes both.
    """
    eye = _identity(_require_pair(k, u))
    _require_finite(k, u)
    return np.linalg.solve(eye - 0.5 * k, (eye + 0.5 * k) @ u)


@lru_cache(maxsize=None)
def _symmetric_basis(n: int) -> np.ndarray:
    """An orthonormal basis of the complex symmetric n x n matrices, as an (n(n+1)/2, n, n) stack.

    The ``e_ii``, then the ``(e_jk + e_kj) / sqrt(2)`` for ``j < k``, in
    the order of ``np.triu_indices``.
    """
    j, k = np.triu_indices(n, 1)
    a = n + np.arange(j.size)
    basis = np.zeros((n + j.size, n, n))
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    basis[a, j, k] = basis[a, k, j] = math.sqrt(0.5)
    basis.flags.writeable = False
    return basis


def _intertwiner(rep: CMatrix) -> OracleResult:
    """The second stage: the symmetric intertwiners of ``rep``, from one SVD.

    ``T`` is UECSM exactly when some symmetric unitary ``U`` gives
    ``T U = U T^t`` (Garcia-Putinar 2006), and then also ``T* U = U conj(T)``.
    Both equations are linear in ``U``: the map
    ``L_T: X -> (T X - X T^t, T* X - X conj(T))``, on the symmetric ``X``
    of :func:`_symmetric_basis`, is a ``2 n^2 x n(n+1)/2`` matrix, and one
    ``svd`` gives its singular values ``sigma`` and right singular vectors.

    The candidate.  ``X`` is the combination, with coefficients
    ``exp(i sqrt(m))`` (m = 1..k), of the k right singular vectors whose
    ``sigma`` is at most the gate ``g = WITNESS_TOL sqrt(2 / n)``, or the
    last one alone when none is.  Where ``X`` is invertible its polar
    factor ``U = W_svd V_svd*`` is a symmetric unitary intertwiner.  Its
    real and imaginary parts are commuting real symmetric matrices, so the
    orthogonal ``O`` of one ``eigh`` of ``Re U + sqrt(2) Im U`` gives
    ``U = O diag(e^{i theta}) O^t``.  With ``W = O diag(e^{i theta / 2})``,
    ``U = W W^t`` and ``W* T W`` is complex symmetric; the candidate is ``W*``.

    The outcome: ``witness`` when the candidate's defect is within
    ``WITNESS_TOL``; ``refuted`` when the smallest singular value clears
    the gate by the rounding margin below; otherwise ``inconclusive``, as
    on a non-UECSM 3 x 3 block beside a 2 x 2 zero block, whose
    intertwiners are all singular.
    Every outcome carries the candidate's defect as ``residual``, with
    ``iterations = 0`` and ``restarts_used = 1``.

    The refutation, with ``tau = WITNESS_TOL`` on the unit-norm
    representative, in three steps:

    1. Let ``S`` be UECSM with symmetric unitary intertwiner ``U``, and
       ``T = S + E``.  Then ``L_T(U) = L_E(U)``, whose two blocks have
       Frobenius norm at most ``2 |E|_F`` each, and ``|U|_F = sqrt(n)``.
       So ``sigma_min <= 2 sqrt(2) |E|_F / sqrt(n)``: the distance from
       ``T`` to the UECSM set is at least ``sqrt(n / 8) sigma_min``.
    2. A unitary with defect ``tau`` puts ``T`` within ``tau / 2`` of a
       UECSM matrix (the symmetric part of ``U T U*``, turned back).  So
       where ``sqrt(n / 8) sigma_min > tau / 2``, that is ``sigma_min > g``,
       no unitary reaches ``tau``.
    3. Rounding.  ``|L_T|_2 <= 2 sqrt(2)``, since ``|T|_2 <= |T|_F = 1``.
       Each entry of ``L_T`` is a sum of at most four products, so its
       computed columns are off by at most ``4 eps`` times ``2 sqrt(2)``
       each, ``8 sqrt(2) n eps`` in all (``n(n+1)/2 <= n^2`` columns).  The
       computed singular values are those of a matrix within
       ``p eps |L_T|_2`` of that one, with ``p`` a modest function of the
       size, taken as the row count ``2 n^2``.  By Weyl's inequality the
       computed ``sigma_min`` is off by at most
       ``2 sqrt(2) (2 n^2 + 4 n) eps <= 8 sqrt(2) n^2 eps``, which is
       ``9e-14`` at ``n = 6``; a refutation asks ``sigma_min`` to exceed
       ``g`` by that much.
    """
    n = rep.shape[0]
    basis = _symmetric_basis(n)
    conj = rep.conj()
    images = np.concatenate((rep @ basis - basis @ rep.T, conj.T @ basis - basis @ conj), axis=1)
    _, sigma, vh = np.linalg.svd(images.reshape(len(basis), -1).T, full_matrices=False)
    gate = WITNESS_TOL * math.sqrt(2.0 / n)
    k = max(int(np.count_nonzero(sigma <= gate)), 1)
    x = np.tensordot(np.exp(1j * np.sqrt(np.arange(1.0, k + 1))) @ vh[-k:].conj(), basis, 1)
    w_svd, _, vh_svd = np.linalg.svd(x)
    polar = w_svd @ vh_svd
    o = np.linalg.eigh(polar.real + math.sqrt(2.0) * polar.imag)[1]
    theta = np.angle(np.diagonal(o.T @ polar @ o))
    u = np.exp(-0.5j * theta)[:, None] * o.T
    residual = math.sqrt(_cost(rep, u))  # rep has unit norm
    if residual <= WITNESS_TOL:
        u.flags.writeable = False
        return OracleResult("witness", u, residual, 0, 1)
    if sigma[-1] - 8.0 * math.sqrt(2.0) * n * n * EPS > gate:
        return OracleResult("refuted", None, residual, 0, 1)
    return OracleResult("inconclusive", None, residual, 0, 1)


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


def _closed_form(rep: CMatrix) -> Optional[OracleResult]:
    """The Cartesian criterion of Tener (2008): a decision, or None where it declines.

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

    Returns None when the defect lies in the band between the two, and
    when ``g <= _GAP_MIN``, where there is no candidate.

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

    So a refutation never occurs where some unitary could still reach
    ``WITNESS_TOL``.  As a defect is at most 2, a refutation also needs
    ``g > 64 tau``, where ``delta / g`` is small, as step 2 assumes.
    """
    turned = _turned_phases(rep)[:, None, None] * rep
    herm = 0.5 * (turned + turned.conj().swapaxes(1, 2))  # Re(cT) for every phase c
    values = np.linalg.eigvalsh(herm)
    gaps = np.minimum.reduce(values[:, 1:] - values[:, :-1], axis=-1)  # np.diff, then min
    k = int(gaps.argmax())
    if gaps[k] <= _GAP_MIN:
        return None
    _, v = np.linalg.eigh(herm[k])
    vh = v.conj().T
    b = -1j * (vh @ (turned[k] - herm[k]) @ v)  # B' = V* Im(cT) V
    u = np.exp(1j * _tree_phases(b))[:, None] * vh
    residual = math.sqrt(_cost(rep, u))  # rep has unit norm
    if residual <= WITNESS_TOL:
        u.flags.writeable = False
        return OracleResult("witness", u, residual, 0, 0)
    if residual > _REFUTE_K * (WITNESS_TOL + EPS) / gaps[k]:
        return OracleResult("refuted", None, residual, 0, 0)
    return None


def find_symmetrizer(t: CMatrix) -> OracleResult:
    """Search for a unitary U making U T U* complex symmetric.

    The oracle runs on the centered, normalized representative of
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

    Then the symmetric-intertwiner stage runs (see
    :func:`_intertwiner`): one ``svd`` of the linear map whose kernel
    holds the symmetric unitaries ``U`` with ``T U = U T^t``, one ``svd``
    and one real ``eigh`` for the candidate.  It returns a witness,
    ``refuted`` when the smallest singular value certifies that no
    unitary reaches :data:`WITNESS_TOL`, or ``inconclusive`` (``u = None``)
    when the kernel is nonzero but holds no invertible element the
    candidate finds, as for a direct sum of a UECSM and a non-UECSM
    block.  Each has ``iterations = 0`` and ``restarts_used = 1``, and
    the candidate's defect as ``residual``.
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
    decides, or :func:`_intertwiner` does.  Working on the representative
    loses nothing: U symmetrizes ``T = s rep + mu I`` exactly when it
    symmetrizes ``rep``, and the unit norm keeps the defect in range and
    bounds the map's norm for the refutation's rounding margin.
    """
    n = rep.shape[0]
    if s == 0.0:
        return OracleResult("witness", _identity(n), 0.0, 0, 0)
    return _closed_form(rep) or _intertwiner(rep)


def verify_witness(t: CMatrix, u: CMatrix, tol: float = WITNESS_TOL) -> Verdict:
    """Check that ``u`` is unitary and that U T U* is symmetric to ``tol``."""
    symmetry = symmetry_residual(t, u)  # first: it refuses bad shapes and non-finite entries
    unitarity = float(np.linalg.norm(u.conj().T @ u - np.eye(t.shape[0])))
    row = (unitarity, symmetry)
    return Verdict("witness", ("unitarity", "symmetry"), row, tol)
