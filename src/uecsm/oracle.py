"""Brute-force witness search: symmetrize a matrix over the unitary group.

Minimizes f(U) = |U T U* - (U T U*)^t|_F^2 by Riemannian descent on the
unitary group: steps are Cayley transforms of skew-Hermitian
directions, with a plain step-halving line search and multiple random
restarts.  A small enough final residual yields a constructive witness
that T is UECSM; a large floor after many restarts is only evidence in
the other direction, never a proof, so the failure status is
``inconclusive`` rather than a negative verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CostGuard, DimensionMismatch
from .matcore import CMatrix, normalize
from .tracetests import Verdict

WITNESS_TOL = 1e-6
_MAX_DIM = 6
_LINE_SEARCH_HALVINGS = 40
# Cap on the Barzilai-Borwein step for a unit-norm cost.  Step lengths
# scale as 1 / |T|^2, and in the long narrow valleys of badly conditioned
# inputs the BB step of the normalized cost runs far above 1e3.
_MAX_STEP = 1e9


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the search; ``u`` is populated only for a witness."""

    status: str  # "witness" | "inconclusive"
    u: Optional[CMatrix]
    residual: float
    iterations: int
    restarts_used: int

    @property
    def found(self) -> bool:
        return self.status == "witness"


def symmetry_cost(t: CMatrix, u: CMatrix) -> float:
    """f(U) = |U T U* - (U T U*)^t|_F^2."""
    s = u @ t @ u.conj().T
    g = s - s.T
    return float(np.real(np.trace(g @ g.conj().T)))


def _residual(cost: float) -> float:
    return float(np.sqrt(max(cost, 0.0)))


def symmetry_residual(t: CMatrix, u: CMatrix) -> float:
    """Normalized defect |UTU* - (UTU*)^t|_F / |T - mu I|_F, mu = tr T / n.

    The defect is unchanged by a shift T + bI, so it is the defect of
    the representative ``(T - mu I) / |T - mu I|_F`` of
    :func:`~uecsm.matcore.normalize`, which cannot overflow or
    underflow; a scalar matrix (all-zero representative) gives 0.
    """
    return _residual(symmetry_cost(normalize(t)[0], u))


def cost_gradient(t: CMatrix, u: CMatrix) -> CMatrix:
    """Riemannian gradient of :func:`symmetry_cost` at ``u``.

    Returns the skew-Hermitian G such that moving along a skew
    direction K via the Cayley retraction changes the cost at first
    order by Re tr(G K*).  Derived analytically; validated against
    central finite differences in the test suite.
    """
    s = u @ t @ u.conj().T
    g = s - s.T
    c = s @ g.conj().T - g.conj().T @ s
    skew = (c - c.conj().T) / 2
    return -4.0 * skew


def cayley_retract(k: CMatrix, u: CMatrix) -> CMatrix:
    """Move from ``u`` along skew direction ``k``: (I - k/2)^{-1} (I + k/2) u."""
    n = k.shape[0]
    eye = np.eye(n, dtype=complex)
    return np.linalg.solve(eye - k / 2, (eye + k / 2) @ u)


def _random_unitary(rng: np.random.Generator, n: int) -> CMatrix:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _real_inner(a: CMatrix, b: CMatrix) -> float:
    return float(np.real(np.trace(a @ b.conj().T)))


def _descend(t: CMatrix, u0: CMatrix, max_iters: int, target_cost: float) -> tuple[CMatrix, float, int]:
    # Step-halving line search along the negative gradient; the initial
    # trial step each iteration is the Barzilai-Borwein length, which
    # keeps progress through the long narrow valleys this cost has.
    u = u0
    f = symmetry_cost(t, u)
    tau = 1.0
    prev_grad: Optional[CMatrix] = None
    prev_step: Optional[CMatrix] = None
    iters = 0
    for iters in range(1, max_iters + 1):
        if f <= target_cost:
            break
        grad = cost_gradient(t, u)
        if float(np.linalg.norm(grad)) < 1e-16:
            break
        if prev_grad is not None and prev_step is not None:
            denom = _real_inner(prev_step, grad - prev_grad)
            if abs(denom) > 1e-300:
                bb = abs(_real_inner(prev_step, prev_step) / denom)
                if np.isfinite(bb) and bb > 0.0:
                    tau = min(max(bb, 1e-12), _MAX_STEP)
        improved = False
        trial_tau = tau
        for _ in range(_LINE_SEARCH_HALVINGS):
            step = -trial_tau * grad
            u_try = cayley_retract(step, u)
            f_try = symmetry_cost(t, u_try)
            if f_try < f:
                u, f = u_try, f_try
                prev_grad, prev_step = grad, step
                improved = True
                break
            trial_tau /= 2.0
        if not improved:
            break
    return u, f, iters


def find_symmetrizer(
    t: CMatrix,
    restarts: int = 20,
    max_iters: int = 20000,
    witness_tol: float = WITNESS_TOL,
    seed: int = 0,
) -> OracleResult:
    """Search for a unitary U making U T U* complex symmetric.

    The search runs on the centered, normalized representative of
    :func:`~uecsm.matcore.normalize`, so it behaves the same at every
    scale and shift of ``t``; a scalar matrix is a witness at once.
    Restart 0 starts from the identity (free win for inputs that are
    already symmetric); the remaining starts are Haar-ish random
    unitaries.  Returns a witness as soon as some restart reaches the
    normalized residual target, otherwise reports the best residual
    seen.  An ``inconclusive`` result carries no information that T is
    not UECSM.

    The generous default iteration cap costs nothing on inputs with a
    positive residual floor (those searches stall long before the cap)
    and is needed for symmetrizable inputs whose eigenbasis is badly
    conditioned, where the descent valley is long and narrow.
    """
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {t.shape}")
    n = t.shape[0]
    if n > _MAX_DIM:
        raise CostGuard(f"search limited to n <= {_MAX_DIM}, got n = {n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    # search on the representative: U symmetrizes T = s rep + mu I exactly
    # when it symmetrizes rep, and the unit norm keeps the cost in range
    rep, _, s = normalize(t)
    if s == 0.0:
        u = np.eye(n, dtype=complex)
        u.flags.writeable = False
        return OracleResult("witness", u, 0.0, 0, 1)
    target_cost = 0.25 * witness_tol**2  # stop once safely inside
    rng = np.random.default_rng(seed)

    best_u: Optional[CMatrix] = None
    best_residual = float("inf")
    total_iters = 0
    for restart in range(restarts):
        u0 = np.eye(n, dtype=complex) if restart == 0 else _random_unitary(rng, n)
        u, f, iters = _descend(rep, u0, max_iters, target_cost)
        total_iters += iters
        residual = _residual(f)  # rep has unit norm
        if residual < best_residual:
            best_residual = residual
            best_u = u
        if best_residual <= witness_tol:
            out = np.array(best_u)
            out.flags.writeable = False
            return OracleResult("witness", out, best_residual, total_iters, restart + 1)
    return OracleResult("inconclusive", None, best_residual, total_iters, restarts)


def verify_witness(t: CMatrix, u: CMatrix, tol: float = WITNESS_TOL) -> Verdict:
    """Check that ``u`` is unitary and that U T U* is symmetric to ``tol``."""
    if t.shape != u.shape or t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"shape mismatch: t {t.shape}, u {u.shape}")
    n = t.shape[0]
    unitarity = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    symmetry = symmetry_residual(t, u)
    residuals = (("unitarity", unitarity), ("symmetry", symmetry))
    return Verdict("witness", max(unitarity, symmetry) <= tol, residuals, tol)
