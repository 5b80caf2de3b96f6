"""Witness search: symmetrize a matrix over the unitary group.

A closed-form stage runs first.  It is the Cartesian criterion of
Tener, "Unitary equivalence to a complex symmetric matrix: an algorithm"
(JMAA 2008), which rests on Garcia-Putinar (TAMS 2006): T is UECSM
exactly when CTC = T* for some conjugation C, that is, when one unitary
makes both Hermitian parts of T real symmetric.  If Re(cT) has a simple
spectrum for one of eight fixed phases c, one ``eigh`` of it and phases
solved along a maximum spanning tree give the candidate.  The stage
decides both ways: a candidate within the witness tolerance is a
witness, and one that misses it by more than rounding and eigenbasis
error allow is a refutation, status ``refuted``: then no conjugation
exists, and no unitary reaches the tolerance.  Both are reported with
``restarts_used = 0`` and ``iterations = 0``.  The stage declines when
every Re(cT) has a repeated eigenvalue, or when the candidate's miss
lies in the band between the two.

When it declines, a descent searches.  It minimizes
f(U) = |U T U* - (U T U*)^t|_F^2 by Riemannian descent on the unitary
group: steps are Cayley transforms along the gradient, with a plain
step-halving line search and multiple random restarts.  One ``eigh`` of
the Hermitian ``i grad f`` per iteration gives the Cayley step of every
trial length in eigen form, with no linear solve.  Restart 0 (the
identity) descends alone; the random restarts then descend in lockstep,
in waves of stacked ``(lanes, n, n)`` arrays, and the search reports
exactly what running the restarts one by one would: the same status,
residual, witness, restart count and iterations.

A small enough final residual of the descent yields a constructive
witness that T is UECSM; a large floor after many restarts is only
evidence in the other direction, never a proof, so the descent's
failure status is ``inconclusive``.  Only the closed-form stage says
``refuted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CostGuard, DimensionMismatch
from .matcore import EPS, CMatrix, _require_square, normalize
from .tracetests import Verdict

WITNESS_TOL = 1e-6
_MAX_DIM = 6
_LINE_SEARCH_HALVINGS = 40
# Cap on the Barzilai-Borwein step for a unit-norm cost.  Step lengths
# scale as 1 / |T|^2, and in the long narrow valleys of badly conditioned
# inputs the BB step of the normalized cost runs far above 1e3.
_MAX_STEP = 1e9
# Random restarts descend together in waves of at most this many lanes,
# so memory stays bounded whatever the restart budget.
_WAVE = 32
# Phases c = e^{i pi k / 8} of the closed-form stage: one of them gives
# Re(cT) a simple spectrum unless every Hermitian part of T has a
# repeated eigenvalue.  Re(-cT) = -Re(cT), so half a turn covers them all.
_PHASES = np.exp(1j * np.pi * np.arange(8) / 8)
# Smallest eigenvalue gap of Re(cT), on the unit-norm representative,
# for which the closed-form stage trusts the eigenbasis.
_GAP_MIN = 1e-8
# Margin of the closed-form refutation over (witness_tol + eps) / gap;
# _closed_form derives it.
_REFUTE_K = 128.0


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the search; ``u`` is populated only for a witness."""

    status: str  # "witness" | "refuted" (closed form) | "inconclusive"
    u: Optional[CMatrix]
    residual: float
    iterations: int
    restarts_used: int

    @property
    def found(self) -> bool:
        return self.status == "witness"


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(A B*) of one matrix or of each matrix of a stack."""
    flat = a.shape[:-2] + (a.shape[-2] * a.shape[-1],)
    return np.vecdot(a.reshape(flat), b.reshape(flat)).real


def _evaluate(t: CMatrix, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S = U T U*, its asymmetry G = S - S^t and the cost |G|^2 at one U or a stack."""
    s = u @ t @ _adjoint(u)
    g = s - s.swapaxes(-1, -2)
    return s, g, _inner(g, g)


def _residual(cost):
    return np.sqrt(np.maximum(cost, 0.0))


def _generator(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``i`` times the Riemannian gradient of |G|^2, from S and G = S - S^t.

    The gradient is skew-Hermitian, so this is Hermitian, and ``eigh``
    of it gives every Cayley step along the gradient (see :func:`_cayley`).
    """
    g_bar = g.conj()  # equals -G*, since G^t = -G exactly
    c = g_bar @ s - s @ g_bar  # S G* - G* S
    return 2j * (_adjoint(c) - c)  # i times -4 times the skew part of c


def _cayley(z: np.ndarray, v: np.ndarray, vh_u: np.ndarray) -> np.ndarray:
    """Cayley step (I - K/2)^{-1} (I + K/2) U of a skew-Hermitian K = V diag(2z) V*.

    ``z = i tau lam / 2``, where ``lam, v`` is the ``eigh`` of the
    Hermitian ``-iK / tau``, and ``vh_u`` is ``V* U``.  The step factor
    is V diag((1 + z) / (1 - z)) V*, so one ``eigh`` serves every step
    length tau, each at the cost of a diagonal scaling and one product.
    """
    return (v * ((1 + z) / (1 - z))[..., None, :]) @ vh_u


def symmetry_cost(t: CMatrix, u: CMatrix) -> float:
    """f(U) = |U T U* - (U T U*)^t|_F^2."""
    return float(_evaluate(t, u)[2])


def symmetry_residual(t: CMatrix, u: CMatrix) -> float:
    """Normalized defect |UTU* - (UTU*)^t|_F / |T - mu I|_F, mu = tr T / n.

    The defect is unchanged by a shift T + bI, so it is the defect of
    the representative ``(T - mu I) / |T - mu I|_F`` of
    :func:`~uecsm.matcore.normalize`, which cannot overflow or
    underflow; a scalar matrix (all-zero representative) gives 0.
    """
    return float(_residual(symmetry_cost(normalize(t)[0], u)))


def cost_gradient(t: CMatrix, u: CMatrix) -> CMatrix:
    """Riemannian gradient of :func:`symmetry_cost` at ``u``.

    Returns the skew-Hermitian G such that moving along a skew
    direction K via the Cayley retraction changes the cost at first
    order by Re tr(G K*).  Derived analytically; validated against
    central finite differences in the test suite.
    """
    s, g, _ = _evaluate(t, u)
    return -1j * _generator(s, g)


def cayley_retract(k: CMatrix, u: CMatrix) -> CMatrix:
    """Move from ``u`` along skew-Hermitian ``k``: (I - k/2)^{-1} (I + k/2) u."""
    lam, v = np.linalg.eigh(-1j * k)
    return _cayley(0.5j * lam, v, _adjoint(v) @ u)


def _random_unitary(rng: np.random.Generator, n: int) -> CMatrix:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _descend(
    t: CMatrix, u: np.ndarray, max_iters: int, target_cost: float, witness_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descend the restarts stacked in ``u`` (lanes, n, n) in lockstep.

    Each lane runs a step-halving line search along its negative
    gradient, the first trial being the Barzilai-Borwein length, which
    keeps progress through the long narrow valleys this cost has.  One
    ``eigh`` of the Hermitian ``i grad`` per iteration serves every trial
    length (see :func:`_cayley`).  A lane finishes when its cost reaches
    ``target_cost``, its gradient vanishes, no trial lowers its cost, or
    the cap is reached, and then drops out of the stack.

    The lanes are consecutive restarts.  Once a finished lane has
    residual <= ``witness_tol``, the lanes above it no longer matter and
    drop out, and the search stops when every lane below it has
    finished.  Returns the final point, cost and iteration count of the
    lanes up to and including that witness (of all lanes if there is
    none); each lane's numbers are those it gives descending alone.
    """
    u = np.array(u, dtype=complex)
    lanes = u.shape[0]
    out_u = np.empty_like(u)
    out_f = np.empty(lanes)
    out_iters = np.full(lanes, max_iters)
    done = np.zeros(lanes, dtype=bool)
    won = lanes  # lowest finished lane with a witness residual
    live = np.arange(lanes)
    s, g, f = _evaluate(t, u)
    tau = np.ones(lanes)
    # each lane's last accepted step was K = i prev_tau prev_h, with
    # prev_hh = |prev_h|^2; a lane with no step yet has prev_tau = 0
    prev_h = np.zeros_like(u)
    prev_hh = np.zeros(lanes)
    prev_tau = np.zeros(lanes)
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            h = _generator(s, g)
            lam, v = np.linalg.eigh(h)
            hh = np.vecdot(lam, lam)  # |h|^2, the squared gradient norm
            stop = (f <= target_cost) | (hh < 1e-32)
            # Barzilai-Borwein length |<p, p> / <p, q>| for the last step p
            # and the gradient change q; where it is undefined, tau stays
            bb = prev_tau * prev_hh / np.abs(_inner(prev_h, h - prev_h))
            tau = np.where(np.isfinite(bb), np.minimum(np.maximum(bb, 1e-12), _MAX_STEP), tau)
            half_lam = 0.5j * lam
            vh_u = _adjoint(v) @ u
            trial = tau.copy()
            ending = bool(stop.any())
            # the lanes still without a step: every lane, or an index array
            todo = np.flatnonzero(~stop) if ending else slice(None)
            for _ in range(_LINE_SEARCH_HALVINGS):
                u_try = _cayley(trial[todo, None] * half_lam[todo], v[todo], vh_u[todo])
                s_try, g_try, f_try = _evaluate(t, u_try)
                better = f_try < f[todo]
                if better.all():
                    took, todo = todo, None
                elif better.any():
                    todo = np.arange(lanes)[todo]
                    took, todo = todo[better], todo[~better]
                    u_try, s_try, g_try, f_try = u_try[better], s_try[better], g_try[better], f_try[better]
                else:
                    trial[todo] /= 2.0
                    continue
                u[took], s[took], g[took], f[took] = u_try, s_try, g_try, f_try
                prev_h[took], prev_hh[took], prev_tau[took] = h[took], hh[took], trial[took]
                if todo is None:
                    break
                trial[todo] /= 2.0
            else:
                stop[todo] = ending = True  # no trial length lowered the cost
            if not ending:
                continue
            ended = live[stop]
            out_u[ended], out_f[ended], out_iters[ended] = u[stop], f[stop], it
            done[ended] = True
            wins = ended[_residual(f[stop]) <= witness_tol]
            if wins.size:
                won = min(won, int(wins[0]))
            if done[:won].all():
                break
            keep = ~stop & (live < won)
            live, u, s, g, f = live[keep], u[keep], s[keep], g[keep], f[keep]
            tau, prev_h, prev_hh, prev_tau = tau[keep], prev_h[keep], prev_hh[keep], prev_tau[keep]
            lanes = live.size
        else:
            out_u[live], out_f[live] = u, f  # still descending at the cap
    return out_u[: won + 1], out_f[: won + 1], out_iters[: won + 1]


def _tree_phases(b: np.ndarray) -> np.ndarray:
    """Phases ``alpha`` making every ``e^{i(alpha_i - alpha_j)} b_ij`` real on a tree.

    The tree is a maximum spanning tree of ``|b_ij|`` (Prim's algorithm
    from vertex 0), so no phase comes from a rounding-sized entry; along
    it ``alpha_j = alpha_parent + arg b_parent,j``, which makes the tree
    entries positive.  Plain Python, since ``n <= _MAX_DIM``.
    """
    n = b.shape[0]
    weight = np.abs(b).tolist()
    angle = np.angle(b).tolist()
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


def _closed_form(rep: CMatrix, witness_tol: float) -> Optional[OracleResult]:
    """The Cartesian criterion of Tener (2008): a witness, a refutation or None.

    ``T`` is UECSM exactly when ``CTC = T*`` for some conjugation ``C``
    (Garcia-Putinar 2006), that is, when some unitary makes both
    Hermitian parts ``A = Re T`` and ``B = Im T`` real symmetric at once.
    Such a ``C`` fixes ``A`` and ``B``.  If ``A = V D V*`` has a simple
    spectrum, ``C`` is therefore ``V diag(e^{i theta}) J V*``, and the
    unitary is ``diag(e^{i alpha}) V*`` with phases making
    ``B' = V* B V`` real; a spanning tree of ``B'`` fixes them up to
    sign.  ``T`` is turned by the phase ``c`` of ``_PHASES`` whose
    ``Re(cT)`` has the widest smallest eigenvalue gap ``g``; the stage
    declines when ``g <= _GAP_MIN``.  Otherwise the candidate is a
    witness when its defect is within ``witness_tol``, and ``refuted``
    when the defect exceeds ``_REFUTE_K (witness_tol + eps) / g``.  In
    the band between, it declines.

    The refutation threshold, with ``tau = witness_tol`` on the unit-norm
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

    So a refutation never occurs where a descent could still reach
    ``witness_tol``.  As a defect is at most 2, a refutation also needs
    ``g > 64 tau``, where ``delta / g`` is small, as step 2 assumes.
    """
    turned = _PHASES[:, None, None] * rep
    herm = 0.5 * (turned + _adjoint(turned))  # Re(cT) for every phase c
    gaps = np.diff(np.linalg.eigvalsh(herm), axis=-1).min(axis=-1)
    k = int(np.argmax(gaps))
    if gaps[k] <= _GAP_MIN:
        return None
    _, v = np.linalg.eigh(herm[k])
    vh = _adjoint(v)
    b = -1j * (vh @ (turned[k] - herm[k]) @ v)  # B' = V* Im(cT) V
    u = np.exp(1j * _tree_phases(b))[:, None] * vh
    residual = float(_residual(_evaluate(rep, u)[2]))  # rep has unit norm
    if residual <= witness_tol:
        u.flags.writeable = False
        return OracleResult("witness", u, residual, 0, 0)
    if residual > _REFUTE_K * (witness_tol + EPS) / gaps[k]:
        return OracleResult("refuted", None, residual, 0, 0)
    return None


def _search_restarts(
    rep: CMatrix, restarts: int, max_iters: int, witness_tol: float, seed: int
) -> OracleResult:
    """The descent: restart 0 (the identity) alone, then the random restarts.

    The random restarts descend in lockstep waves of at most ``_WAVE``
    lanes, and a wave's starts are drawn only when it runs, in restart
    order.  Returns the witness of the first restart that reaches
    ``witness_tol``, with the iterations of every restart up to it, or
    the best residual of all of them.

    Restart 0 is not lane 0 of the first wave because, on inputs where
    the descent finds a witness, the identity start is often the one
    that reaches it, and in a wave every other lane would descend
    alongside it until it finishes.  With the closed-form stage bypassed,
    16 such inputs (``conjugated_diagonal`` of SU(3,1) and SU(2,1)
    samples, and ``Q diag(1, 1, 2) Q*``) each found the witness at
    restart 0; folding it into the wave gave the same results but took
    16.8-17.4 s in place of 4.2-4.6 s in total (2-vCPU VM).  Inputs
    without a witness run every restart either way.
    """
    n = rep.shape[0]
    target_cost = 0.25 * witness_tol**2  # stop once safely inside
    rng = np.random.default_rng(seed)
    total_iters = 0
    best_residual = float("inf")
    first = 0
    while first < restarts:
        stop = min(first + _WAVE, restarts) if first else 1
        starts = [np.eye(n, dtype=complex) if r == 0 else _random_unitary(rng, n) for r in range(first, stop)]
        us, costs, iters = _descend(rep, np.stack(starts), max_iters, target_cost, witness_tol)
        for lane, (u, cost, lane_iters) in enumerate(zip(us, costs, iters)):
            total_iters += int(lane_iters)
            residual = float(_residual(cost))  # rep has unit norm
            best_residual = min(best_residual, residual)
            if residual <= witness_tol:
                out = np.array(u)
                out.flags.writeable = False
                return OracleResult("witness", out, residual, total_iters, first + lane + 1)
        first = stop
    return OracleResult("inconclusive", None, best_residual, total_iters, restarts)


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
    scale and shift of ``t``; a scalar matrix is a witness at once, with
    ``iterations = 0`` and ``restarts_used = 0``.

    The closed-form Cartesian criterion comes first (see
    :func:`_closed_form`): one stacked ``eigvalsh`` and one ``eigh``.  It
    returns a witness, or ``refuted`` (with ``u = None`` and the
    candidate's defect as ``residual``) when no unitary can reach
    ``witness_tol``; either has ``iterations = 0`` and
    ``restarts_used = 0``.  It declines when no turned Hermitian part
    ``Re(cT)`` has a simple spectrum (a normal matrix such as
    ``Q diag(1, 1, 2) Q*``) or when its candidate's defect lies between
    ``witness_tol`` and the refutation threshold, as on matrices within
    about ``_REFUTE_K witness_tol / g`` of the UECSM set.  The descent
    then runs exactly as it would without the stage: the stage draws
    nothing from the restart generator.

    In the descent, restart 0 starts from the identity; the remaining
    starts are Haar-ish random unitaries.  It returns the witness of the
    first restart that reaches the normalized residual target, with the
    iterations of every restart up to it, otherwise reports the best
    residual seen.  An ``inconclusive`` result carries no information
    that T is not UECSM; only ``refuted`` does.

    Restarts after the first descend in lockstep waves of at most
    ``_WAVE`` lanes, whose starts are drawn only when the wave runs, so
    memory does not grow with ``restarts``.  The result is the one the
    restarts give when run one by one, in order.

    The generous default iteration cap costs nothing on inputs with a
    positive residual floor (those searches stall long before the cap)
    and is needed for symmetrizable inputs whose eigenbasis is badly
    conditioned, where the descent valley is long and narrow.
    """
    n = _require_square(t)
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
        return OracleResult("witness", u, 0.0, 0, 0)
    return _closed_form(rep, witness_tol) or _search_restarts(rep, restarts, max_iters, witness_tol, seed)


def verify_witness(t: CMatrix, u: CMatrix, tol: float = WITNESS_TOL) -> Verdict:
    """Check that ``u`` is unitary and that U T U* is symmetric to ``tol``."""
    if t.shape != u.shape or t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"shape mismatch: t {t.shape}, u {u.shape}")
    n = t.shape[0]
    unitarity = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
    symmetry = symmetry_residual(t, u)
    residuals = (("unitarity", unitarity), ("symmetry", symmetry))
    return Verdict("witness", max(unitarity, symmetry) <= tol, residuals, tol)
