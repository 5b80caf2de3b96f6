"""Eigendecomposition for small matrices with distinct eigenvalues.

The pipeline is deliberately self-contained: characteristic polynomial
by the Faddeev-LeVerrier recursion, roots by Durand-Kerner iteration,
eigenvectors by inverse iteration on the shifted matrix.  The output
pairs each unit eigenvector ``x_i`` of ``T`` with the unit eigenvector
``y_i`` of ``T*`` belonging to the conjugate eigenvalue; downstream
angle tests consume exactly this pairing.

The pipeline runs on the centered, normalized representative
``(T - mu I) / s`` of :func:`~uecsm.matcore.normalize`, which has the
same eigenvectors, so every tolerance is absolute on a unit-norm
matrix.  Matrices whose representative has eigenvalue gap at or below
``distinct_tol`` (a gap of ``distinct_tol * |T - mu I|_F`` in the
caller's units) are rejected with :class:`DegenerateSpectrum` -- the
angle tests are undefined for repeated eigenvalues and we refuse rather
than guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, NoConvergence
from .matcore import CMatrix, EPS, adjoint, normalize

_DK_SEED = 0x5EED
_RESIDUAL_TOL = 1e-7
_BIORTHO_TOL = 1e-7


def characteristic_polynomial(t: CMatrix) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest degree first.

    Faddeev-LeVerrier recursion: M_1 = T, c_1 = -tr M_1, and
    M_{k} = T (M_{k-1} + c_{k-1} I), c_k = -tr(M_k) / k.
    """
    n = t.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.array(t, dtype=complex)
    c = -np.trace(m)
    coeffs[1] = c
    for k in range(2, n + 1):
        m = t @ (m + c * np.eye(n, dtype=complex))
        c = -np.trace(m) / k
        coeffs[k] = c
    return coeffs


def _poly_eval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.full_like(z, coeffs[0])
    for c in coeffs[1:]:
        out = out * z + c
    return out


def durand_kerner(coeffs: np.ndarray, max_iter: int = 200, restarts: int = 8) -> np.ndarray:
    """All roots of a monic polynomial by simultaneous Weierstrass iteration.

    Caps at ``max_iter`` sweeps per attempt and restarts from randomly
    perturbed initial guesses before giving up with :class:`NoConvergence`.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    deg = len(coeffs) - 1
    if deg == 0:
        return np.zeros(0, dtype=complex)
    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    base = radius * (0.4 + 0.9j) ** np.arange(1, deg + 1)
    rng = np.random.default_rng(_DK_SEED)
    z = base.copy()
    for attempt in range(restarts + 1):
        for _ in range(max_iter):
            p = _poly_eval(coeffs, z)
            denom = np.ones(deg, dtype=complex)
            for i in range(deg):
                diff = z[i] - np.delete(z, i)
                denom[i] = np.prod(diff)
            bad = np.abs(denom) < 1e-300
            if np.any(bad):
                break
            step = p / denom
            z = z - step
            if np.max(np.abs(step)) <= 1e-14 * max(1.0, float(np.max(np.abs(z)))):
                return z
        # A cluster of roots split by rounding (a repeated eigenvalue away
        # from zero) keeps its steps above the test above; accept the
        # iterates once each is a root to working precision.
        noise = 8 * EPS * _poly_eval(np.abs(coeffs), np.abs(z))
        if np.all(np.abs(_poly_eval(coeffs, z)) <= noise):
            return z
        z = base * (1.0 + 0.25 * rng.standard_normal(deg)) + 0.1 * radius * (
            rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
        )
    raise NoConvergence(f"root finder did not converge after {restarts + 1} attempts")


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of ``T`` with paired unit eigenvectors of ``T`` and ``T*``.

    ``x`` and ``y`` hold the vectors as columns; ``gap`` is the smallest
    pairwise eigenvalue distance.  Eigenvalues and ``gap`` are in the
    caller's units.  Biorthogonality <x_i, y_j> = 0 for
    i != j is validated at construction time.
    """

    n: int
    eigenvalues: tuple[complex, ...]
    x: CMatrix
    y: CMatrix
    gap: float

    def x_vec(self, i: int) -> np.ndarray:
        return self.x[:, i]

    def y_vec(self, i: int) -> np.ndarray:
        return self.y[:, i]


def _solve_shifted(m: CMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve m v = rhs, nudging the shift if m is exactly singular."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.solve(m + 1e-13 * np.eye(m.shape[0]), rhs)


def _kernel_direction(shifted: CMatrix, start: np.ndarray) -> np.ndarray:
    # inverse iteration: one solve plus two refinement steps
    v = start / np.linalg.norm(start)
    for _ in range(3):
        w = _solve_shifted(shifted, v)
        nw = np.linalg.norm(w)
        if nw == 0.0 or not np.isfinite(nw):
            break
        v = w / nw
    return v


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component positive real."""
    idx = int(np.argmax(np.abs(v) > 1e-8))
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def _eigvec(m: CMatrix, lam: complex) -> tuple[np.ndarray, float]:
    n = m.shape[0]
    shifted = m - lam * np.eye(n, dtype=complex)
    starts = [np.ones(n) + 1e-3 * np.arange(n)]
    starts += [np.eye(n)[k] for k in range(n)]
    best, best_res = None, math.inf
    for start in starts:
        v = _kernel_direction(shifted, start.astype(complex))
        res = float(np.linalg.norm(m @ v - lam * v))
        if res < best_res:
            best, best_res = v, res
        if best_res <= _RESIDUAL_TOL / 10:
            break
    return _fix_phase(best), best_res


def eigensystem(t: CMatrix, distinct_tol: float = 1e-6) -> SpectralData:
    """Full spectral data for ``t``, or a refusal if eigenvalues collide.

    Eigenvalues are sorted lexicographically by (real, imag).  Each
    ``y_i`` is computed directly as the kernel direction of
    ``T* - conj(lambda_i) I`` and cross-checked for biorthogonality
    against the ``x`` system.
    """
    n = t.shape[0]
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {t.shape}")
    if distinct_tol <= 0:
        raise ValueError("distinct_tol must be positive")
    rep, mu, s = normalize(t)

    roots = durand_kerner(characteristic_polynomial(rep))
    order = np.lexsort((roots.imag, roots.real))
    lam = roots[order]

    gap = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            gap = min(gap, abs(lam[i] - lam[j]))
    if n > 1 and gap <= distinct_tol:
        raise DegenerateSpectrum(
            f"eigenvalue gap {gap:.3e} of the normalized matrix at or below {distinct_tol:.1e}"
        )

    rep_a = adjoint(rep)
    xs = np.zeros((n, n), dtype=complex)
    ys = np.zeros((n, n), dtype=complex)
    for i in range(n):
        xi, res_x = _eigvec(rep, lam[i])
        yi, res_y = _eigvec(rep_a, np.conj(lam[i]))
        if res_x > _RESIDUAL_TOL or res_y > _RESIDUAL_TOL:
            raise NoConvergence(
                f"eigenvector residual {max(res_x, res_y):.3e} of the normalized matrix "
                f"exceeds {_RESIDUAL_TOL:.1e} for eigenvalue {mu + s * lam[i]}"
            )
        xs[:, i] = xi
        ys[:, i] = yi

    cross = ys.conj().T @ xs
    off = cross - np.diag(np.diag(cross))
    worst = float(np.max(np.abs(off))) if n > 1 else 0.0
    if worst > _BIORTHO_TOL:
        raise NoConvergence(f"biorthogonality defect {worst:.3e} exceeds {_BIORTHO_TOL:.1e}")

    xs.flags.writeable = False
    ys.flags.writeable = False
    return SpectralData(
        n=n,
        eigenvalues=tuple(mu + s * complex(v) for v in lam),
        x=xs,
        y=ys,
        gap=s * float(gap) if n > 1 else math.inf,
    )
