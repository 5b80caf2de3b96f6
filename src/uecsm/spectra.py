"""Eigendecomposition for small matrices with distinct eigenvalues.

:func:`eigensystem` runs LAPACK's ``geev`` (:func:`numpy.linalg.eig`)
on the centered, normalized representative ``(T - mu I) / s`` of
:func:`~uecsm.matcore.normalize`, which has the same eigenvectors as
``T``, so every tolerance is absolute on a unit-norm matrix.  It pairs
each unit eigenvector ``x_i`` of ``T`` with the unit eigenvector ``y_i``
of ``T*`` belonging to the conjugate eigenvalue: the ``y_i`` are the
normalized columns of ``inv(X)*``, so biorthogonality holds by
construction.  Downstream angle tests consume exactly this pairing.

The result is validated before it is returned: eigenvector residuals
of both systems and the biorthogonality defect must be small, else
:class:`NoConvergence`.  The angle tests are undefined for repeated
eigenvalues, and we refuse rather than guess: :class:`DegenerateSpectrum`
is raised when the representative has an eigenvalue gap at or below
``distinct_tol`` (a gap of ``distinct_tol * |T - mu I|_F`` in the
caller's units), or when the first-order uncertainty
``c n eps kappa_i`` of some eigenvalue reaches its distance to another
one, where ``kappa_i = 1 / |<x_i, y_i>|`` is Wilkinson's condition
number.  The second test is what catches a repeated eigenvalue that
rounding has split: ``eig`` resolves a k-fold eigenvalue only to about
``eps**(1/k)``, some 1e-4 for a 4x4 Jordan block, far above
``distinct_tol``, but with a condition number near ``eps**(1/k - 1)``.

:func:`characteristic_polynomial` (Faddeev-LeVerrier) and
:func:`durand_kerner` are standalone utilities; :func:`eigensystem`
does not use them.
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
# c in the refusal test c n eps kappa_i >= distance to the nearest eigenvalue
_CLUSTER_FACTOR = 100.0


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


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each unit column positive real."""
    pivot = v[np.argmax(np.abs(v) > 1e-8, axis=0), np.arange(v.shape[1])]
    return v * (np.conj(pivot) / np.abs(pivot))


def eigensystem(t: CMatrix, distinct_tol: float = 1e-6) -> SpectralData:
    """Full spectral data for ``t``, or a refusal if eigenvalues collide.

    Eigenvalues are sorted lexicographically by (real, imag).  Each
    ``y_i`` is the normalized ``i``-th column of ``inv(X)*``; residuals
    of both systems and biorthogonality are checked against
    ``_RESIDUAL_TOL`` and ``_BIORTHO_TOL``.
    """
    n = t.shape[0]
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {t.shape}")
    if distinct_tol <= 0:
        raise ValueError("distinct_tol must be positive")
    rep, mu, s = normalize(t)

    try:
        w, x = np.linalg.eig(rep)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from exc
    order = np.lexsort((w.imag, w.real))
    lam, x = w[order], x[:, order]

    dist = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(dist, math.inf)
    nearest = dist.min(axis=1)
    gap = float(nearest.min())
    if gap <= distinct_tol:
        raise DegenerateSpectrum(
            f"eigenvalue gap {gap:.3e} of the normalized matrix at or below {distinct_tol:.1e}"
        )

    try:
        y = adjoint(np.linalg.inv(x))
    except np.linalg.LinAlgError as exc:
        raise DegenerateSpectrum("eigenvector matrix is singular") from exc
    # x_i is a unit vector and <x_i, y_i> = 1 before y_i is normalized,
    # so kappa_i = 1 / |<x_i, y_i / |y_i|>| = |y_i|
    kappa = np.linalg.norm(y, axis=0)
    y = y / kappa
    uncertainty = _CLUSTER_FACTOR * n * EPS * kappa
    if not np.all(uncertainty < nearest):
        i = int(np.argmax(np.nan_to_num(uncertainty / nearest, nan=math.inf)))
        raise DegenerateSpectrum(
            f"eigenvalue {mu + s * lam[i]} has condition number {kappa[i]:.3e}: its "
            f"uncertainty {uncertainty[i]:.3e} reaches the distance {nearest[i]:.3e} to "
            "another eigenvalue of the normalized matrix"
        )

    x = _fix_phases(x)
    y = _fix_phases(y)
    res = np.maximum(
        np.linalg.norm(rep @ x - x * lam, axis=0),
        np.linalg.norm(adjoint(rep) @ y - y * lam.conj(), axis=0),
    )
    if not np.all(res <= _RESIDUAL_TOL):
        i = int(np.argmax(np.nan_to_num(res, nan=math.inf)))
        raise NoConvergence(
            f"eigenvector residual {res[i]:.3e} of the normalized matrix "
            f"exceeds {_RESIDUAL_TOL:.1e} for eigenvalue {mu + s * lam[i]}"
        )

    cross = adjoint(y) @ x
    np.fill_diagonal(cross, 0.0)
    worst = float(np.abs(cross).max())
    if not worst <= _BIORTHO_TOL:
        raise NoConvergence(f"biorthogonality defect {worst:.3e} exceeds {_BIORTHO_TOL:.1e}")

    x.flags.writeable = False
    y.flags.writeable = False
    return SpectralData(
        n=n,
        eigenvalues=tuple(mu + s * complex(v) for v in lam),
        x=x,
        y=y,
        gap=s * gap if n > 1 else math.inf,
    )
