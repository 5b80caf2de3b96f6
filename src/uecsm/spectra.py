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

The checks run on a ``(B, n, n)`` stack: :func:`eigensystem_stack`
refuses row by row, with the refusal :func:`eigensystem` raises for
that matrix alone, and :func:`eigensystem` is its one-matrix case.  A
stacked ``eig`` or ``inv`` that LAPACK fails on is retried row by row.
The result carries the Gram matrices ``X*X`` and ``Y*Y``, which every
angle test reads.

:func:`characteristic_polynomial` (Faddeev-LeVerrier) and
:func:`durand_kerner` are standalone utilities; :func:`eigensystem`
does not use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import DegenerateSpectrum, NoConvergence, UecsmError
from .matcore import CMatrix, EPS, _require_square, adjoint, representative

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
    i != j is validated at construction time.  ``grams`` holds the Gram
    matrices ``X*X`` and ``Y*Y`` that the angle tests read; it is
    computed from ``x`` and ``y`` when not given.
    """

    n: int
    eigenvalues: tuple[complex, ...]
    x: CMatrix
    y: CMatrix
    gap: float
    grams: Optional[np.ndarray] = None  # (2, n, n)

    def __post_init__(self) -> None:
        if self.grams is None:
            object.__setattr__(self, "grams", _grams(np.stack((self.x, self.y)))[0])


@dataclass(frozen=True)
class SpectralStack:
    """:class:`SpectralData` of every matrix of a ``(B, n, n)`` stack.

    ``refusals[b]`` is ``None`` when row ``b`` passed every check, else
    the :class:`DegenerateSpectrum` or :class:`NoConvergence` that
    :func:`eigensystem` raises for that matrix; the arrays of a refused
    row hold placeholders.
    """

    eigenvalues: np.ndarray  # (B, n), caller's units
    x: np.ndarray  # (B, n, n)
    y: np.ndarray  # (B, n, n)
    grams: np.ndarray  # (B, 2, n, n)
    gap: np.ndarray  # (B,), caller's units
    refusals: tuple[Optional[UecsmError], ...]

    def row(self, b: int) -> SpectralData:
        """The data of row ``b``, or its refusal raised."""
        refusal = self.refusals[b]
        if refusal is not None:
            # a copy, so that the traceback does not tie the stored refusal
            # into a reference cycle through this frame
            raise type(refusal)(*refusal.args) from refusal.__cause__
        return SpectralData(
            n=self.x.shape[-1],
            eigenvalues=tuple(self.eigenvalues[b].tolist()),
            x=self.x[b],
            y=self.y[b],
            gap=float(self.gap[b]),
            grams=self.grams[b],
        )


def _grams(v: np.ndarray) -> np.ndarray:
    """``X*X`` and ``Y*Y`` as a ``(B, 2, n, n)`` array, from the stack of
    the ``B`` matrices ``X`` followed by the ``B`` matrices ``Y``."""
    g = adjoint(v) @ v
    return g.reshape(2, -1, *g.shape[1:]).swapaxes(0, 1)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each unit column positive real."""
    lead = np.argmax(np.abs(v) > 1e-8, axis=1)
    pivot = v[np.arange(len(v))[:, None], lead, np.arange(v.shape[-1])]
    return v * (pivot.conj() / np.abs(pivot))[:, None, :]


def _caused(error: UecsmError, cause: BaseException) -> UecsmError:
    # the cause keeps no traceback: its frames hold the list the error is
    # stored in, which would make a reference cycle
    error.__cause__ = cause.with_traceback(None)
    return error


def _rowwise(solve, a: np.ndarray, refusals: list, refusal) -> Any:
    """``solve(a)`` on a whole stack, or row by row when LAPACK fails on some row.

    A row that fails on its own gets ``refusal(exc)`` (unless it was
    refused already) and the solution of the identity as a placeholder.
    """
    try:
        return solve(a)
    except np.linalg.LinAlgError:
        pass
    placeholder = solve(np.eye(a.shape[-1], dtype=complex))
    rows = []
    for b, matrix in enumerate(a):
        try:
            rows.append(solve(matrix))
        except np.linalg.LinAlgError as exc:
            if refusals[b] is None:
                refusals[b] = _caused(refusal(exc), exc)
            rows.append(placeholder)
    if isinstance(placeholder, tuple):
        return tuple(np.stack(parts) for parts in zip(*rows))
    return np.stack(rows)


def _refuse(refusals: list, bad: np.ndarray, refusal) -> None:
    """Give each row flagged in ``bad`` that has no refusal yet ``refusal(row)``."""
    for b, flagged in enumerate(bad.tolist()):
        if flagged and refusals[b] is None:
            refusals[b] = refusal(b)


def _check_vectors(
    reps: np.ndarray,
    lam: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    values: np.ndarray,
    nearest: np.ndarray,
    refusals: list,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Normalize, phase and check the eigenvector systems of :func:`eigensystem_stack`.

    ``y`` is ``inv(X)*``.  Returns the unit vectors of both systems and
    their Gram matrices; a row that fails a check gets its refusal,
    unless it has one already.  The checks run in order: conditioning,
    eigenvector residuals, biorthogonality.  When every row is refused
    the remaining checks are skipped and None is returned.
    """
    count, n = len(x), x.shape[-1]

    def worst(badness: np.ndarray) -> int:
        return int(np.argmax(np.nan_to_num(badness, nan=math.inf)))

    # x_i is a unit vector and <x_i, y_i> = 1 before y_i is normalized,
    # so kappa_i = 1 / |<x_i, y_i / |y_i|>| = |y_i|
    kappa = np.hypot.reduce(np.abs(y), axis=1)
    uncertainty = _CLUSTER_FACTOR * n * EPS * kappa
    if not (uncertainty < nearest).all():

        def ill_conditioned(b: int) -> DegenerateSpectrum:
            i = worst(uncertainty[b] / nearest[b])
            return DegenerateSpectrum(
                f"eigenvalue {values[b, i]} has condition number {kappa[b, i]:.3e}: its "
                f"uncertainty {uncertainty[b, i]:.3e} reaches the distance {nearest[b, i]:.3e} "
                "to another eigenvalue of the normalized matrix"
            )

        _refuse(refusals, ~(uncertainty < nearest).all(axis=1), ill_conditioned)
        if all(refusals):
            return None

    # both systems in one stack: rows [0, count) hold x, the rest y
    v = np.concatenate([x, y / kappa[:, None, :]])
    v = _fix_phases(v)
    lam2 = np.concatenate([lam, lam.conj()])
    res = np.hypot.reduce(
        np.abs(np.concatenate([reps, adjoint(reps)]) @ v - v * lam2[:, None, :]), axis=1
    )
    res = np.maximum(res[:count], res[count:])
    x, y = v[:count], v[count:]
    grams = _grams(v)
    cross = adjoint(y) @ x
    cross.reshape(count, n * n)[:, :: n + 1] = 0.0
    cross = np.abs(cross)

    if not (res <= _RESIDUAL_TOL).all():

        def inaccurate(b: int) -> NoConvergence:
            i = worst(res[b])
            return NoConvergence(
                f"eigenvector residual {res[b, i]:.3e} of the normalized matrix "
                f"exceeds {_RESIDUAL_TOL:.1e} for eigenvalue {values[b, i]}"
            )

        _refuse(refusals, ~(res <= _RESIDUAL_TOL).all(axis=1), inaccurate)
    if not (cross <= _BIORTHO_TOL).all():
        _refuse(
            refusals,
            ~(cross <= _BIORTHO_TOL).all(axis=(1, 2)),
            lambda b: NoConvergence(
                f"biorthogonality defect {cross[b].max():.3e} exceeds {_BIORTHO_TOL:.1e}"
            ),
        )
    return x, y, grams


def eigensystem(t: CMatrix, distinct_tol: float = 1e-6) -> SpectralData:
    """Full spectral data for ``t``, or a refusal if eigenvalues collide.

    Eigenvalues are sorted lexicographically by (real, imag).  Each
    ``y_i`` is the normalized ``i``-th column of ``inv(X)*``; residuals
    of both systems and biorthogonality are checked against
    ``_RESIDUAL_TOL`` and ``_BIORTHO_TOL``.  This is the one-matrix case
    of :func:`eigensystem_stack`.
    """
    return eigensystem_stack(*representative(t), distinct_tol).row(0)


def eigensystem_stack(
    reps: np.ndarray, mu: np.ndarray, s: np.ndarray, distinct_tol: float = 1e-6
) -> SpectralStack:
    """:func:`eigensystem` of every matrix of a stack, refusing row by row.

    Takes the output of :func:`~uecsm.matcore.normalize_stack`: the
    ``(B, n, n)`` representatives with their shifts and scales.  Every
    check runs on the whole stack at once; a row that fails one keeps
    the refusal of the first check it failed, in the order
    :func:`eigensystem` runs them.
    """
    n = _require_square(reps, stacked=True)
    if distinct_tol <= 0:
        raise ValueError("distinct_tol must be positive")
    count = len(reps)
    rows = np.arange(count)[:, None]
    refusals: list[Optional[UecsmError]] = [None] * count

    w, x = _rowwise(
        np.linalg.eig, reps, refusals, lambda exc: NoConvergence(f"LAPACK eigensolver failed: {exc}")
    )
    # complex values sort by real part, then imaginary part
    order = np.argsort(w, axis=1)
    lam = w[rows, order]
    x = x.swapaxes(1, 2)[rows, order].swapaxes(1, 2)

    dist = np.abs(lam[:, :, None] - lam[:, None, :])
    dist.reshape(count, n * n)[:, :: n + 1] = math.inf
    nearest = dist.min(axis=2)
    gap = nearest.min(axis=1)
    values = mu[:, None] + s[:, None] * lam  # in the caller's units
    degenerate = gap <= distinct_tol
    _refuse(
        refusals,
        degenerate,
        lambda b: DegenerateSpectrum(
            f"eigenvalue gap {gap[b]:.3e} of the normalized matrix at or below {distinct_tol:.1e}"
        ),
    )

    checked = None
    if not all(refusals):
        if degenerate.any():
            # a refused row inverts the identity, so it cannot make the stack singular
            x = np.where(degenerate[:, None, None], np.eye(n), x)
        y = adjoint(
            _rowwise(
                np.linalg.inv,
                x,
                refusals,
                lambda exc: DegenerateSpectrum("eigenvector matrix is singular"),
            )
        )
        checked = _check_vectors(reps, lam, x, y, values, nearest, refusals)
    if checked is None:
        # every row was refused: the arrays are placeholders
        x = y = np.zeros((count, n, n), dtype=complex)
        grams = np.zeros((count, 2, n, n), dtype=complex)
    else:
        x, y, grams = checked

    for a in (x, y, grams):
        a.flags.writeable = False
    return SpectralStack(
        eigenvalues=values,
        x=x,
        y=y,
        grams=grams,
        gap=s * gap if n > 1 else np.full(count, math.inf),
        refusals=tuple(refusals),
    )
