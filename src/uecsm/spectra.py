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
``_DISTINCT_TOL`` = 1e-6 (a gap of ``1e-6 * |T - mu I|_F`` in the
caller's units), or when the first-order uncertainty
``c n eps kappa_i`` of some eigenvalue reaches its distance to another
one, where ``kappa_i = 1 / |<x_i, y_i>|`` is Wilkinson's condition
number.  The second test is what catches a repeated eigenvalue that
rounding has split: ``eig`` resolves a k-fold eigenvalue only to about
``eps**(1/k)``, some 1e-4 for a 4x4 Jordan block, far above
``_DISTINCT_TOL``, but with a condition number near ``eps**(1/k - 1)``.

The checks run on a ``(B, n, n)`` stack: :func:`eigensystem_stack`
refuses row by row, with the refusal :func:`eigensystem` raises for
that matrix alone, and :func:`eigensystem` is its one-matrix case.  A
stacked ``eig`` or ``inv`` that LAPACK fails on is retried row by row.
The residual and biorthogonality checks first compare the largest
value of the whole stack with their tolerance, and build a row mask
only when that comparison fails, as it does for a NaN; the kernels take
conjugate transposes without :func:`~uecsm.matcore.adjoint`'s shape
check, since :func:`eigensystem_stack` checks the stack once.
The result carries the Gram matrices ``X*X`` and ``Y*Y``, which every
angle test reads.  It keeps the eigenvalues of the representatives with
their shifts and scales; the eigenvalues and gaps in the caller's units
are computed on first read, and a refusal text computes the value it
names only when it is written, since the analysis reads neither.

:func:`durand_kerner` is ``np.roots`` behind the package's input checks;
:func:`eigensystem` does not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Optional

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, NoConvergence, UecsmError
from .matcore import CMatrix, EPS, _indices, _require_finite, _require_square, representative

# eigenvalue gap of the representative at or below which the spectrum is degenerate
_DISTINCT_TOL = 1e-6
_RESIDUAL_TOL = 1e-7
_BIORTHO_TOL = 1e-7
# c in the refusal test c n eps kappa_i >= distance to the nearest eigenvalue
_CLUSTER_FACTOR = 100.0


def durand_kerner(coeffs) -> np.ndarray:
    """All roots of the polynomial with coefficients ``coeffs``, highest degree first.

    This is ``np.roots``: the eigenvalues of the companion matrix, from
    LAPACK's ``geev``.  Leading zeros are dropped, and a constant gives
    an empty complex array.  Coefficients that are not 1-D raise
    :class:`DimensionMismatch`, a NaN or infinite one ``ValueError``, and
    a failed ``geev`` :class:`NoConvergence`.  Nothing in the package
    calls it: it stays only because the benchmark's tracer wraps it,
    until ROADMAP item 1 removes both.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D array of coefficients, got shape {coeffs.shape}")
    _require_finite(coeffs)
    try:
        return np.roots(coeffs).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise _eig_failed(exc) from exc


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of ``T`` with paired unit eigenvectors of ``T`` and ``T*``.

    ``x`` and ``y`` hold the vectors as columns; ``gap`` is the smallest
    pairwise eigenvalue distance.  Eigenvalues and ``gap`` are in the
    caller's units, so they are inf or nan when the scale of ``T``
    exceeds the largest float.  Biorthogonality <x_i, y_j> = 0 for
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
    row hold placeholders.  The stack keeps the eigenvalues ``lam`` of
    the representatives with their shifts ``mu`` and scales ``s``; the
    eigenvalues and gaps in the caller's units are computed on first read.
    """

    lam: np.ndarray  # (B, n), of the representatives
    mu: np.ndarray  # (B,)
    s: np.ndarray  # (B,)
    rep_gap: np.ndarray  # (B,), of the representatives
    x: np.ndarray  # (B, n, n)
    y: np.ndarray  # (B, n, n)
    grams: np.ndarray  # (B, 2, n, n)
    refusals: tuple[Optional[UecsmError], ...]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """``(B, n)``, in the caller's units."""
        return _caller_units(self.lam, self.mu, self.s)

    @cached_property
    def gap(self) -> np.ndarray:
        """``(B,)``, in the caller's units; inf or nan, without a warning, where ``s`` overflowed."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.s * self.rep_gap if self.lam.shape[-1] > 1 else np.full(len(self.s), math.inf)

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


def _caller_units(lam: np.ndarray, mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``mu + s lam`` row by row: inf or nan, without a warning, where ``s`` overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        return mu[:, None] + s[:, None] * lam


@lru_cache(maxsize=64)
def _starts(count: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat offsets into ``count`` stacked ``(n,)`` rows or ``(n, n)`` matrices, read-only.

    ``[b, i]`` of the first is ``b n``, where row b starts; ``[b, r, 0]``
    of the second is ``(b n + r) n``, where row r of matrix b starts;
    ``[b, j]`` of the third is ``b n^2 + j``, entry j of the first row
    of matrix b.
    """
    return (
        _indices(np.repeat(np.arange(0, count * n, n), n).reshape(count, n)),
        _indices(np.arange(0, count * n * n, n).reshape(count, n, 1)),
        _indices(np.arange(0, count * n * n, n * n)[:, None] + np.arange(n)),
    )


def _grams(v: np.ndarray) -> np.ndarray:
    """``X*X`` and ``Y*Y`` as a ``(B, 2, n, n)`` array, from the stack of
    the ``B`` matrices ``X`` followed by the ``B`` matrices ``Y``."""
    g = v.conj().swapaxes(-1, -2) @ v
    return g.reshape(2, -1, *g.shape[1:]).swapaxes(0, 1)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each unit column positive real."""
    n = v.shape[-1]
    lead = (np.abs(v) > 1e-8).argmax(axis=1)
    # v[b, lead[b, j], j], at the flat index lead[b, j] n + b n^2 + j
    pivot = v.take(lead * n + _starts(len(v), n)[2])
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


def _worst(badness: np.ndarray) -> int:
    """The index of the largest entry, a NaN counting as the largest."""
    return int(np.argmax(np.nan_to_num(badness, nan=math.inf)))


def _eig_failed(exc: np.linalg.LinAlgError) -> NoConvergence:
    return NoConvergence(f"LAPACK eigensolver failed: {exc}")


def _singular(exc: np.linalg.LinAlgError) -> DegenerateSpectrum:
    return DegenerateSpectrum("eigenvector matrix is singular")


def _check_vectors(
    reps: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
    s: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    nearest: np.ndarray,
    refusals: list,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Normalize, phase and check the eigenvector systems of :func:`eigensystem_stack`.

    ``y`` is ``inv(X)*``; the shifts ``mu`` and scales ``s`` give the
    eigenvalues in the caller's units, which only a refusal text reads.
    Returns the unit vectors of both systems and their Gram matrices; a
    row that fails a check gets its refusal, unless it has one already.
    The checks run in order: conditioning, eigenvector residuals,
    biorthogonality.  The row masks of the last two are built only when
    the stack's largest residual or defect fails its tolerance, which a
    NaN does.  When every row is refused the remaining checks are
    skipped and None is returned.
    """
    count, n = len(x), x.shape[-1]
    # x_i is a unit vector and <x_i, y_i> = 1 before y_i is normalized,
    # so kappa_i = 1 / |<x_i, y_i / |y_i|>| = |y_i|
    kappa = np.hypot.reduce(np.abs(y), axis=1)
    uncertainty = _CLUSTER_FACTOR * n * EPS * kappa
    separated = uncertainty < nearest
    if not np.logical_and.reduce(separated, axis=None):

        def ill_conditioned(b: int) -> DegenerateSpectrum:
            i = _worst(uncertainty[b] / nearest[b])
            value = _caller_units(lam, mu, s)[b, i]
            return DegenerateSpectrum(
                f"eigenvalue {value} has condition number {kappa[b, i]:.3e}: its "
                f"uncertainty {uncertainty[b, i]:.3e} reaches the distance {nearest[b, i]:.3e} "
                "to another eigenvalue of the normalized matrix"
            )

        _refuse(refusals, ~np.logical_and.reduce(separated, axis=1), ill_conditioned)
        if all(refusals):
            return None

    # both systems in one stack: rows [0, count) hold x, the rest y
    v = np.concatenate([x, y / kappa[:, None, :]])
    v = _fix_phases(v)
    lam2 = np.concatenate([lam, lam.conj()])
    res = np.hypot.reduce(
        np.abs(np.concatenate([reps, reps.conj().swapaxes(-1, -2)]) @ v - v * lam2[:, None, :]), axis=1
    )
    res = np.maximum(res[:count], res[count:])
    x, y = v[:count], v[count:]
    grams = _grams(v)
    cross = y.conj().swapaxes(-1, -2) @ x
    cross.reshape(count, n * n)[:, :: n + 1] = 0.0
    cross = np.abs(cross)

    if not res.max() <= _RESIDUAL_TOL:

        def inaccurate(b: int) -> NoConvergence:
            i = _worst(res[b])
            value = _caller_units(lam, mu, s)[b, i]
            return NoConvergence(
                f"eigenvector residual {res[b, i]:.3e} of the normalized matrix "
                f"exceeds {_RESIDUAL_TOL:.1e} for eigenvalue {value}"
            )

        _refuse(refusals, ~np.logical_and.reduce(res <= _RESIDUAL_TOL, axis=1), inaccurate)
    if not cross.max() <= _BIORTHO_TOL:
        _refuse(
            refusals,
            ~(cross <= _BIORTHO_TOL).all(axis=(1, 2)),
            lambda b: NoConvergence(
                f"biorthogonality defect {cross[b].max():.3e} exceeds {_BIORTHO_TOL:.1e}"
            ),
        )
    return x, y, grams


def eigensystem(t: CMatrix) -> SpectralData:
    """Full spectral data for ``t``, or a refusal if eigenvalues collide.

    Eigenvalues are sorted lexicographically by (real, imag).  Each
    ``y_i`` is the normalized ``i``-th column of ``inv(X)*``; residuals
    of both systems and biorthogonality are checked against
    ``_RESIDUAL_TOL`` and ``_BIORTHO_TOL``.  This is the one-matrix case
    of :func:`eigensystem_stack`.
    """
    return eigensystem_stack(*representative(t)).row(0)


def eigensystem_stack(reps: np.ndarray, mu: np.ndarray, s: np.ndarray) -> SpectralStack:
    """:func:`eigensystem` of every matrix of a stack, refusing row by row.

    Takes the output of :func:`~uecsm.matcore.normalize_stack`: the
    ``(B, n, n)`` representatives with their shifts and scales.  Every
    check runs on the whole stack at once; a row that fails one keeps
    the refusal of the first check it failed, in the order
    :func:`eigensystem` runs them.
    """
    n = _require_square(reps, stacked=True)
    count = len(reps)
    refusals: list[Optional[UecsmError]] = [None] * count

    w, x = _rowwise(np.linalg.eig, reps, refusals, _eig_failed)
    # complex values sort by real part, then imaginary part; lam[b, i] and
    # x[b, r, i] are w and x at the flat indices b n + order[b, i] and
    # (b n + r) n + order[b, i]
    order = w.argsort(axis=1)
    row_starts, matrix_rows, _ = _starts(count, n)
    lam = w.take(order + row_starts)
    x = x.take(order[:, None, :] + matrix_rows)

    dist = np.abs(lam[:, :, None] - lam[:, None, :])
    dist.reshape(count, n * n)[:, :: n + 1] = math.inf
    nearest = np.minimum.reduce(dist, axis=2)
    gap = np.minimum.reduce(nearest, axis=1)
    degenerate = gap <= _DISTINCT_TOL
    any_degenerate = np.logical_or.reduce(degenerate)
    if any_degenerate:
        _refuse(
            refusals,
            degenerate,
            lambda b: DegenerateSpectrum(
                f"eigenvalue gap {gap[b]:.3e} of the normalized matrix at or below {_DISTINCT_TOL:.1e}"
            ),
        )

    checked = None
    if not all(refusals):
        if any_degenerate:
            # a refused row inverts the identity, so it cannot make the stack singular
            x = np.where(degenerate[:, None, None], np.eye(n), x)
        y = _rowwise(np.linalg.inv, x, refusals, _singular).conj().swapaxes(-1, -2)
        checked = _check_vectors(reps, lam, mu, s, x, y, nearest, refusals)
    if checked is None:
        # every row was refused: the arrays are placeholders
        x = y = np.zeros((count, n, n), dtype=complex)
        grams = np.zeros((count, 2, n, n), dtype=complex)
    else:
        x, y, grams = checked

    for a in (x, y, grams):
        a.flags.writeable = False
    return SpectralStack(lam, mu, s, gap, x, y, grams, tuple(refusals))
