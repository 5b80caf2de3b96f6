"""Eigenvector angle criteria: WAT, SAT, LSAT and the 3x3 determinant test.

All four consume :class:`~uecsm.spectra.SpectralData`.  The weak test
compares moduli of pairwise inner products between the two eigenvector
systems and is necessary for UECSM; the strong test compares cyclic
triple products against the conjugated ones and is equivalent to UECSM
for distinct spectra; the linear variant drops the conjugation and
instead detects conjugation-by-D similarity through an indefinite
special unitary group.  Triple products are invariant under re-phasing
of individual eigenvectors, so none of this depends on the phase
convention used upstream.  Every test reads its inner products from
the Gram matrices ``X*X`` and ``Y*Y`` that the eigensystem returns.

The deviations are computed on a ``(B, 2, n, n)`` stack of Gram
matrices, and every test returns a :class:`~uecsm.tracetests.Verdict`
per row.  :func:`wat`, :func:`sat`, :func:`lsat` and
:func:`det_criterion_3` are their one-matrix case.  One row kernel
composes all four: :func:`angle_verdicts` runs it on every row of a
:class:`~uecsm.spectra.SpectralStack` at once, and :func:`angle_suite`
is its one-matrix case.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional, Union

import numpy as np

from .errors import ConsistencyError, DimensionMismatch, OrthogonalEigenvectors, UecsmError
from .matcore import CMatrix
from .spectra import SpectralData, SpectralStack, eigensystem
from .tracetests import DEFAULT_TOL, Verdict

_IDENTITY_CHECK_TOL = 1e-9
_ORTHOGONAL_FLOOR = 1e-10

# Denominator floor for the relative triple-product comparison.  Exact-zero
# triples (orthogonal eigenvector pairs occur for honest inputs) otherwise
# divide rounding noise by machine epsilon and report order-one deviations.
# Below this scale the comparison is absolute; a genuine violation would
# need |lhs - rhs| < tol * 1e-4, indistinguishable from equality in doubles.
_TRIPLE_FLOOR = 1e-4


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple:
    """Index arrays of the pairs i < j in lexicographic order and their 1-based names."""
    i, j = _read_only(*np.triu_indices(n, 1))
    return i, j, tuple(f"pair_{a + 1}_{b + 1}" for a, b in zip(i.tolist(), j.tolist()))


@lru_cache(maxsize=None)
def _triple_index(n: int) -> tuple:
    """Index arrays of the triples i <= j <= k in lexicographic order and their 1-based names."""
    triples = list(combinations_with_replacement(range(n), 3))
    i, j, k = _read_only(*(np.array(col, dtype=np.intp) for col in zip(*triples)))
    return i, j, k, tuple(f"triple_{a + 1}_{b + 1}_{c + 1}" for a, b, c in triples)


def _wat_rows(grams: np.ndarray, tol: float) -> list[Verdict]:
    """WAT of every row: ``| |<x_i,x_j>| - |<y_i,y_j>| |`` for the pairs i < j.

    ``grams`` is a ``(B, 2, n, n)`` stack of ``X*X`` and ``Y*Y``, whose
    ``[j, i]`` entries are ``<x_i, x_j>`` and ``<y_i, y_j>``.
    """
    i, j, names = _pair_index(grams.shape[-1])
    moduli = np.abs(grams[:, :, j, i])
    return Verdict.from_rows("wat", names, np.abs(moduli[:, 0] - moduli[:, 1]), tol)


def _triple_rows(grams: np.ndarray, tol: float) -> dict[str, list[Verdict]]:
    """SAT and LSAT of every row: relative deviations for the triples i <= j <= k.

    Both compare the same triple products, SAT with the y products
    conjugated; as ``|conj z| = |z|`` they also share the denominator.
    """
    # <x_i,x_j> <x_j,x_k> <x_k,x_i> and likewise from the y system
    i, j, k, names = _triple_index(grams.shape[-1])
    products = grams[:, :, j, i] * grams[:, :, k, j] * grams[:, :, i, k]
    lhs, rhs = products[:, 0], products[:, 1]
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _TRIPLE_FLOOR)
    return {
        "sat": Verdict.from_rows("sat", names, np.abs(lhs - rhs.conj()) / scale, tol),
        "lsat": Verdict.from_rows("lsat", names, np.abs(lhs - rhs) / scale, tol),
    }


def wat(s: SpectralData, tol: float = DEFAULT_TOL) -> Verdict:
    """Weak Angle Test: |<x_i,x_j>| = |<y_i,y_j>| for all pairs i < j.

    The residuals are named ``pair_i_j`` with 1-based indices.
    """
    return _wat_rows(s.grams[None], tol)[0]


def sat(s: SpectralData, tol: float = DEFAULT_TOL) -> Verdict:
    """Strong Angle Test over all triples i <= j <= k.

    Cyclic triple products of the x system must equal the conjugated
    triple products of the y system; deviations are relative to the
    larger product magnitude.  Passing is equivalent to UECSM when the
    spectrum is distinct.  The residuals are named ``triple_i_j_k`` with
    1-based indices.
    """
    return _triple_rows(s.grams[None], tol)["sat"][0]


def lsat(s: SpectralData, tol: float = DEFAULT_TOL) -> Verdict:
    """Linear Strong Angle Test: same triples as SAT without the conjugation."""
    return _triple_rows(s.grams[None], tol)["lsat"][0]


_DET3_NAMES = (
    "determinant_gap",
    "det_vs_pairing_1",
    "det_vs_pairing_2",
    "det_vs_pairing_3",
    "dual_det_vs_pairing",
)


def _det3_residuals(
    x: np.ndarray, y: np.ndarray, grams: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The determinant criterion's residuals ``(B, 5)`` and smallest pairwise ``|<x_i,x_j>|`` ``(B,)``.

    The residuals are the determinant gap followed by the four
    cross-check identities, named as in :data:`_DET3_NAMES`.
    """
    # |<x_1,x_2>|, |<x_2,x_3>|, |<x_3,x_1>| and |<y_2,y_3>|
    p = np.abs(grams[:, 0, (1, 2, 0), (0, 1, 2)])
    q23 = np.abs(grams[:, 1, 2, 1])
    apart = 1 - p**2
    dets = np.linalg.det(grams).real  # det X*X, det Y*Y
    # |<x_i, y_i>|^2
    pairing = np.abs(np.sum(y.conj() * x, axis=1)) ** 2
    expected = np.concatenate(
        [
            apart.prod(axis=1, keepdims=True),
            # cross-check identities tying det X*X and det Y*Y to the dual pairings
            pairing * apart[:, (1, 2, 0)],
            (pairing[:, 0] * (1 - q23**2))[:, None],
        ],
        axis=1,
    )
    return np.abs(dets[:, (0, 0, 0, 0, 1)] - expected), p.min(axis=1)


def _det3_outcome(residuals: np.ndarray, smallest: float) -> Optional[UecsmError]:
    """Why the determinant criterion does not apply to one row, or None."""
    if smallest < _ORTHOGONAL_FLOOR:
        return OrthogonalEigenvectors(
            "a pairwise eigenvector inner product vanishes; criterion inapplicable"
        )
    worst_check = float(residuals[1:].max())
    if worst_check > _IDENTITY_CHECK_TOL:
        return ConsistencyError(
            f"determinant identity cross-check failed at {worst_check:.3e}; "
            "spectral data is not trustworthy"
        )
    return None


def det_criterion_3(s: SpectralData, tol: float = DEFAULT_TOL) -> Verdict:
    """3x3 determinant criterion det X*X = prod (1 - |<x_i,x_j>|^2).

    Requires all pairwise eigenvector inner products to be nonzero;
    otherwise raises :class:`OrthogonalEigenvectors` and the caller
    should fall back to the trace test.  Spectral data of any other
    size raises :class:`DimensionMismatch`.  Four auxiliary determinant
    identities are recomputed on every call as a consistency check of
    the spectral data.
    """
    if s.n != 3:
        raise DimensionMismatch(f"det_criterion_3 requires a 3x3 matrix, got n = {s.n}")
    residuals, smallest = _det3_residuals(s.x[None], s.y[None], s.grams[None])
    refusal = _det3_outcome(residuals[0], float(smallest[0]))
    if refusal is not None:
        raise refusal
    return Verdict.from_rows("det_criterion_3", _DET3_NAMES, residuals, tol)[0]


def _angle_rows(
    x: np.ndarray, y: np.ndarray, grams: np.ndarray, rows: Union[list[int], slice], tol: float
) -> list[Union[dict[str, Verdict], ConsistencyError]]:
    """The angle verdicts of the given rows of stacked eigenvector systems.

    ``x`` and ``y`` are ``(B, n, n)`` stacks and ``grams`` their
    ``(B, 2, n, n)`` Gram matrices.  One pair of Gram matrices serves
    WAT, SAT, LSAT and, at n = 3, the determinant criterion, whose
    verdict a row gets only when the criterion applies to it.  A row
    whose determinant cross-check fails gets its
    :class:`ConsistencyError` in place of the verdicts.
    """
    grams = grams[rows]
    columns = {"wat": _wat_rows(grams, tol), **_triple_rows(grams, tol)}
    det3_outcomes: list[Optional[UecsmError]] = [None] * len(grams)
    if grams.shape[-1] == 3:
        residuals, smallest = _det3_residuals(x[rows], y[rows], grams)
        det3_outcomes = [_det3_outcome(r, m) for r, m in zip(residuals, smallest.tolist())]
        columns["det3"] = Verdict.from_rows("det_criterion_3", _DET3_NAMES, residuals, tol)
    out: list[Union[dict[str, Verdict], ConsistencyError]] = []
    for r, outcome in enumerate(det3_outcomes):
        if isinstance(outcome, ConsistencyError):
            out.append(outcome)
            continue
        out.append(
            {
                key: verdicts[r]
                for key, verdicts in columns.items()
                if key != "det3" or outcome is None
            }
        )
    return out


def angle_suite(t: CMatrix, tol: float = DEFAULT_TOL) -> dict[str, Verdict]:
    """Run the eigensystem and every applicable angle criterion on one matrix.

    Returns the verdicts by report key: ``wat``, ``sat``, ``lsat`` and,
    when it applies, ``det3``.  SAT is the equivalence for a distinct
    spectrum; WAT and LSAT are diagnostics.  Raises the refusal of the
    eigensystem (:class:`~uecsm.errors.DegenerateSpectrum` or
    :class:`~uecsm.errors.NoConvergence`), after which callers should
    rely on the trace criteria alone, and :class:`ConsistencyError` when
    the determinant cross-check fails.  This is the one-matrix case of
    :func:`angle_verdicts`.
    """
    s = eigensystem(t)
    outcome = _angle_rows(s.x[None], s.y[None], s.grams[None], slice(None), tol)[0]
    if isinstance(outcome, ConsistencyError):
        raise outcome
    return outcome


def angle_verdicts(
    spectral: SpectralStack, tol: float = DEFAULT_TOL
) -> list[Union[dict[str, Verdict], UecsmError]]:
    """:func:`angle_suite` of every row of a spectral stack.

    A row that the eigensystem refused gets its refusal; a row whose
    determinant cross-check fails gets the :class:`ConsistencyError`
    that :func:`angle_suite` raises.
    """
    out: list[Union[dict[str, Verdict], UecsmError]] = list(spectral.refusals)
    rows = [b for b, refusal in enumerate(spectral.refusals) if refusal is None]
    if rows:
        outcomes = _angle_rows(spectral.x, spectral.y, spectral.grams, rows, tol)
        for b, outcome in zip(rows, outcomes):
            out[b] = outcome
    return out
