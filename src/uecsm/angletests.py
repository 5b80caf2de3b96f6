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
matrices.  :func:`wat`, :func:`sat`, :func:`lsat` and
:func:`det_criterion_3` are its one-matrix case, and
:func:`angle_verdicts` runs all four on every row of a
:class:`~uecsm.spectra.SpectralStack` at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional, Union

import numpy as np

from .errors import ConsistencyError, OrthogonalEigenvectors, UecsmError
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


@dataclass(frozen=True)
class AngleReport:
    """Verdict plus the per-pair or per-triple deviations behind it.

    Indices in the deviation keys are 1-based.
    """

    verdict: Verdict
    pair_deviations: tuple[tuple[tuple[int, int], float], ...] = ()
    triple_deviations: tuple[tuple[tuple[int, int, int], float], ...] = ()


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _pair_index(n: int) -> tuple:
    """Index arrays of the pairs i < j in lexicographic order, their 1-based keys and names."""
    i, j = _read_only(*np.triu_indices(n, 1))
    keys = tuple(zip((i + 1).tolist(), (j + 1).tolist()))
    return i, j, keys, tuple(f"pair_{a}_{b}" for a, b in keys)


@lru_cache(maxsize=None)
def _triple_index(n: int) -> tuple:
    """Index arrays of the triples i <= j <= k in lexicographic order, their 1-based keys and names."""
    triples = list(combinations_with_replacement(range(n), 3))
    i, j, k = _read_only(*(np.array(col, dtype=np.intp) for col in zip(*triples)))
    keys = tuple((a + 1, b + 1, c + 1) for a, b, c in triples)
    return i, j, k, keys, tuple(f"triple_{a}_{b}_{c}" for a, b, c in keys)


def _pair_deviations(grams: np.ndarray) -> np.ndarray:
    """``| |<x_i,x_j>| - |<y_i,y_j>| |`` for the pairs i < j, as a ``(B, pairs)`` array.

    ``grams`` is a ``(B, 2, n, n)`` stack of ``X*X`` and ``Y*Y``, whose
    ``[j, i]`` entries are ``<x_i, x_j>`` and ``<y_i, y_j>``.
    """
    i, j = _pair_index(grams.shape[-1])[:2]
    moduli = np.abs(grams[:, :, j, i])
    return np.abs(moduli[:, 0] - moduli[:, 1])


def _triple_deviations(grams: np.ndarray, conjugate: bool) -> np.ndarray:
    """Relative triple-product deviations for the triples i <= j <= k, as a ``(B, triples)`` array."""
    # <x_i,x_j> <x_j,x_k> <x_k,x_i> and likewise from the y system
    i, j, k = _triple_index(grams.shape[-1])[:3]
    products = grams[:, :, j, i] * grams[:, :, k, j] * grams[:, :, i, k]
    lhs, rhs = products[:, 0], products[:, 1]
    if conjugate:
        rhs = rhs.conj()
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _TRIPLE_FLOOR)
    return np.abs(lhs - rhs) / scale


def wat(s: SpectralData, tol: float = DEFAULT_TOL) -> AngleReport:
    """Weak Angle Test: |<x_i,x_j>| = |<y_i,y_j>| for all pairs i < j."""
    devs = _pair_deviations(s.grams[None])
    _, _, keys, names = _pair_index(s.n)
    verdict = Verdict.from_rows("wat", names, devs, tol)[0]
    return AngleReport(verdict, pair_deviations=tuple(zip(keys, (r for _, r in verdict.residuals))))


def _triple_report(s: SpectralData, tol: float, conjugate: bool, name: str) -> AngleReport:
    devs = _triple_deviations(s.grams[None], conjugate)
    _, _, _, keys, names = _triple_index(s.n)
    verdict = Verdict.from_rows(name, names, devs, tol)[0]
    return AngleReport(verdict, triple_deviations=tuple(zip(keys, (r for _, r in verdict.residuals))))


def sat(s: SpectralData, tol: float = DEFAULT_TOL) -> AngleReport:
    """Strong Angle Test over all triples i <= j <= k.

    Cyclic triple products of the x system must equal the conjugated
    triple products of the y system; deviations are relative to the
    larger product magnitude.  Passing is equivalent to UECSM when the
    spectrum is distinct.
    """
    return _triple_report(s, tol, conjugate=True, name="sat")


def lsat(s: SpectralData, tol: float = DEFAULT_TOL) -> AngleReport:
    """Linear Strong Angle Test: same triples as SAT without the conjugation."""
    return _triple_report(s, tol, conjugate=False, name="lsat")


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
    should fall back to the trace test.  Four auxiliary determinant
    identities are recomputed on every call as a consistency check of
    the spectral data.
    """
    if s.n != 3:
        raise OrthogonalEigenvectors("determinant criterion is defined for n = 3 only")
    residuals, smallest = _det3_residuals(s.x[None], s.y[None], s.grams[None])
    refusal = _det3_outcome(residuals[0], float(smallest[0]))
    if refusal is not None:
        raise refusal
    return Verdict.from_rows("det_criterion_3", _DET3_NAMES, residuals, tol)[0]


@dataclass(frozen=True)
class AngleSuite:
    """All angle reports for one matrix plus the implied UECSM verdict.

    ``det3`` is None when the determinant criterion was inapplicable
    (orthogonal eigenvector pair).  ``uecsm`` mirrors the SAT verdict,
    which is the equivalence; WAT and LSAT are diagnostics.
    """

    spectral: SpectralData
    wat: AngleReport
    sat: AngleReport
    lsat: AngleReport
    det3: Optional[Verdict]
    uecsm: bool

    def verdicts(self) -> dict[str, Verdict]:
        """The verdicts by report key: ``wat``, ``sat``, ``lsat`` and, when it applied, ``det3``."""
        out = {"wat": self.wat.verdict, "sat": self.sat.verdict, "lsat": self.lsat.verdict}
        if self.det3 is not None:
            out["det3"] = self.det3
        return out


def angle_suite(t: CMatrix, tol: float = DEFAULT_TOL, distinct_tol: float = 1e-6) -> AngleSuite:
    """Run the eigensystem and every applicable angle criterion.

    Propagates :class:`~uecsm.errors.DegenerateSpectrum` when the
    spectrum is not distinct; callers should then rely on the trace
    criteria alone.
    """
    s = eigensystem(t, distinct_tol=distinct_tol)
    wat_report = wat(s, tol)
    sat_report = sat(s, tol)
    lsat_report = lsat(s, tol)
    det3 = None
    if s.n == 3:
        try:
            det3 = det_criterion_3(s, tol)
        except OrthogonalEigenvectors:
            det3 = None
    return AngleSuite(
        spectral=s,
        wat=wat_report,
        sat=sat_report,
        lsat=lsat_report,
        det3=det3,
        uecsm=sat_report.verdict.passed,
    )


def angle_verdicts(
    spectral: SpectralStack, tol: float = DEFAULT_TOL
) -> list[Union[dict[str, Verdict], UecsmError]]:
    """:meth:`AngleSuite.verdicts` of every row of a spectral stack.

    One pair of stacked Gram matrices serves WAT, SAT, LSAT and, at
    n = 3, the determinant criterion.  A row that the eigensystem refused
    gets its refusal; a row whose determinant cross-check fails gets the
    :class:`ConsistencyError` that :func:`angle_suite` raises.
    """
    out: list[Union[dict[str, Verdict], UecsmError]] = list(spectral.refusals)
    rows = [b for b, refusal in enumerate(spectral.refusals) if refusal is None]
    if not rows:
        return out
    grams = spectral.grams[rows]
    n = grams.shape[-1]
    _, _, _, pair_names = _pair_index(n)
    triple_names = _triple_index(n)[4]
    columns = {
        "wat": Verdict.from_rows("wat", pair_names, _pair_deviations(grams), tol),
        "sat": Verdict.from_rows("sat", triple_names, _triple_deviations(grams, True), tol),
        "lsat": Verdict.from_rows("lsat", triple_names, _triple_deviations(grams, False), tol),
    }
    det3_outcomes: list[Optional[UecsmError]] = [None] * len(rows)
    if n == 3:
        residuals, smallest = _det3_residuals(spectral.x[rows], spectral.y[rows], grams)
        det3_outcomes = [_det3_outcome(r, m) for r, m in zip(residuals, smallest.tolist())]
        columns["det3"] = Verdict.from_rows("det_criterion_3", _DET3_NAMES, residuals, tol)
    for r, (b, det3_outcome) in enumerate(zip(rows, det3_outcomes)):
        if isinstance(det3_outcome, ConsistencyError):
            out[b] = det3_outcome
            continue
        out[b] = {
            key: verdicts[r]
            for key, verdicts in columns.items()
            if key != "det3" or det3_outcome is None
        }
    return out
