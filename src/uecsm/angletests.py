"""Eigenvector angle criteria: WAT, SAT, LSAT and the 3x3 determinant test.

All four consume :class:`~uecsm.spectra.SpectralData`.  The weak test
compares moduli of pairwise inner products between the two eigenvector
systems and is necessary for UECSM; the strong test compares cyclic
triple products against the conjugated ones and is equivalent to UECSM
for distinct spectra; the linear variant drops the conjugation and
instead detects conjugation-by-D similarity through an indefinite
special unitary group.  Triple products are invariant under re-phasing
of individual eigenvectors, so none of this depends on the phase
convention used upstream.  WAT, SAT and LSAT read every inner product
from the Gram matrices ``X*X`` and ``Y*Y``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .errors import ConsistencyError, OrthogonalEigenvectors
from .matcore import CMatrix
from .spectra import SpectralData, eigensystem
from .tracetests import DEFAULT_TOL, Verdict

_IDENTITY_CHECK_TOL = 1e-9
_ORTHOGONAL_FLOOR = 1e-10

# Denominator floor for the relative triple-product comparison.  Exact-zero
# triples (orthogonal eigenvector pairs occur for honest inputs) otherwise
# divide rounding noise by machine epsilon and report order-one deviations.
# Below this scale the comparison is absolute; a genuine violation would
# need |lhs - rhs| < tol * 1e-4, indistinguishable from equality in doubles.
_TRIPLE_FLOOR = 1e-4


def _inner(u: np.ndarray, v: np.ndarray) -> complex:
    # <u, v> = sum_j u_j conj(v_j), linear in the first argument
    return complex(np.vdot(v, u))


@dataclass(frozen=True)
class AngleReport:
    """Verdict plus the per-pair or per-triple deviations behind it.

    Indices in the deviation keys are 1-based.
    """

    verdict: Verdict
    pair_deviations: tuple[tuple[tuple[int, int], float], ...] = ()
    triple_deviations: tuple[tuple[tuple[int, int, int], float], ...] = ()


def _grams(s: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    # Gx[j, i] = <x_i, x_j> and Gy[j, i] = <y_i, y_j>
    return s.x.conj().T @ s.x, s.y.conj().T @ s.y


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


def wat(s: SpectralData, tol: float = DEFAULT_TOL) -> AngleReport:
    """Weak Angle Test: |<x_i,x_j>| = |<y_i,y_j>| for all pairs i < j."""
    gx, gy = _grams(s)
    i, j, keys, names = _pair_index(s.n)
    devs = np.abs(np.abs(gx[j, i]) - np.abs(gy[j, i])).tolist()
    verdict = Verdict("wat", max(devs, default=0.0) <= tol, tuple(zip(names, devs)), tol)
    return AngleReport(verdict, pair_deviations=tuple(zip(keys, devs)))


def _triple_report(s: SpectralData, tol: float, conjugate: bool, name: str) -> AngleReport:
    # lhs_ijk = <x_i,x_j> <x_j,x_k> <x_k,x_i>, rhs likewise from the y system
    gx, gy = _grams(s)
    i, j, k, keys, names = _triple_index(s.n)
    lhs = gx[j, i] * gx[k, j] * gx[i, k]
    rhs = gy[j, i] * gy[k, j] * gy[i, k]
    if conjugate:
        rhs = rhs.conj()
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _TRIPLE_FLOOR)
    devs = (np.abs(lhs - rhs) / scale).tolist()
    verdict = Verdict(name, max(devs) <= tol, tuple(zip(names, devs)), tol)
    return AngleReport(verdict, triple_deviations=tuple(zip(keys, devs)))


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
    p12 = _inner(s.x[:, 0], s.x[:, 1])
    p23 = _inner(s.x[:, 1], s.x[:, 2])
    p31 = _inner(s.x[:, 2], s.x[:, 0])
    if min(abs(p12), abs(p23), abs(p31)) < _ORTHOGONAL_FLOOR:
        raise OrthogonalEigenvectors(
            "a pairwise eigenvector inner product vanishes; criterion inapplicable"
        )
    det_xx = complex(np.linalg.det(s.x.conj().T @ s.x)).real
    det_yy = complex(np.linalg.det(s.y.conj().T @ s.y)).real
    product = (1 - abs(p12) ** 2) * (1 - abs(p23) ** 2) * (1 - abs(p31) ** 2)
    residual = abs(det_xx - product)

    # cross-check identities tying det X*X and det Y*Y to the dual pairings
    q23 = _inner(s.y[:, 1], s.y[:, 2])
    diag = [abs(_inner(s.x[:, i], s.y[:, i])) ** 2 for i in range(3)]
    checks = (
        ("det_vs_pairing_1", abs(det_xx - diag[0] * (1 - abs(p23) ** 2))),
        ("det_vs_pairing_2", abs(det_xx - diag[1] * (1 - abs(p31) ** 2))),
        ("det_vs_pairing_3", abs(det_xx - diag[2] * (1 - abs(p12) ** 2))),
        ("dual_det_vs_pairing", abs(det_yy - diag[0] * (1 - abs(q23) ** 2))),
    )
    worst_check = max(v for _, v in checks)
    if worst_check > _IDENTITY_CHECK_TOL:
        raise ConsistencyError(
            f"determinant identity cross-check failed at {worst_check:.3e}; "
            "spectral data is not trustworthy"
        )
    residuals = (("determinant_gap", residual),) + checks
    worst = max(v for _, v in residuals)
    return Verdict("det_criterion_3", worst <= tol, residuals, tol)


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
