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

One kernel computes all four on a ``(B, 2, n, n)`` stack of Gram
matrices: a single ``take``, on flat indices compiled once per size,
reads every pair entry and every triple factor, the scale of each SAT
and LSAT comparison is one ``np.maximum.reduce`` over the moduli of both
systems' triple products and the floor, the residuals of every test
fill one ``(B, m)`` array, and each
:class:`~uecsm.tracetests.Verdict` is built from its slice of that
array read back as Python floats.  :func:`angle_verdicts` runs the
kernel on every row of a :class:`~uecsm.spectra.SpectralStack` at once;
:func:`angle_suite`, :func:`wat`, :func:`sat`, :func:`lsat` and
:func:`det_criterion_3` are its one-row cases.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional, Union

import numpy as np

from .errors import ConsistencyError, DimensionMismatch, OrthogonalEigenvectors, UecsmError
from .matcore import CMatrix, _indices
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


@lru_cache(maxsize=None)
def _angle_index(n: int) -> tuple:
    """The one gather of the angle tests from a Gram matrix, with the names of their residuals.

    Returns the flat indices ``row * n + column``, into a Gram matrix
    read as ``n * n`` entries, of the entries ``[j, i]`` of the pairs
    i < j in lexicographic order (at n = 3 followed by ``[0, 2]``, the
    entry of ``<x_3, x_1>`` that the determinant criterion reads: the
    stacked ``X*X`` is not Hermitian to the last bit, so the ``[2, 0]``
    that WAT reads for that pair would change its residuals),
    then of the factors ``[j, i]``, ``[k, j]`` and ``[i, k]`` of the
    triples i <= j <= k in lexicographic order; then the number of pair
    entries, the number of triples, and the 1-based pair and triple names.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    triples = list(combinations_with_replacement(range(n), 3))
    entries = [(j, i) for i, j in pairs] + ([(0, 2)] if n == 3 else [])
    for a, b in ((1, 0), (2, 1), (0, 2)):
        entries += [(t[a], t[b]) for t in triples]
    flat = _indices([row * n + col for row, col in entries])
    pair_names = tuple(f"pair_{i + 1}_{j + 1}" for i, j in pairs)
    triple_names = tuple("triple_{}_{}_{}".format(*(a + 1 for a in t)) for t in triples)
    return flat, len(entries) - 3 * len(triples), len(triples), pair_names, triple_names


# the gathers of the determinant criterion: the pair entries of
# <x_1,x_2>, <x_2,x_3> and <x_3,x_1>; the factors 1 - |<x_i,x_j>|^2
# cycled to pair with |<x_i,y_i>|^2; det X*X four times, then det Y*Y
_DET3_PAIRS = _indices((0, 2, 3))
_DET3_CYCLE = _indices((1, 2, 0))
_DET3_DETS = _indices((0, 0, 0, 0, 1))

_DET3_NAMES = (
    "determinant_gap",
    "det_vs_pairing_1",
    "det_vs_pairing_2",
    "det_vs_pairing_3",
    "dual_det_vs_pairing",
)


def _angle_rows(
    x: np.ndarray, y: np.ndarray, grams: np.ndarray, tol: float, det3: bool = True
) -> list[Union[dict[str, Verdict], ConsistencyError]]:
    """The angle verdicts of every row of stacked eigenvector systems.

    ``x`` and ``y`` are ``(B, n, n)`` stacks and ``grams`` their
    ``(B, 2, n, n)`` Gram matrices ``X*X`` and ``Y*Y``, whose ``[j, i]``
    entries are ``<x_i, x_j>`` and ``<y_i, y_j>``.  One gather from the
    Gram matrices serves WAT, SAT, LSAT and, at n = 3 and with ``det3``,
    the determinant criterion, and their residuals fill one ``(B, m)``
    array, read back as Python floats at once:

    * WAT: ``| |<x_i,x_j>| - |<y_i,y_j>| |`` for the pairs i < j;
    * SAT and LSAT: the cyclic triple products ``<x_i,x_j> <x_j,x_k>
      <x_k,x_i>`` against those of the y system, conjugated for SAT,
      relative to the larger modulus (``|conj z| = |z|``, so the two
      share it) or to ``_TRIPLE_FLOOR``;
    * the determinant criterion: the gap of ``det X*X`` from
      ``prod (1 - |<x_i,x_j>|^2)``, then four cross-check identities
      tying ``det X*X`` and ``det Y*Y`` to the dual pairings.

    A row gets the determinant verdict only when the criterion applies
    to it, and its :class:`ConsistencyError` in place of the verdicts
    when the cross-check fails.
    """
    n = grams.shape[-1]
    flat, p, t, pair_names, triple_names = _angle_index(n)
    det3 = det3 and n == 3
    entries = grams.reshape(len(grams), 2, n * n).take(flat, 2)
    moduli = np.abs(entries[:, :, :p])
    factors = entries[:, :, p:].reshape(len(grams), 2, 3, t)
    products = factors[:, :, 0] * factors[:, :, 1] * factors[:, :, 2]
    lhs, rhs = products[:, 0], products[:, 1]
    scale = np.maximum.reduce(np.abs(products), axis=1, initial=_TRIPLE_FLOOR)
    # WAT, SAT, LSAT and the determinant criterion, side by side
    m = len(pair_names)
    sat_end, lsat_end = m + t, m + 2 * t
    residuals = np.empty((len(grams), lsat_end + 5 * det3))
    np.abs(moduli[:, 0, :m] - moduli[:, 1, :m], out=residuals[:, :m])
    np.divide(np.abs(lhs - rhs.conj()), scale, out=residuals[:, m:sat_end])
    np.divide(np.abs(lhs - rhs), scale, out=residuals[:, sat_end:lsat_end])
    if det3:
        # |<x_1,x_2>|, |<x_2,x_3>|, |<x_3,x_1>| and |<y_2,y_3>|
        pm = moduli[:, 0].take(_DET3_PAIRS, 1)
        q23 = moduli[:, 1, 2]
        apart = 1 - pm**2
        dets = np.linalg.det(grams).real  # det X*X, det Y*Y
        # |<x_i, y_i>|^2
        pairing = np.abs(np.add.reduce(y.conj() * x, axis=1)) ** 2
        expected = np.concatenate(
            [
                np.multiply.reduce(apart, axis=1, keepdims=True),
                pairing * apart.take(_DET3_CYCLE, 1),
                (pairing[:, 0] * (1 - q23**2))[:, None],
            ],
            axis=1,
        )
        np.abs(dets.take(_DET3_DETS, 1) - expected, out=residuals[:, lsat_end:])
        smallest = np.minimum.reduce(pm, axis=1).tolist()
        worst_check = np.maximum.reduce(residuals[:, lsat_end + 1 :], axis=1).tolist()
    out: list[Union[dict[str, Verdict], ConsistencyError]] = []
    for b, row in enumerate(residuals.tolist()):
        verdicts = {
            "wat": Verdict("wat", pair_names, tuple(row[:m]), tol),
            "sat": Verdict("sat", triple_names, tuple(row[m:sat_end]), tol),
            "lsat": Verdict("lsat", triple_names, tuple(row[sat_end:lsat_end]), tol),
        }
        if det3 and not smallest[b] < _ORTHOGONAL_FLOOR:
            if worst_check[b] > _IDENTITY_CHECK_TOL:
                out.append(
                    ConsistencyError(
                        f"determinant identity cross-check failed at {worst_check[b]:.3e}; "
                        "spectral data is not trustworthy"
                    )
                )
                continue
            verdicts["det3"] = Verdict("det_criterion_3", _DET3_NAMES, tuple(row[lsat_end:]), tol)
        out.append(verdicts)
    return out


def _one_row(s: SpectralData, tol: float, det3: bool = True) -> Union[dict[str, Verdict], ConsistencyError]:
    return _angle_rows(s.x[None], s.y[None], s.grams[None], tol, det3)[0]


def wat(s: SpectralData, tol: float = DEFAULT_TOL) -> Verdict:
    """Weak Angle Test: |<x_i,x_j>| = |<y_i,y_j>| for all pairs i < j.

    The residuals are named ``pair_i_j`` with 1-based indices.
    """
    return _one_row(s, tol, det3=False)["wat"]


def sat(s: SpectralData, tol: float = DEFAULT_TOL) -> Verdict:
    """Strong Angle Test over all triples i <= j <= k.

    Cyclic triple products of the x system must equal the conjugated
    triple products of the y system; deviations are relative to the
    larger product magnitude.  Passing is equivalent to UECSM when the
    spectrum is distinct.  The residuals are named ``triple_i_j_k`` with
    1-based indices.
    """
    return _one_row(s, tol, det3=False)["sat"]


def lsat(s: SpectralData, tol: float = DEFAULT_TOL) -> Verdict:
    """Linear Strong Angle Test: same triples as SAT without the conjugation."""
    return _one_row(s, tol, det3=False)["lsat"]


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
    outcome = _one_row(s, tol)
    if isinstance(outcome, ConsistencyError):
        raise outcome
    if "det3" not in outcome:
        raise OrthogonalEigenvectors("a pairwise eigenvector inner product vanishes; criterion inapplicable")
    return outcome["det3"]


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
    outcome = _one_row(eigensystem(t), tol)
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
    if not rows:
        return out
    x, y, grams = spectral.x, spectral.y, spectral.grams
    if len(rows) < len(out):
        pick = np.array(rows)
        x, y, grams = (a.take(pick, 0) for a in (x, y, grams))
    outcomes = _angle_rows(x, y, grams, tol)
    for b, outcome in zip(rows, outcomes):
        out[b] = outcome
    return out
