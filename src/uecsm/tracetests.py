"""Trace-polynomial criteria for unitary equivalence and UECSM.

Three layers, all exact algebraic identities evaluated in floating
point:

* the seven-word signature that determines 3x3 matrices up to unitary
  equivalence, and its single-trace UECSM reduction;
* Djokovic's twenty words, which do the same for 4x4 matrices;
* the seven derived commutator traces ``psi_1 .. psi_7`` whose joint
  vanishing characterizes UECSM at n = 4.

Every word trace comes from :func:`~uecsm.matcore.word_traces`, one call
per signature.  Transpose equivalence uses the reversal identity
``tr w(T^t, conj T) = tr rev(w)(T, T*)``: its residuals are the gaps
``|tr w - tr rev(w)|``.  Of these, ``phi1``-``phi6`` and ``w01``-``w11``
vanish identically (each word is a cyclic shift of its reversal), so
they read rounding only, and ``w12``/``w13`` and ``w16``/``w17`` have
equal gaps; the information sits in ``phi7`` and in the gaps of
``w12``, ``w14``-``w16`` and ``w18``-``w20``.

The verdicts are computed for a ``(B, n, n)`` stack of normalized
representatives at once: :func:`uecsm_verdicts` and
:func:`transpose_verdicts` are the kernels, and :func:`uecsm_verdict`,
:func:`trace_test_3`, :func:`psi7` and :func:`transpose_equivalence` run
them on a one-matrix stack.

Tolerance convention (a numerical convention, not part of the algebra):
the verdicts evaluate their traces on the centered, normalized
representative ``(T - mu I) / s`` of :func:`~uecsm.matcore.normalize`,
which has unit Frobenius norm, and compare them to ``tol`` directly.
UECSM and unitary equivalence are unchanged by ``T -> aT + bI``, so the
verdicts are invariant under it; the raw signatures (:func:`phi3`,
:func:`djokovic_signature`, :func:`psi7`) are invariants of the
caller's matrix and are not normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension
from .matcore import (
    CMatrix,
    Word,
    _require_square,
    adjoint,
    normalize,
    representative,
    reverse_word,
    word_traces,
)

# Not called in this module: ``perfbench/tracing.py`` counts word traces by
# wrapping this binding, so removing it breaks every traced benchmark run.
from .matcore import word_trace  # noqa: F401

DEFAULT_TOL = 1e-8

#: Words fixing the 3x3 unitary-equivalence class: x, x^2, x^3, x*x, ...
#: (letters: x is the matrix, y its adjoint).
PHI3_WORDS: tuple[Word, ...] = tuple(
    Word.from_string(s) for s in ("x", "x2", "x3", "yx", "yx2", "y2x2", "yx2y2x")
)

#: Djokovic's generating set for 4x4 unitary equivalence, in canonical order.
DJOKOVIC_WORDS: tuple[Word, ...] = tuple(
    Word.from_string(s)
    for s in (
        "x",
        "x2",
        "xy",
        "x3",
        "x2y",
        "x4",
        "x3y",
        "x2y2",
        "xyxy",
        "x3y2",
        "x2yx2y",
        "x2y2xy",
        "y2x2yx",
        "x3y2xy",
        "x3y2x2y",
        "x3y3xy",
        "y3x3yx",
        "x3yx2yxy",
        "x2y2xyx2y",
        "x3y3x2y2",
    )
)

#: n -> (the complete word set followed by its reversals, residual names),
#: for :func:`transpose_equivalence`.
_REVERSAL_CHECKS: dict[int, tuple[tuple[Word, ...], tuple[str, ...]]] = {
    3: (
        PHI3_WORDS + tuple(reverse_word(w) for w in PHI3_WORDS),
        tuple(f"phi{i}" for i in range(1, len(PHI3_WORDS) + 1)),
    ),
    4: (
        DJOKOVIC_WORDS + tuple(reverse_word(w) for w in DJOKOVIC_WORDS),
        tuple(f"w{i:02d}" for i in range(1, len(DJOKOVIC_WORDS) + 1)),
    ),
}

#: Letter counts of the words behind psi_1 .. psi_7.
PSI_DEGREES: tuple[int, ...] = (6, 7, 8, 8, 9, 9, 10)

_PSI_NAMES: tuple[str, ...] = tuple(f"psi{i}" for i in range(1, len(PSI_DEGREES) + 1))


@dataclass(frozen=True)
class TraceSignature:
    """A tuple of word-trace values tagged with each word's degree."""

    kind: str  # "phi3" | "djokovic20" | "psi7"
    values: tuple[complex, ...]
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """Pass/fail outcome of one criterion with its named residuals."""

    criterion: str
    passed: bool
    residuals: tuple[tuple[str, float], ...]
    tol: float

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)

    @classmethod
    def from_rows(
        cls, criterion: str, names: tuple[str, ...], residuals: np.ndarray, tol: float
    ) -> list["Verdict"]:
        """One verdict per row of a ``(B, len(names))`` residual array.

        A row passes when its largest residual is at most ``tol``.
        """
        return [
            cls(criterion, max(row, default=0.0) <= tol, tuple(zip(names, row)), tol)
            for row in residuals.tolist()
        ]


def _require_dim(t: CMatrix, n: int, who: str) -> None:
    if t.shape != (n, n):
        raise DimensionMismatch(f"{who} requires a {n}x{n} matrix, got shape {t.shape}")


def phi3(t: CMatrix) -> TraceSignature:
    """Seven-word trace signature of a 3x3 matrix (a complete unitary invariant)."""
    _require_dim(t, 3, "phi3")
    values = tuple(complex(v) for v in word_traces(PHI3_WORDS, t, adjoint(t)))
    return TraceSignature("phi3", values, tuple(w.degree for w in PHI3_WORDS))


def trace_test_3(t: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """UECSM test for 3x3: tr[T*T (T*T - TT*) TT*] must vanish."""
    _require_dim(t, 3, "trace_test_3")
    residual = _commutator_trace(representative(t)[0])
    return Verdict.from_rows("trace_test_3", ("commutator_trace",), residual, tol)[0]


def _products(lefts: tuple[np.ndarray, ...], rights: tuple[np.ndarray, ...]) -> np.ndarray:
    """``lefts[k] @ rights[k]`` for every k, as one array of shape ``(k, B, n, n)``.

    Each operand is a ``(B, n, n)`` stack.  One stacked product replaces
    ``k`` calls, each of which costs more in overhead than a small
    product does in arithmetic.
    """
    out = np.matmul(np.concatenate(lefts), np.concatenate(rights))
    return out.reshape(len(lefts), -1, *out.shape[1:])


def _commutator_trace(reps: np.ndarray) -> np.ndarray:
    """``|tr[X*X (X*X - XX*) XX*]|`` of each 3x3 matrix of a stack, as a ``(B, 1)`` column."""
    h1, h2 = _products((adjoint(reps), reps), (reps, adjoint(reps)))
    return np.abs(np.einsum("bij,bji->b", h1 @ (h1 - h2), h2))[:, None]


def djokovic_signature(t: CMatrix) -> TraceSignature:
    """The twenty word traces tr w_i(T, T*) for a 4x4 matrix."""
    _require_dim(t, 4, "djokovic_signature")
    values = tuple(complex(v) for v in word_traces(DJOKOVIC_WORDS, t, adjoint(t)))
    return TraceSignature("djokovic20", values, tuple(w.degree for w in DJOKOVIC_WORDS))


def unitary_equivalence_4(a: CMatrix, b: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Are two 4x4 matrices unitarily equivalent?  Twenty-word comparison.

    Both matrices are shifted and scaled by the same ``mu`` and ``s``,
    those of the block-diagonal matrix ``diag(a, b)``: normalizing each on
    its own would equate ``A`` with ``2A + I``.  The blocks are then
    multiplied by sqrt(2), so a pair of equivalent matrices is compared
    at unit norm, like the single-matrix criteria.
    """
    _require_dim(a, 4, "unitary_equivalence_4")
    _require_dim(b, 4, "unitary_equivalence_4")
    z = np.zeros((4, 4))
    pair, _, _ = normalize(np.block([[a, z], [z, b]]))
    pair = math.sqrt(2.0) * pair
    sig_a = djokovic_signature(pair[:4, :4])
    sig_b = djokovic_signature(pair[4:, 4:])
    residuals = [
        (f"w{i:02d}", abs(va - vb))
        for i, (va, vb) in enumerate(zip(sig_a.values, sig_b.values), start=1)
    ]
    worst = max(r for _, r in residuals)
    return Verdict("unitary_equivalence_4", worst <= tol, tuple(residuals), tol)


def psi7(t: CMatrix) -> TraceSignature:
    """The seven commutator traces whose vanishing characterizes UECSM at n = 4."""
    _require_dim(t, 4, "psi7")
    values = _psi7_values(np.asarray(t, dtype=complex)[None])[0]
    return TraceSignature("psi7", tuple(values.tolist()), PSI_DEGREES)


def _psi7_values(x: np.ndarray) -> np.ndarray:
    """``psi_1 .. psi_7`` of each 4x4 matrix of a stack, as a ``(B, 7)`` array.

    Each value is ``tr(L R)`` with the commutator inside ``L``: the
    difference is taken before the outer products, so the analytically
    cancelling terms never meet in floating point.  The products of each
    length are formed in one stacked call.
    """
    y = adjoint(x)
    x2, y2, xy, yx = _products((x, y, x, y), (x, y, y, x))
    y3, xy2, y2x, x2y2, y2x2, x2y, yx2 = _products(
        (y2, x, y2, x2, y2, x2, y), (y, y2, x, y2, x2, y, x2)
    )
    x2y3, y3x2, xy3, y3x, x2yx2y, yx2yx2, yx2y = _products(
        (x2, y3, x, y3, x2y, yx2, yx2), (y3, x2, y3, x, x2y, yx2, y)
    )
    lefts = _products(
        (x, x, x2, x, x, x2y, x2),
        (
            xy2 - y2x,  # [x, y^2]
            x2y2 - y2x2,  # [x^2, y^2]
            xy2 - y2x,
            x2y3 - y3x2,  # [x^2, y^3]
            x2yx2y - yx2yx2,
            yx - xy,  # [y, x]
            xy3 - y3x,  # [x, y^3]
        ),
    )
    rights = np.concatenate((xy, xy, x2y, xy, xy, yx2y, x2y2)).reshape(lefts.shape)
    return np.einsum("kbij,kbji->bk", lefts, rights)


def _trace_dimension(n: int, what: str) -> None:
    if n >= 5:
        raise UnsupportedDimension(f"no {what} for n = {n}")


def uecsm_verdict(t: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Decide UECSM by the dimension-appropriate trace criterion.

    n = 1 and n = 2 matrices are always UECSM, so they pass
    unconditionally; n = 3 reads the trace of :func:`trace_test_3`; n = 4
    the seven traces of :func:`psi7`.  Larger sizes raise
    :class:`UnsupportedDimension` since no complete word criterion is
    implemented there.  This is the one-matrix case of
    :func:`uecsm_verdicts`.
    """
    _trace_dimension(_require_square(t), "complete trace criterion")
    return uecsm_verdicts(representative(t)[0], tol)[0]


def uecsm_verdicts(reps: np.ndarray, tol: float = DEFAULT_TOL) -> list[Verdict]:
    """:func:`uecsm_verdict` of each matrix of a ``(B, n, n)`` stack of
    normalized representatives (:func:`~uecsm.matcore.normalize_stack`)."""
    n = _require_square(reps, stacked=True)
    _trace_dimension(n, "complete trace criterion")
    if n <= 2:
        return [Verdict("uecsm_small_n", True, (("small_n", 0.0),), tol)] * len(reps)
    if n == 3:
        return Verdict.from_rows("uecsm_trace3", ("commutator_trace",), _commutator_trace(reps), tol)
    return Verdict.from_rows("uecsm_psi7", _PSI_NAMES, np.abs(_psi7_values(reps)), tol)


def transpose_equivalence(t: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Test T ~ T^t with the word criterion of the matching dimension.

    ``tr w(T^t, conj T) = tr rev(w)(T, T*)``, so ``T`` is unitarily
    equivalent to its transpose exactly when every word of the complete
    set (:data:`PHI3_WORDS` at n = 3, :data:`DJOKOVIC_WORDS` at n = 4) has
    the trace of its reversal.  The residuals are the reversal gaps
    ``|tr w_i - tr rev(w_i)|`` on the normalized representative, named
    ``phi1..phi7`` or ``w01..w20``.  Equivalent to the UECSM property for
    these sizes, so the verdict must agree with :func:`uecsm_verdict` up
    to tolerance effects.  This is the one-matrix case of
    :func:`transpose_verdicts`.
    """
    _trace_dimension(_require_square(t), "word criterion")
    return transpose_verdicts(representative(t)[0], tol)[0]


def transpose_verdicts(reps: np.ndarray, tol: float = DEFAULT_TOL) -> list[Verdict]:
    """:func:`transpose_equivalence` of each matrix of a ``(B, n, n)``
    stack of normalized representatives, from one word-trace table."""
    n = _require_square(reps, stacked=True)
    _trace_dimension(n, "word criterion")
    if n <= 2:
        return [Verdict("transpose_equivalence", True, (("small_n", 0.0),), tol)] * len(reps)
    words, names = _REVERSAL_CHECKS[n]
    values = word_traces(words, reps, adjoint(reps))
    gaps = np.abs(values[: len(names)] - values[len(names) :]).T
    return Verdict.from_rows("transpose_equivalence", names, gaps, tol)
