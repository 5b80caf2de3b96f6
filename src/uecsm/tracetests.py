"""Trace-polynomial criteria for unitary equivalence and UECSM.

Three layers, all exact algebraic identities evaluated in floating
point:

* the seven-word signature that determines 3x3 matrices up to unitary
  equivalence, and its single-trace UECSM reduction;
* Djokovic's twenty words, which do the same for 4x4 matrices;
* the seven derived commutator traces ``psi_1 .. psi_7`` whose joint
  vanishing characterizes UECSM at n = 4.

Every trace comes from the trace engine of :mod:`uecsm.matcore`.  The
raw signatures (:func:`phi3`, :func:`djokovic_signature`) are
:func:`~uecsm.matcore.word_traces` of their words.  The criteria read
one plan per size n = 3, 4, compiled once, at import, for both trace
families: the complete word set followed by its reversals, then the
UECSM family (the commutator trace at n = 3, ``psi_1 .. psi_7`` at
n = 4).  The families share every product they spell alike, and each
call evaluates its plan once, so no criterion hashes a word or looks up
a plan.  Transpose equivalence uses the reversal identity
``tr w(T^t, conj T) = tr rev(w)(T, T*)``: its residuals are the gaps
``|tr w - tr rev(w)|``.  Of these, ``phi1``-``phi6`` and ``w01``-``w11``
vanish identically (each word is a cyclic shift of its reversal), so
they read rounding only, and ``w12``/``w13`` and ``w16``/``w17`` have
equal gaps; the information sits in ``phi7`` and in the gaps of
``w12``, ``w14``-``w16`` and ``w18``-``w20``.

The verdicts are computed for a ``(B, n, n)`` stack of normalized
representatives at once: :func:`trace_verdicts` gives both families'
verdicts from one evaluation of the size's plan.  :func:`uecsm_verdict`
(and :func:`trace_test_3`, its n = 3 case) and
:func:`transpose_equivalence` are its one-row case, and :func:`psi7`
reads the UECSM family from the same plan on the caller's matrix.

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
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension
from .matcore import (
    CMatrix,
    Word,
    _compile_plan,
    _require_square,
    _TracePlan,
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

#: Letter counts of the words behind psi_1 .. psi_7.
PSI_DEGREES: tuple[int, ...] = (6, 7, 8, 8, 9, 9, 10)

_PSI_NAMES: tuple[str, ...] = tuple(f"psi{i}" for i in range(1, len(PSI_DEGREES) + 1))


def _commutator_pairs(x, y):
    """The pair whose ``tr(L R)`` is ``tr[X*X (X*X - XX*) XX*]``, for ``x = X``, ``y = X*``."""
    h1, h2 = y @ x, x @ y
    return ((h1 @ (h1 - h2), h2),)


def _psi7_pairs(x, y):
    """The pairs ``(L, R)`` with ``psi_k = tr(L R)``, for ``x = X``, ``y = X*``.

    The commutator sits inside ``L``: the difference is taken before the
    outer product, so the analytically cancelling terms never meet in
    floating point.
    """
    x2, y2, xy, yx = x @ x, y @ y, x @ y, y @ x
    y3, xy2, y2x, x2y2, y2x2, x2y, yx2 = y2 @ y, x @ y2, y2 @ x, x2 @ y2, y2 @ x2, x2 @ y, y @ x2
    x2y3, y3x2, xy3, y3x = x2 @ y3, y3 @ x2, x @ y3, y3 @ x
    x2yx2y, yx2yx2, yx2y = x2y @ x2y, yx2 @ yx2, yx2 @ y
    lefts = (
        x @ (xy2 - y2x),  # [x, y^2]
        x @ (x2y2 - y2x2),  # [x^2, y^2]
        x2 @ (xy2 - y2x),
        x @ (x2y3 - y3x2),  # [x^2, y^3]
        x @ (x2yx2y - yx2yx2),
        x2y @ (yx - xy),  # [y, x]
        x2 @ (xy3 - y3x),  # [x, y^3]
    )
    return tuple(zip(lefts, (xy, xy, x2y, xy, xy, yx2y, x2y2)))


@dataclass(frozen=True)
class _TraceChecks:
    """One plan per size for both trace families of a stack.

    The plan's traces are those of the complete word set followed by its
    reversals (the transpose gaps, named ``gaps``), then the UECSM
    family's ``tr(L R)`` values (named ``names``, criterion ``criterion``).
    """

    plan: _TracePlan
    gaps: tuple[str, ...]
    criterion: str
    names: tuple[str, ...]


def _trace_checks(
    words: tuple[Word, ...], gap_name: str, criterion: str, names: tuple[str, ...], family: Callable
) -> _TraceChecks:
    plan = _compile_plan(words + tuple(map(reverse_word, words)), family)
    gaps = tuple(gap_name.format(i) for i in range(1, len(words) + 1))
    return _TraceChecks(plan, gaps, criterion, names)


#: n -> the checks of :func:`trace_verdicts`, compiled at import.
_TRACE_CHECKS: dict[int, _TraceChecks] = {
    3: _trace_checks(PHI3_WORDS, "phi{}", "uecsm_trace3", ("commutator_trace",), _commutator_pairs),
    4: _trace_checks(DJOKOVIC_WORDS, "w{:02d}", "uecsm_psi7", _PSI_NAMES, _psi7_pairs),
}


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

    @cached_property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)

    @classmethod
    def from_rows(
        cls, criterion: str, names: tuple[str, ...], residuals: np.ndarray, tol: float
    ) -> list["Verdict"]:
        """One verdict per row of a ``(B, len(names))`` residual array.

        A row passes when its largest residual is at most ``tol``; that
        maximum is also the verdict's ``max_residual``.
        """
        verdicts = []
        for row in residuals.tolist():
            worst = max(row, default=0.0)
            verdict = cls(criterion, worst <= tol, tuple(zip(names, row)), tol)
            verdict.__dict__["max_residual"] = worst  # seeds the cached property
            verdicts.append(verdict)
        return verdicts


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
    return replace(uecsm_verdict(t, tol), criterion="trace_test_3")


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
    residuals = np.array([[abs(va - vb) for va, vb in zip(sig_a.values, sig_b.values)]])
    return Verdict.from_rows("unitary_equivalence_4", _TRACE_CHECKS[4].gaps, residuals, tol)[0]


def psi7(t: CMatrix) -> TraceSignature:
    """The seven commutator traces whose vanishing characterizes UECSM at n = 4."""
    _require_dim(t, 4, "psi7")
    plan = _TRACE_CHECKS[4].plan
    values = plan.traces(t, adjoint(t))[len(plan.words) :]
    return TraceSignature("psi7", tuple(values.tolist()), PSI_DEGREES)


def _trace_dimension(n: int, what: str) -> None:
    if n >= 5:
        raise UnsupportedDimension(f"no {what} for n = {n}")


def uecsm_verdict(t: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Decide UECSM by the dimension-appropriate trace criterion.

    n = 1 and n = 2 matrices are always UECSM, so they pass
    unconditionally; n = 3 reads the trace of :func:`trace_test_3`; n = 4
    the seven traces of :func:`psi7`.  Larger sizes raise
    :class:`UnsupportedDimension` since no complete word criterion is
    implemented there.  This is the one-row case of
    :func:`trace_verdicts`.
    """
    _trace_dimension(_require_square(t), "complete trace criterion")
    return trace_verdicts(representative(t)[0], tol, tol)[0][0]


def trace_verdicts(
    reps: np.ndarray, trace_tol: float = DEFAULT_TOL, transpose_tol: float = DEFAULT_TOL
) -> tuple[list[Verdict], list[Verdict]]:
    """:func:`uecsm_verdict` and :func:`transpose_equivalence` of each
    matrix of a ``(B, n, n)`` stack of normalized representatives
    (:func:`~uecsm.matcore.normalize_stack`), from one product table.

    ``trace_tol`` governs the UECSM verdicts and ``transpose_tol`` the
    transpose verdicts.  Raises :class:`UnsupportedDimension` for
    ``n >= 5``.
    """
    n = _require_square(reps, stacked=True)
    _trace_dimension(n, "complete trace criterion")
    if n <= 2:
        small = (("small_n", 0.0),)
        return (
            [Verdict("uecsm_small_n", True, small, trace_tol)] * len(reps),
            [Verdict("transpose_equivalence", True, small, transpose_tol)] * len(reps),
        )
    checks = _TRACE_CHECKS[n]
    values = checks.plan.traces(reps, adjoint(reps))
    m = len(checks.gaps)
    gaps = np.abs(values[:m] - values[m : 2 * m]).T
    family = np.abs(values[2 * m :]).T
    return (
        Verdict.from_rows(checks.criterion, checks.names, family, trace_tol),
        Verdict.from_rows("transpose_equivalence", checks.gaps, gaps, transpose_tol),
    )


def transpose_equivalence(t: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Test T ~ T^t with the word criterion of the matching dimension.

    ``tr w(T^t, conj T) = tr rev(w)(T, T*)``, so ``T`` is unitarily
    equivalent to its transpose exactly when every word of the complete
    set (:data:`PHI3_WORDS` at n = 3, :data:`DJOKOVIC_WORDS` at n = 4) has
    the trace of its reversal.  The residuals are the reversal gaps
    ``|tr w_i - tr rev(w_i)|`` on the normalized representative, named
    ``phi1..phi7`` or ``w01..w20``.  Equivalent to the UECSM property for
    these sizes, so the verdict must agree with :func:`uecsm_verdict` up
    to tolerance effects.  This is the one-row case of
    :func:`trace_verdicts`.
    """
    _trace_dimension(_require_square(t), "word criterion")
    return trace_verdicts(representative(t)[0], tol, tol)[1][0]
