"""Trace-polynomial criteria for unitary equivalence and UECSM.

Three layers, all exact algebraic identities evaluated in floating
point:

* the seven-word signature that determines 3x3 matrices up to unitary
  equivalence, and its single-trace UECSM reduction;
* Djokovic's twenty words, which do the same for 4x4 matrices;
* the seven derived commutator traces ``psi_1 .. psi_7`` whose joint
  vanishing characterizes UECSM at n = 4.

Every trace comes from the trace engine of :mod:`uecsm.matcore`.  A
word is the string of its letters, ``x`` for the matrix and ``y`` for
its adjoint, so :data:`PHI3_WORDS` and :data:`DJOKOVIC_WORDS` are tuples
of strings, a word's degree is its length and its reversal ``w[::-1]``.
The raw signatures (:func:`phi3`, :func:`djokovic_signature`) are
:func:`~uecsm.matcore.word_traces` of their words.  The UECSM criteria
read one plan per size n = 3, 4, compiled once, at import: the
commutator trace at n = 3, ``psi_1 .. psi_7`` at n = 4.  Each call
evaluates its plan once, so no criterion hashes a word or looks up a
plan.  :func:`trace_verdicts` gives the UECSM verdict of every matrix of
a ``(B, n, n)`` stack of normalized representatives from one evaluation
of the size's plan; :func:`uecsm_verdict` (and :func:`trace_test_3`, its
n = 3 case) is its one-row case, and :func:`psi7` reads the same plan on
the caller's matrix.

:func:`transpose_equivalence` is a library function of its own.  By the
reversal identity ``tr w(T^t, conj T) = tr rev(w)(T, T*)`` its residuals
are the gaps ``|tr w - tr rev(w)|`` of the complete word set, read by
:func:`~uecsm.matcore.word_traces`.  These gaps are the UECSM family
again: ``phi1``-``phi6`` and ``w01``-``w11`` vanish identically (each
word is a cyclic shift of its reversal), ``w13`` and ``w17`` are the
letter swaps of ``w12`` and ``w16`` and have their gaps with the sign
flipped, the gap of ``phi7`` is the 3x3 commutator trace, and the gaps of
``w12``, ``w14``-``w16`` and ``w18``-``w20`` are ``psi_1 .. psi_7``.  So
for n <= 4 it decides what :func:`uecsm_verdict` decides (Garcia and
Tener: for n <= 7, T is UECSM exactly when T is unitarily equivalent to
its transpose), in another association order.

Tolerance convention (a numerical convention, not part of the algebra):
the verdicts evaluate their traces on the centered, normalized
representative ``(T - mu I) / s`` of :func:`~uecsm.matcore.normalize`,
which has unit Frobenius norm, and compare them to ``tol`` directly.
UECSM and unitary equivalence are unchanged by ``T -> aT + bI``, so the
verdicts are invariant under it; the raw signatures (:func:`phi3`,
:func:`djokovic_signature`, :func:`psi7`) are invariants of the
caller's matrix and are not normalized.  Every exported function here
refuses a NaN or inf entry with ``ValueError``: the verdicts through
:func:`~uecsm.matcore.normalize`, the signatures, :func:`trace_test_3`
and :func:`unitary_equivalence_4` through their size check.

Every criterion of the package, here and in :mod:`uecsm.angletests`,
:mod:`uecsm.constructors` and :mod:`uecsm.oracle`, returns a
:class:`Verdict`: a named family of residuals that must vanish to
``tol``.  ``Verdict(criterion, names, row, tol)`` builds it from the row
alone; ``max_residual`` and ``passed`` follow from the row, so no caller
decides pass or fail by hand.  The n <= 2 verdicts have the one residual
``small_n = 0.0``, so they pass for every ``tol`` they accept: like every
verdict, they refuse a ``tol`` that is not finite and positive with
``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension
from .matcore import (
    CMatrix,
    _compile_plan,
    _require_array,
    _require_finite,
    _require_square,
    _require_tol,
    _TracePlan,
    adjoint,
    normalize,
    representative,
    word_traces,
)

# Not called in this module: ``perfbench/tracing.py`` counts word traces by
# wrapping this binding, so removing it breaks every traced benchmark run.
from .matcore import word_trace  # noqa: F401

DEFAULT_TOL = 1e-8

#: Words fixing the 3x3 unitary-equivalence class, x, x^2, x^3, yx, ...,
#: spelled letter by letter (x is the matrix, y its adjoint).
PHI3_WORDS: tuple[str, ...] = ("x", "xx", "xxx", "yx", "yxx", "yyxx", "yxxyyx")

#: Djokovic's generating set for 4x4 unitary equivalence, in canonical
#: order, spelled letter by letter.
DJOKOVIC_WORDS: tuple[str, ...] = (
    "x",
    "xx",
    "xy",
    "xxx",
    "xxy",
    "xxxx",
    "xxxy",
    "xxyy",
    "xyxy",
    "xxxyy",
    "xxyxxy",
    "xxyyxy",
    "yyxxyx",
    "xxxyyxy",
    "xxxyyxxy",
    "xxxyyyxy",
    "yyyxxxyx",
    "xxxyxxyxy",
    "xxyyxyxxy",
    "xxxyyyxxyy",
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
    """The UECSM family of one size: its compiled plan, whose traces are
    the ``tr(L R)`` values named ``names``, and its criterion."""

    plan: _TracePlan
    criterion: str
    names: tuple[str, ...]


#: n -> the checks of :func:`trace_verdicts`, compiled at import.
_TRACE_CHECKS: dict[int, _TraceChecks] = {
    3: _TraceChecks(_compile_plan((), _commutator_pairs), "uecsm_trace3", ("commutator_trace",)),
    4: _TraceChecks(_compile_plan((), _psi7_pairs), "uecsm_psi7", _PSI_NAMES),
}

#: n -> the complete word set of :func:`transpose_equivalence`, then its reversals.
_REVERSAL_WORDS: dict[int, tuple[str, ...]] = {
    n: words + tuple(w[::-1] for w in words) for n, words in ((3, PHI3_WORDS), (4, DJOKOVIC_WORDS))
}

#: n -> the names of the word comparisons: ``phi1..phi7`` or ``w01..w20``.
_WORD_NAMES: dict[int, tuple[str, ...]] = {
    3: tuple(f"phi{i}" for i in range(1, len(PHI3_WORDS) + 1)),
    4: tuple(f"w{i:02d}" for i in range(1, len(DJOKOVIC_WORDS) + 1)),
}


@dataclass(frozen=True)
class TraceSignature:
    """A tuple of word-trace values tagged with each word's degree."""

    kind: str  # "phi3" | "djokovic20" | "psi7"
    values: tuple[complex, ...]
    degrees: tuple[int, ...]


class Verdict(tuple):
    """Pass/fail outcome of one criterion: its residuals, the floats of
    ``row``, are named by ``names``.

    ``Verdict(criterion, names, row, tol)`` is the one constructor.  It
    takes the largest residual by Python's ``max`` as ``max_residual``
    (0.0 for an empty row; a NaN counts only when it comes first) and
    sets ``passed`` to ``max_residual <= tol``, so a verdict always
    agrees with its row.  A ``tol`` that is not finite and positive
    raises ``ValueError``, so every criterion refuses one.  The record is
    an immutable tuple with value equality: no field can be set, and
    equal verdicts hash alike.
    """

    __slots__ = ()

    # the fields, read-only, in the order that __new__ stores them
    criterion, passed, names, row, tol, max_residual = map(property, map(itemgetter, range(6)))

    def __new__(cls, criterion: str, names: tuple[str, ...], row: tuple[float, ...], tol: float) -> "Verdict":
        _require_tol(tol)
        worst = max(row, default=0.0)
        return tuple.__new__(cls, (criterion, worst <= tol, names, row, tol, worst))

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild the verdict through the constructor
        return self.criterion, self.names, self.row, self.tol

    def __repr__(self) -> str:
        return f"Verdict({self.criterion!r}, {self.names!r}, {self.row!r}, {self.tol!r})"

    @property
    def residuals(self) -> tuple[tuple[str, float], ...]:
        """The ``(name, residual)`` pairs."""
        return tuple(zip(self.names, self.row))

    @classmethod
    def from_rows(
        cls, criterion: str, names: tuple[str, ...], residuals: np.ndarray, tol: float
    ) -> list["Verdict"]:
        """One verdict per row of a ``(B, len(names))`` residual array,
        each row read back as a tuple of Python floats."""
        return [cls(criterion, names, row, tol) for row in map(tuple, residuals.tolist())]


def _require_dim(t: CMatrix, n: int, who: str) -> None:
    """Raise unless ``t`` is an ``n x n`` array of finite entries."""
    _require_array(t)
    if t.shape != (n, n):
        raise DimensionMismatch(f"{who} requires a {n}x{n} matrix, got shape {t.shape}")
    _require_finite(t)


def phi3(t: CMatrix) -> TraceSignature:
    """Seven-word trace signature of a 3x3 matrix (a complete unitary invariant)."""
    _require_dim(t, 3, "phi3")
    values = tuple(complex(v) for v in word_traces(PHI3_WORDS, t, adjoint(t)))
    return TraceSignature("phi3", values, tuple(map(len, PHI3_WORDS)))


def trace_test_3(t: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """UECSM test for 3x3: tr[T*T (T*T - TT*) TT*] must vanish."""
    _require_dim(t, 3, "trace_test_3")
    v = uecsm_verdict(t, tol)
    return Verdict("trace_test_3", v.names, v.row, tol)


def djokovic_signature(t: CMatrix) -> TraceSignature:
    """The twenty word traces tr w_i(T, T*) for a 4x4 matrix."""
    _require_dim(t, 4, "djokovic_signature")
    values = tuple(complex(v) for v in word_traces(DJOKOVIC_WORDS, t, adjoint(t)))
    return TraceSignature("djokovic20", values, tuple(map(len, DJOKOVIC_WORDS)))


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
    return Verdict.from_rows("unitary_equivalence_4", _WORD_NAMES[4], residuals, tol)[0]


def psi7(t: CMatrix) -> TraceSignature:
    """The seven commutator traces whose vanishing characterizes UECSM at n = 4."""
    _require_dim(t, 4, "psi7")
    values = _TRACE_CHECKS[4].plan.traces(t, adjoint(t))
    return TraceSignature("psi7", tuple(values.tolist()), PSI_DEGREES)


def _trace_dimension(n: int, what: str) -> None:
    if n >= 5:
        raise UnsupportedDimension(f"no {what} for n = {n}")


def uecsm_verdict(t: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Decide UECSM by the dimension-appropriate trace criterion.

    n = 1 and n = 2 matrices are always UECSM: their verdict has the one
    residual ``small_n = 0.0``, which passes every finite positive ``tol``
    (any other ``tol`` raises ``ValueError``, as for every size).  n = 3
    reads the trace of :func:`trace_test_3`, n = 4 the seven traces of
    :func:`psi7`.  Larger sizes raise :class:`UnsupportedDimension` since
    no complete word criterion is implemented there.  This is the one-row
    case of :func:`trace_verdicts`.
    """
    _trace_dimension(_require_square(t), "complete trace criterion")
    return trace_verdicts(representative(t)[0], tol)[0]


def trace_verdicts(reps: np.ndarray, tol: float = DEFAULT_TOL) -> list[Verdict]:
    """:func:`uecsm_verdict` of each matrix of a ``(B, n, n)`` stack of
    normalized representatives (:func:`~uecsm.matcore.normalize_stack`),
    from one evaluation of the size's plan.

    Raises :class:`UnsupportedDimension` for ``n >= 5``.
    """
    n = _require_square(reps, stacked=True)
    _trace_dimension(n, "complete trace criterion")
    if n <= 2:
        return [Verdict("uecsm_small_n", ("small_n",), (0.0,), tol)] * len(reps)
    checks = _TRACE_CHECKS[n]
    family = np.abs(checks.plan.traces(reps, reps.conj().swapaxes(-1, -2))).T
    return Verdict.from_rows(checks.criterion, checks.names, family, tol)


def transpose_equivalence(t: CMatrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Test T ~ T^t with the word criterion of the matching dimension.

    ``tr w(T^t, conj T) = tr rev(w)(T, T*)``, so ``T`` is unitarily
    equivalent to its transpose exactly when every word of the complete
    set (:data:`PHI3_WORDS` at n = 3, :data:`DJOKOVIC_WORDS` at n = 4) has
    the trace of its reversal.  The residuals are the reversal gaps
    ``|tr w_i - tr rev(w_i)|`` on the normalized representative, named
    ``phi1..phi7`` or ``w01..w20``; n = 1 and n = 2 have the one residual
    ``small_n = 0.0``.  The gaps that do not vanish identically are the
    traces of :func:`uecsm_verdict` up to sign, so the two verdicts agree
    up to rounding; the analysis reports only the UECSM one.
    """
    n = _require_square(t)
    _trace_dimension(n, "word criterion")
    if n <= 2:
        return Verdict("transpose_equivalence", ("small_n",), (0.0,), tol)
    reps = representative(t)[0]
    values = word_traces(_REVERSAL_WORDS[n], reps, adjoint(reps))
    m = len(_WORD_NAMES[n])
    gaps = np.abs(values[:m] - values[m:]).T
    return Verdict.from_rows("transpose_equivalence", _WORD_NAMES[n], gaps, tol)[0]
