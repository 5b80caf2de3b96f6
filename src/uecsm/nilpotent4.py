"""Closed-form UECSM classification of 4x4 strictly upper-triangular matrices.

The six free entries sit at positions

    . a b c
    . . d e
    . . . f
    . . . .

and the UECSM question reduces to six polynomial conditions on them.
Two of the seven general trace values have short closed forms in the
entries; the remaining cases split on which of a, d, f vanish.

A caution on the last condition: matching moduli |a| = |f| and
|b| = |e| alone are necessary once a, d, f are all nonzero, but they
are *not* sufficient -- the products must also agree, ae = bf.  (With
the moduli matched, ae = bf is a pure phase condition; when it holds a
diagonal re-phasing brings the matrix to the palindromic pattern
(a, b, c, d, b, a), which the anti-diagonal permutation carries to its
transpose.)  An all-integer witness for the gap is
(a,...,f) = (1, 1, 0, 1, 1, -1): moduli match, yet three of the twenty
word traces differ from their reversals by exactly 2.  ``classify``
therefore tests the phase-corrected condition, keeping it equivalent
to the seven-trace verdict.

``classify`` and ``symmetrizing_witness`` decide on the entries of the
unit-norm representative :func:`~uecsm.matcore.normalize` gives, as
every other criterion does, so their verdicts do not change when the
parameters are scaled.  Only ``psi_closed_forms`` evaluates on the
caller's parameters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .matcore import CMatrix, EPS, _require_tol, normalize
from .tracetests import DEFAULT_TOL


@dataclass(frozen=True)
class NilpotentParams:
    """The six strictly-upper-triangular entries; a NaN or inf one raises ``ValueError``."""

    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex

    def __post_init__(self) -> None:
        if not all(map(cmath.isfinite, self.as_tuple())):
            raise ValueError("nilpotent parameters must be finite")

    @classmethod
    def from_iterable(cls, values: Iterable[complex]) -> "NilpotentParams":
        vals = [complex(v) for v in values]
        if len(vals) != 6:
            raise ValueError(f"expected 6 parameters, got {len(vals)}")
        return cls(*vals)

    def as_tuple(self) -> tuple[complex, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)


# the strictly upper triangle in row order: a, b, c, d, e, f
_UPPER = np.triu_indices(4, 1)


def build_matrix(p: NilpotentParams) -> CMatrix:
    """Place the six parameters into the strictly upper triangle."""
    t = np.zeros((4, 4), dtype=complex)
    t[_UPPER] = p.as_tuple()
    t.flags.writeable = False
    return t


def _normalized_entries(p: NilpotentParams) -> tuple[complex, ...]:
    """The six entries of the unit-norm representative of ``build_matrix(p)``.

    The matrix is trace-free, so the representative is ``T / |T|_F``:
    the parameters over their Euclidean norm, or zeros when all vanish.
    """
    return tuple(complex(v) for v in normalize(build_matrix(p))[0][_UPPER])


@dataclass(frozen=True)
class ClosedForms:
    """Closed-form values of the trace polynomials on this family.

    ``psi4`` and ``psi7`` are valid for all parameters; the ``_d0`` pair
    gives psi_1 and psi_6 on the d = 0 slice and the ``_a0`` pair on the
    a = 0 slice.  All six are polynomials, so they evaluate everywhere;
    they only *equal* the corresponding trace values on their slices.
    """

    psi4: complex
    psi7: complex
    psi1_d0: complex
    psi6_d0: complex
    psi1_a0: complex
    psi6_a0: complex


def _abs2(v: complex) -> float:
    """``abs(v) ** 2``, or inf where ``abs`` or the power raises ``OverflowError``."""
    try:
        return abs(v) ** 2
    except OverflowError:
        return math.inf


def psi_closed_forms(p: NilpotentParams) -> ClosedForms:
    """The closed forms on the caller's parameters, in Python floats and complexes.

    Finite parameters never raise: a field whose evaluation overflows
    comes back as inf or nan, like the products that overflow silently.
    """
    a, b, c, d, e, f = p.as_tuple()
    aa, bb, cc, dd, ee, ff = map(_abs2, p.as_tuple())
    psi4 = aa * dd * ff * (aa + bb - ee - ff)
    psi7 = aa * _abs2(dd) * ff * (aa - ff)

    s = a * e + b * f
    psi1_d0 = _abs2(s) * (aa + bb - ee - ff)
    psi6_d0 = c.conjugate() * s * psi1_d0

    g = b * c.conjugate() + d * e.conjugate()
    psi1_a0 = ff * ((bb + dd) * (bb + dd - cc - ee - ff) + _abs2(g))
    psi6_a0 = f * g * psi1_a0
    return ClosedForms(
        psi4=complex(psi4),
        psi7=complex(psi7),
        psi1_d0=complex(psi1_d0),
        psi6_d0=complex(psi6_d0),
        psi1_a0=complex(psi1_a0),
        psi6_a0=complex(psi6_a0),
    )


@dataclass(frozen=True)
class Classification:
    """Which of the six conditions hold, with per-condition residuals."""

    satisfied: tuple[int, ...]
    uecsm: bool
    residuals: tuple[tuple[int, float], ...]


def _rel(value: float, scale: float) -> float:
    return value / (scale + EPS)


def classify(p: NilpotentParams, tol: float = DEFAULT_TOL) -> Classification:
    """Evaluate the six UECSM conditions for this family.

    The conditions are read on the unit-norm representative of
    ``build_matrix(p)`` (see :func:`~uecsm.matcore.normalize`), so the
    verdict is invariant under ``p -> c p`` for any nonzero ``c`` and no
    finite parameters overflow.  The residuals are those of the
    normalized entries: a zero gate on a, d or f is the entry's modulus,
    at most 1, and each equality is tested relative to the summed
    magnitudes of its terms.  Every satisfied condition is reported, not
    just the first; they overlap (the zero matrix satisfies all six).
    Condition 6 includes the phase constraint ae = bf (see the module
    docstring).
    """
    _require_tol(tol)
    a, b, c, d, e, f = _normalized_entries(p)
    aa, bb, cc, dd, ee, ff = (abs(v) ** 2 for v in (a, b, c, d, e, f))

    # 1: d = 0 and ae + bf = 0
    r1 = max(abs(d), _rel(abs(a * e + b * f), abs(a * e) + abs(b * f)))
    # 2: d = 0 and |a|^2 + |b|^2 = |e|^2 + |f|^2
    r2 = max(abs(d), _rel(abs(aa + bb - ee - ff), aa + bb + ee + ff))
    # 3: a = 0 and f = 0
    r3 = max(abs(a), abs(f))
    # 4: a = 0 and the column quadratic vanishes
    ga = b * c.conjugate() + d * e.conjugate()
    qa = (bb + dd) * (bb + dd - cc - ee - ff) + abs(ga) ** 2
    qa_scale = (bb + dd) * (bb + dd + cc + ee + ff) + abs(ga) ** 2
    r4 = max(abs(a), _rel(abs(qa), qa_scale))
    # 5: f = 0 and the mirrored quadratic vanishes
    gf = c * e.conjugate() + b * d.conjugate()
    qf = (dd + ee) * (dd + ee - aa - bb - cc) + abs(gf) ** 2
    qf_scale = (dd + ee) * (dd + ee + aa + bb + cc) + abs(gf) ** 2
    r5 = max(abs(f), _rel(abs(qf), qf_scale))
    # 6: |a| = |f|, |b| = |e|, and ae = bf
    r6 = max(
        _rel(abs(abs(a) - abs(f)), abs(a) + abs(f)),
        _rel(abs(abs(b) - abs(e)), abs(b) + abs(e)),
        _rel(abs(a * e - b * f), abs(a * e) + abs(b * f)),
    )

    residuals = ((1, r1), (2, r2), (3, r3), (4, r4), (5, r5), (6, r6))
    satisfied = tuple(idx for idx, r in residuals if r <= tol)
    return Classification(satisfied=satisfied, uecsm=bool(satisfied), residuals=residuals)


def symmetrizing_witness(p: NilpotentParams, tol: float = DEFAULT_TOL) -> CMatrix:
    """Explicit unitary U with U T U* complex symmetric, for condition 6.

    Requires condition 6 of :func:`classify` at ``tol`` (|a| = |f|,
    |b| = |e| and ae = bf) with a and f nonzero, that is above ``tol``
    on the same normalized entries.  The witness composes the diagonal
    re-phasing diag(1, a/f, 1, 1), which produces the palindromic
    pattern, with a fixed unitary V satisfying V^t V = J (the
    anti-diagonal permutation): J conjugates the palindromic matrix to
    its transpose, and folding J through V turns that into literal
    symmetry of U T U*.
    """
    if 6 not in classify(p, tol).satisfied:
        raise ValueError("witness construction needs condition 6: |a| = |f|, |b| = |e| and ae = bf")
    a, *_, f = _normalized_entries(p)
    if abs(a) <= tol or abs(f) <= tol:
        raise ValueError("witness construction needs a and f nonzero")

    mu = a / f
    mu /= abs(mu)
    rephase = np.diag([1.0, mu, 1.0, 1.0]).astype(complex)

    # V = diag(1, 1, i, i) Z^t with Z the eigenbasis of the anti-diagonal
    # permutation; then V^t V equals that permutation.
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    v = inv_sqrt2 * np.array(
        [
            [1, 0, 0, 1],
            [0, 1, 1, 0],
            [1j, 0, 0, -1j],
            [0, 1j, -1j, 0],
        ],
        dtype=complex,
    )
    u = v @ rephase
    u.flags.writeable = False
    return u
