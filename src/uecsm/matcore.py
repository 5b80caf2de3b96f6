"""Dense complex matrix arithmetic and two-letter word evaluation.

Matrices are plain ``numpy.ndarray`` values with dtype ``complex128``;
:func:`cmatrix` is the validating constructor and returns a read-only
array, so every value in this package can be shared freely across
threads.  Words over the alphabet ``{x, y}`` are stored as run-length
sequences, e.g. ``x^2 y^2 x y`` is ``Word.from_string("x2y2xy")``.
:func:`word_traces` is the one trace engine: every word trace in the
package is read from it, and :func:`evaluate_word` (the matrix value of
one word) is its reference.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .errors import DimensionMismatch

CMatrix = np.ndarray

EPS = float(np.finfo(float).eps)


def cmatrix(data) -> CMatrix:
    """Validate ``data`` as a square finite complex matrix.

    Returns a read-only ``complex128`` copy; raises
    :class:`DimensionMismatch` on non-square input and ``ValueError``
    on NaN/Inf entries.
    """
    arr = np.array(data, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    arr.flags.writeable = False
    return arr


def identity(n: int) -> CMatrix:
    return np.eye(n, dtype=complex)


def _require_square(a: CMatrix) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def mul(a: CMatrix, b: CMatrix) -> CMatrix:
    """Matrix product of two equal-size square matrices."""
    _require_square(a)
    if a.shape != b.shape:
        raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def adjoint(a: CMatrix) -> CMatrix:
    """Conjugate transpose."""
    _require_square(a)
    return a.conj().T


def transpose(a: CMatrix) -> CMatrix:
    _require_square(a)
    return a.T


def trace(a: CMatrix) -> complex:
    _require_square(a)
    return complex(np.trace(a))


def frobenius_norm(a: CMatrix) -> float:
    _require_square(a)
    return float(np.linalg.norm(a))


def normalize(t: CMatrix) -> tuple[CMatrix, complex, float]:
    """The centered, normalized representative ``(T - mu I) / s`` of ``T``.

    Returns the representative with ``mu = tr T / n`` and
    ``s = |T - mu I|_F``.  UECSM, unitary equivalence and the eigenvector
    systems are unchanged by ``T -> aT + bI`` (``a != 0``), so every
    criterion decides on this trace-free, unit-norm matrix and needs no
    scale convention of its own.  A scalar matrix comes back as zeros
    with ``s = 0``.

    The entries are scaled by a power of two near the largest real or
    imaginary part before anything else is computed, so no finite input
    overflows or underflows on the way to the representative.  Only
    ``mu`` and ``s`` themselves can overflow, when they exceed the
    largest float.
    """
    n = _require_square(t)
    big = max(float(np.abs(t.real).max()), float(np.abs(t.imag).max()))
    if big == 0.0:
        return np.zeros((n, n), dtype=complex), 0j, 0.0
    # multiply by 2**-e in two factors, neither of which can overflow (as
    # 1 / big does for subnormal input); scaling by a power of two is exact
    e = math.frexp(big)[1]
    f1, f2 = 2.0 ** (-e // 2), 2.0 ** (-e - (-e // 2))
    m = t * f1 * f2
    d = m.diagonal()
    # the mean taken relative to d[0] is exactly d[0] when every diagonal
    # entry equals it, so a scalar matrix centers to exact zeros
    mu = complex(d[0]) + complex((d - d[0]).sum()) / n
    centered = m - mu * np.eye(n)
    r = float(np.linalg.norm(centered))
    if r == 0.0:
        return np.zeros((n, n), dtype=complex), mu / f1 / f2, 0.0
    return centered / r, mu / f1 / f2, r / f1 / f2


@dataclass(frozen=True)
class Word:
    """A word in two noncommuting letters, stored as (symbol, exponent) runs."""

    runs: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.runs:
            raise ValueError("a word must have degree >= 1")
        for sym, exp in self.runs:
            if sym not in ("x", "y"):
                raise ValueError(f"unknown symbol {sym!r}")
            if exp < 1:
                raise ValueError("run exponents must be >= 1")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse compact notation such as ``"x2y2xy"`` (digits are exponents).

        A letter without digits has exponent 1; an explicit exponent of 0
        raises ``ValueError``.
        """
        runs: list[tuple[str, int]] = []
        i = 0
        while i < len(text):
            sym = text[i]
            i += 1
            digits = i
            while i < len(text) and text[i].isdigit():
                i += 1
            exp = int(text[digits:i]) if i > digits else 1
            if exp == 0:
                raise ValueError(f"explicit exponent 0 in {text!r}")
            if runs and runs[-1][0] == sym:
                runs[-1] = (sym, runs[-1][1] + exp)
            else:
                runs.append((sym, exp))
        return cls(tuple(runs))

    @property
    def degree(self) -> int:
        return sum(exp for _, exp in self.runs)

    def __str__(self) -> str:
        return "".join(f"{s}{e}" if e > 1 else s for s, e in self.runs)


def reverse_word(w: Word) -> Word:
    """The reversal, e.g. reverse of x y^2 is y^2 x."""
    return Word(tuple(reversed(w.runs)))


def evaluate_word(w: Word, x: CMatrix, y: CMatrix) -> CMatrix:
    """Left-to-right product substituting ``x`` and ``y`` for the letters."""
    n = _require_square(x)
    if x.shape != y.shape:
        raise DimensionMismatch(f"letter matrices differ in shape: {x.shape} vs {y.shape}")
    powers: dict[tuple[str, int], CMatrix] = {}

    def power(sym: str, exp: int) -> CMatrix:
        key = (sym, exp)
        if key not in powers:
            base = x if sym == "x" else y
            powers[key] = np.linalg.matrix_power(base, exp)
        return powers[key]

    out = np.eye(n, dtype=complex)
    for sym, exp in w.runs:
        out = out @ power(sym, exp)
    return out


@dataclass(frozen=True)
class _TracePlan:
    """Index arrays that evaluate the traces of a fixed tuple of words.

    Row 0 of the product table is the identity and rows 1 and 2 are the
    letters; every other row is one distinct prefix of a word half, and
    ``levels`` fills the rows of each prefix length from their parents in
    one batched product.
    """

    rows: int
    levels: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]
    left: np.ndarray
    right: np.ndarray


@lru_cache(maxsize=256)
def _trace_plan(words: tuple[Word, ...]) -> _TracePlan:
    halves = []
    for w in words:
        letters = "".join(sym * exp for sym, exp in w.runs)
        cut = (len(letters) + 1) // 2
        halves.append((letters[:cut], letters[cut:]))
    # rows 1 and 2 are the letters x and y themselves
    prefixes = sorted(
        {"x", "y"} | {h[:k] for pair in halves for h in pair for k in range(2, len(h) + 1)},
        key=lambda p: (len(p), p),
    )
    index = {"": 0}
    index.update((p, row) for row, p in enumerate(prefixes, start=1))
    levels = []
    for _, group in groupby(prefixes[2:], key=len):
        group = list(group)
        start = index[group[0]]
        parents = np.array([index[p[:-1]] for p in group], dtype=np.intp)
        last = np.array([index[p[-1]] for p in group], dtype=np.intp)
        levels.append((start, start + len(group), parents, last))
    left = np.array([index[a] for a, _ in halves], dtype=np.intp)
    right = np.array([index[b] for _, b in halves], dtype=np.intp)
    return _TracePlan(len(index), tuple(levels), left, right)


def word_traces(words: Sequence[Word], x: CMatrix, y: CMatrix) -> np.ndarray:
    """``tr w(x, y)`` for every word in ``words``, as a complex vector.

    Each word is split as ``w = l r`` with ``l`` its first ``ceil(d/2)``
    letters, and ``tr w = sum_ij l_ij r_ji`` is read from a table that
    holds every distinct prefix of every half once, so words share their
    products and the table grows with the total word length, not with the
    number of words of a degree.  The index plan is cached per word tuple.
    """
    n = _require_square(x)
    if x.shape != y.shape:
        raise DimensionMismatch(f"letter matrices differ in shape: {x.shape} vs {y.shape}")
    plan = _trace_plan(tuple(words))
    table = np.empty((plan.rows, n, n), dtype=complex)
    table[0] = np.eye(n)
    table[1] = x
    table[2] = y
    for start, stop, parents, last in plan.levels:
        np.matmul(table[parents], table[last], out=table[start:stop])
    return np.einsum("kij,kji->k", table[plan.left], table[plan.right])


def word_trace(w: Word, x: CMatrix, y: CMatrix) -> complex:
    return complex(word_traces((w,), x, y)[0])
