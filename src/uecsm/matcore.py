"""Dense complex matrix arithmetic and two-letter word evaluation.

Matrices are plain ``numpy.ndarray`` values with dtype ``complex128``;
:func:`cmatrix` is the validating constructor and returns a read-only
array, so every value in this package can be shared freely across
threads.  Words over the alphabet ``{x, y}`` are stored as run-length
sequences, e.g. ``x^2 y^2 x y`` is ``Word.from_string("x2y2xy")``.
:func:`word_traces` is the one trace engine: every word trace in the
package is read from it, and :func:`evaluate_word` (the matrix value of
one word) is its reference.

:func:`normalize_stack`, :func:`word_traces` and :func:`adjoint` also
take a ``(B, n, n)`` stack of matrices of one size; the one-matrix
:func:`normalize` is the ``B = 1`` case of :func:`normalize_stack`.
"""

from __future__ import annotations

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
    _require_square(arr)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    arr.flags.writeable = False
    return arr


def identity(n: int) -> CMatrix:
    return np.eye(n, dtype=complex)


def _require_square(a: CMatrix, stacked: bool = False) -> int:
    """The size ``n`` of a square matrix, or of each matrix of a ``(B, n, n)`` stack.

    Raises :class:`DimensionMismatch` on any other shape, ``n = 0``
    included; every public entry point and stacked kernel runs it first.
    """
    ndim = 3 if stacked else 2
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        what = "a stack of square matrices" if stacked else "a square matrix"
        raise DimensionMismatch(f"expected {what}, got shape {a.shape}")
    return a.shape[-1]


def adjoint(a: CMatrix) -> CMatrix:
    """Conjugate transpose of a matrix, or of each matrix of a ``(B, n, n)`` stack."""
    _require_square(a, stacked=a.ndim == 3)
    return a.conj().swapaxes(-1, -2)


def transpose(a: CMatrix) -> CMatrix:
    _require_square(a)
    return a.T


def trace(a: CMatrix) -> complex:
    _require_square(a)
    return complex(np.trace(a))


def normalize(t: CMatrix) -> tuple[CMatrix, complex, float]:
    """The centered, normalized representative ``(T - mu I) / s`` of ``T``.

    Returns the representative with ``mu = tr T / n`` and
    ``s = |T - mu I|_F``.  UECSM, unitary equivalence and the eigenvector
    systems are unchanged by ``T -> aT + bI`` (``a != 0``), so every
    criterion decides on this trace-free, unit-norm matrix and needs no
    scale convention of its own.  A scalar matrix comes back as zeros
    with ``s = 0``.  This is the one-matrix case of
    :func:`normalize_stack`; the representative is read-only.
    """
    reps, mu, s = representative(t)
    return reps[0], complex(mu[0]), float(s[0])


def representative(t: CMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`normalize_stack` of the one-matrix stack ``t[None]``, read-only.

    For the sizes the criteria decide, the result is memoized by the
    entries of ``t``: each criterion of one analysis normalizes the same
    matrix in turn, and all of them read the same representative.
    """
    n = _require_square(t)
    t = np.ascontiguousarray(t, dtype=complex)
    if n > _MEMO_MAX_N:
        return _read_only(normalize_stack(t[None]))
    return _representative(t.tobytes(), n)


#: Largest size whose representative is memoized, so that the memo's 16
#: entries hold at most about 40 KB.
_MEMO_MAX_N = 8


@lru_cache(maxsize=16)
def _representative(entries: bytes, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _read_only(normalize_stack(np.frombuffer(entries, dtype=complex).reshape(1, n, n)))


def _read_only(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def normalize_stack(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`normalize` of every matrix of a ``(B, n, n)`` stack.

    Returns the representatives ``(B, n, n)``, the shifts ``mu`` and the
    scales ``s`` (each of shape ``(B,)``).

    The entries of each matrix are scaled by a power of two near its
    largest real or imaginary part before anything else is computed, so
    no finite input overflows or underflows on the way to the
    representative.  Only ``mu`` and ``s`` themselves can overflow, when
    they exceed the largest float.
    """
    n = _require_square(ts, stacked=True)
    count = len(ts)
    # each matrix as a row of 2 n^2 reals, real and imaginary parts interleaved
    parts = np.asarray(ts, dtype=complex).reshape(count, n * n).view(float)
    # scale by 2**-e, exactly, with 2**e near the largest part; a zero
    # matrix keeps e = 0
    e = np.frexp(np.abs(parts).max(axis=1))[1]
    m = np.ldexp(parts, -e[:, None]).view(complex)
    d = m[:, :: n + 1]  # the diagonals, a view
    # the mean taken relative to d[0] is exactly d[0] when every diagonal
    # entry equals it, so a scalar matrix centers to exact zeros
    mu = d[:, 0] + (d - d[:, :1]).sum(axis=1) / n
    d -= mu[:, None]
    flat = m.view(float)
    r = np.sqrt(np.einsum("bi,bi->b", flat, flat))
    if r.all():
        reps = m.reshape(ts.shape) / r[:, None, None]
    else:
        # a scalar matrix (r = 0) comes back as zeros with s = 0
        reps = m.reshape(ts.shape) / np.where(r == 0.0, np.inf, r)[:, None, None]
    # undo the scaling of mu, real and imaginary parts alike
    mu = np.ldexp(mu.view(float).reshape(count, 2), e[:, None]).view(complex)[:, 0]
    return reps, mu, np.ldexp(r, e)


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
    """``tr w(x, y)`` for every word in ``words``.

    ``x`` and ``y`` are two ``(n, n)`` matrices, giving a vector of
    ``len(words)`` traces, or two ``(B, n, n)`` stacks, giving a
    ``(len(words), B)`` array.  Each word is split as ``w = l r`` with
    ``l`` its first ``ceil(d/2)`` letters, and ``tr w = sum_ij l_ij r_ji``
    is read from a ``(rows, B, n, n)`` table that holds every distinct
    prefix of every half once, so words share their products and the
    table grows with the total word length, not with the number of words
    of a degree.  The index plan is cached per word tuple.
    """
    stacked = x.ndim == 3
    n = _require_square(x, stacked)
    if x.shape != y.shape:
        raise DimensionMismatch(f"letter matrices differ in shape: {x.shape} vs {y.shape}")
    plan = _trace_plan(tuple(words))
    xs, ys = (x, y) if stacked else (x[None], y[None])
    table = np.empty((plan.rows, len(xs), n, n), dtype=complex)
    table[0] = np.eye(n)
    table[1] = xs
    table[2] = ys
    for start, stop, parents, last in plan.levels:
        np.matmul(table[parents], table[last], out=table[start:stop])
    traces = np.einsum("kbij,kbji->kb", table[plan.left], table[plan.right])
    return traces if stacked else traces[:, 0]


def word_trace(w: Word, x: CMatrix, y: CMatrix) -> complex:
    return complex(word_traces((w,), x, y)[0])
