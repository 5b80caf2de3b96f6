"""Dense complex matrix arithmetic and two-letter word evaluation.

Matrices are plain ``numpy.ndarray`` values with dtype ``complex128``;
:func:`cmatrix` is the validating constructor and returns a read-only
array, so every value in this package can be shared freely across
threads.  A word over the alphabet ``{x, y}`` is a non-empty string of
its letters, e.g. ``x^2 y^2 x y`` is ``"xxyyxy"``.
:func:`word_traces` is the one trace engine, and :func:`evaluate_word`
(the matrix value of one word) is its reference.  It compiles an index
plan per word tuple, cached for tuples that callers pass, and evaluates
it.  A plan's product table holds I, x, y and rows that are each the
product or the difference of two earlier rows, so a plan can also hold
traces ``tr(L R)`` of products that are not words read left to right;
:mod:`uecsm.tracetests` compiles one plan per size for the UECSM
commutator traces once, at import, and evaluates that plan directly.
Plans are shared, so their index arrays are read-only (:func:`_indices`),
and every gather from the table is an ``ndarray.take``: on tables this
small, fancy indexing costs several times as much for the same copy.

Every function that takes a matrix, except :func:`cmatrix`, which
converts a nested list, refuses anything but an ``ndarray`` with
``TypeError``.
:func:`cmatrix` and :func:`normalize_stack` refuse NaN and inf entries
with ``ValueError``.  :func:`adjoint`, :func:`word_traces` and
:func:`evaluate_word` check shapes (and words) but not entries: NaN and
inf pass through to their values.  A transpose, a trace or an identity
is the numpy call itself.

:func:`normalize_stack`, :func:`word_traces` and :func:`adjoint` also
take a ``(B, n, n)`` stack of matrices of one size; the one-matrix
:func:`normalize` is the ``B = 1`` case of :func:`normalize_stack`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Optional

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
    _require_finite(arr)
    arr.flags.writeable = False
    return arr


def _require_finite(*arrays) -> None:
    """Raise ``ValueError`` if an entry of ``arrays`` is NaN or infinite in either part."""
    for a in arrays:
        if not np.isfinite(a).all():  # a complex entry is finite when both parts are
            raise ValueError("matrix entries must be finite")


def _require_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and positive.

    A zero ``tol`` passes only residuals that vanish exactly, a negative
    or NaN one passes none, and an infinite one passes every finite one.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _indices(values) -> np.ndarray:
    """``values`` as a read-only ``intp`` array: the gather indices that
    the stacked kernels pass to ``ndarray.take`` and share across calls."""
    index = np.array(values, dtype=np.intp)
    index.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def _identity(n: int) -> CMatrix:
    """The ``n x n`` complex identity, cached and read-only."""
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


def _require_array(a) -> None:
    """Raise ``TypeError`` unless ``a`` is an ``ndarray``, naming the type it is."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"expected a numpy.ndarray, got {type(a).__name__}")


def _require_square(a: CMatrix, stacked: bool = False) -> int:
    """The size ``n`` of a square matrix, or of each matrix of a ``(B, n, n)`` stack.

    Raises ``TypeError`` naming the type of anything but an
    ``ndarray`` (a nested list included) and :class:`DimensionMismatch`
    on any other shape, ``n = 0`` included.  Every public function that
    takes a square matrix checks its type and shape before anything
    else: with this, with :func:`_require_pair` for two matrices of one
    shape, or against a size of its own after :func:`_require_array`.
    """
    _require_array(a)
    ndim = 3 if stacked else 2
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        what = "a stack of square matrices" if stacked else "a square matrix"
        raise DimensionMismatch(f"expected {what}, got shape {a.shape}")
    return a.shape[-1]


def _require_pair(a: CMatrix, b: CMatrix, stacked: bool = False) -> int:
    """:func:`_require_square` of ``a``, which ``b`` must match in type and shape."""
    n = _require_square(a, stacked)
    _require_array(b)
    if b.shape != a.shape:
        raise DimensionMismatch(f"matrices differ in shape: {a.shape} vs {b.shape}")
    return n


def adjoint(a: CMatrix) -> CMatrix:
    """Conjugate transpose of a matrix, or of each matrix of a ``(B, n, n)`` stack.

    Only the type and shape are checked: a NaN or inf entry passes through.
    """
    _require_square(a, stacked=np.ndim(a) == 3)
    return a.conj().swapaxes(-1, -2)


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
    """:func:`normalize_stack` of the one-matrix stack ``t[None]``, read-only."""
    _require_square(t)
    arrays = normalize_stack(t[None])
    for a in arrays:
        a.flags.writeable = False
    return arrays


def normalize_stack(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`normalize` of every matrix of a ``(B, n, n)`` stack.

    Returns the representatives ``(B, n, n)``, the shifts ``mu`` and the
    scales ``s`` (each of shape ``(B,)``).  Any stack is read, a strided
    view included: one that is not C-contiguous is copied first, since
    each matrix is reinterpreted as a row of real and imaginary parts.

    The entries of each matrix are scaled by a power of two near its
    largest real or imaginary part before anything else is computed, so
    no finite input overflows or underflows on the way to the
    representative.  Only ``mu`` and ``s`` themselves can overflow: one
    that exceeds the largest float comes back as ``inf``, without a
    warning.  For example ``s = |T - mu I|_F`` of
    ``[[1.7e308, -1.7e308], [1.7e308, 0]]`` is ``inf``, while its
    representative is finite.  An entry that is not finite (NaN or
    infinite in either part) raises ``ValueError``.
    """
    n = _require_square(ts, stacked=True)
    count = len(ts)
    # each matrix as a row of 2 n^2 reals, real and imaginary parts interleaved
    parts = np.ascontiguousarray(ts, dtype=complex).reshape(count, n * n).view(float)
    # scale by 2**-e, exactly, with 2**e near the largest part; a zero
    # matrix keeps e = 0.  The largest part is NaN or inf exactly when
    # some entry is not finite.
    top = np.maximum.reduce(np.abs(parts), axis=1)
    if not np.isfinite(top).all():
        raise ValueError("matrix entries must be finite")
    e = np.frexp(top)[1]
    m = np.ldexp(parts, -e[:, None]).view(complex)
    d = m[:, :: n + 1]  # the diagonals, a view
    # the mean taken relative to d[0] is exactly d[0] when every diagonal
    # entry equals it, so a scalar matrix centers to exact zeros
    mu = d[:, 0] + np.add.reduce(d - d[:, :1], axis=1) / n
    d -= mu[:, None]
    flat = m.view(float)
    r = np.sqrt(np.einsum("bi,bi->b", flat, flat))
    if r.all():
        reps = m.reshape(ts.shape) / r[:, None, None]
    else:
        # a scalar matrix (r = 0) comes back as zeros with s = 0
        reps = m.reshape(ts.shape) / np.where(r == 0.0, np.inf, r)[:, None, None]
    # undo the scaling of mu, real and imaginary parts alike; a value
    # beyond the largest float becomes inf
    with np.errstate(over="ignore"):
        mu = np.ldexp(mu.view(float).reshape(count, 2), e[:, None]).view(complex)[:, 0]
        s = np.ldexp(r, e)
    return reps, mu, s


def _require_words(words) -> None:
    """Raise ``ValueError`` unless ``words`` is a sequence, not a string, of non-empty strings of ``x`` and ``y``."""
    if isinstance(words, str):
        raise ValueError(f"words must be a sequence of words, not the string {words!r}")
    for w in words:
        if not isinstance(w, str) or not w or w.strip("xy"):
            raise ValueError(f"a word is a non-empty string of the letters x and y, got {w!r}")


def evaluate_word(w: str, x: CMatrix, y: CMatrix) -> CMatrix:
    """Left-to-right product substituting ``x`` and ``y`` for the letters of ``w``.

    One ``np.linalg.matrix_power`` per run of equal letters.  Entries are
    not checked: a NaN or inf in ``x`` or ``y`` passes through to the value.
    """
    n = _require_pair(x, y)
    _require_words((w,))
    out = np.eye(n, dtype=complex)
    for sym, run in groupby(w):
        out = out @ np.linalg.matrix_power(x if sym == "x" else y, len(list(run)))
    return out


@dataclass(frozen=True)
class _TracePlan:
    """Index arrays that evaluate a fixed tuple of traces.

    Row 0 of the product table is the identity and rows 1 and 2 are the
    letters; every other row is the product or the difference of two
    earlier rows.  Each of ``levels`` fills a run of rows from their
    operands in one batched ``np.matmul`` or ``np.subtract``, and the
    traces are ``tr(table[left] table[right])``, in the order of the
    pairs the plan was compiled from (:func:`_compile_plan`).
    """

    rows: int
    levels: tuple[tuple[np.ufunc, int, int, np.ndarray, np.ndarray], ...]
    left: np.ndarray
    right: np.ndarray

    def traces(self, x: CMatrix, y: CMatrix) -> np.ndarray:
        """The plan's traces for the letters ``x`` and ``y``, already checked.

        Two ``(n, n)`` letters give a vector, two ``(B, n, n)`` stacks a
        ``(traces, B)`` array.
        """
        stacked = x.ndim == 3
        xs, ys = (x, y) if stacked else (x[None], y[None])
        n = xs.shape[-1]
        table = np.empty((self.rows, len(xs), n, n), dtype=complex)
        table[0] = _identity(n)
        table[1] = xs
        table[2] = ys
        for op, start, stop, a, b in self.levels:
            op(table.take(a, 0), table.take(b, 0), out=table[start:stop])
        traces = np.einsum("kbij,kbji->kb", table.take(self.left, 0), table.take(self.right, 0))
        return traces if stacked else traces[:, 0]


class _Row:
    """A row of a product table being compiled; ``a @ b`` and ``a - b`` add rows."""

    __slots__ = ("table", "index")

    def __init__(self, table: "_TableBuilder", index: int) -> None:
        self.table = table
        self.index = index

    def __matmul__(self, other: "_Row") -> "_Row":
        return self.table.row(np.matmul, self, other)

    def __sub__(self, other: "_Row") -> "_Row":
        return self.table.row(np.subtract, self, other)


class _TableBuilder:
    """The rows of a product table over the letters ``x`` and ``y``.

    An expression built twice is one row, so trace families share every
    product they spell the same way, association included.
    """

    def __init__(self) -> None:
        self._ops: list[tuple[np.ufunc, int, int]] = []  # rows 3, 4, ...
        self._index: dict[tuple[np.ufunc, int, int], int] = {}
        self.identity, self.x, self.y = (_Row(self, k) for k in range(3))

    def row(self, op: np.ufunc, a: _Row, b: _Row) -> _Row:
        key = (op, a.index, b.index)
        if key not in self._index:
            self._index[key] = len(self._ops) + 3
            self._ops.append(key)
        return _Row(self, self._index[key])

    def word(self, letters: str) -> _Row:
        """The product of ``letters`` taken left to right: each prefix times a letter."""
        row = self.identity
        for sym in letters:
            letter = self.x if sym == "x" else self.y
            row = letter if row is self.identity else row @ letter
        return row

    def plan(self, pairs: Sequence[tuple[_Row, _Row]]) -> _TracePlan:
        """The plan reading ``tr(L R)`` for each pair ``(L, R)`` of rows.

        Each row runs as late as its readers allow, in levels that
        alternate between products and differences only where an
        expression needs it: every product level takes one batched
        ``np.matmul``, and a difference runs in the level just before the
        first product level that reads it.
        """
        # step 2d is product level d and step 2d - 1 the difference level
        # before it; counting down from step 0, past the last level
        latest = [0] * (len(self._ops) + 3)
        for row in reversed(range(3, len(latest))):
            op, a, b = self._ops[row - 3]
            step = latest[row] - 1
            latest[row] = step - (step % 2 != (op is np.subtract))
            latest[a] = min(latest[a], latest[row])
            latest[b] = min(latest[b], latest[row])
        order = sorted(range(3, len(latest)), key=lambda row: (latest[row], row))
        index = {0: 0, 1: 1, 2: 2}
        index.update((row, k) for k, row in enumerate(order, start=3))
        levels = []
        for _, group in groupby(order, key=latest.__getitem__):
            group = list(group)
            ops = [self._ops[row - 3] for row in group]
            a = _indices([index[a] for _, a, _ in ops])
            b = _indices([index[b] for _, _, b in ops])
            levels.append((ops[0][0], index[group[0]], index[group[0]] + len(group), a, b))
        left = _indices([index[l.index] for l, _ in pairs])
        right = _indices([index[r.index] for _, r in pairs])
        return _TracePlan(len(index), tuple(levels), left, right)


def _compile_plan(words: tuple[str, ...], family: Optional[Callable] = None) -> _TracePlan:
    """The plan of the traces of ``words``, then of ``tr(L R)`` for each
    pair ``(L, R)`` of ``family(x, y)``.

    Each word is split as ``w = l r`` with ``l`` its first ``ceil(d/2)``
    letters, and ``l`` and ``r`` are prefix products, so words share
    their prefixes.  ``family`` spells its products and differences with
    ``@`` and ``-`` on the letter rows it is given.
    """
    table = _TableBuilder()
    pairs = []
    for w in words:
        cut = (len(w) + 1) // 2
        pairs.append((table.word(w[:cut]), table.word(w[cut:])))
    if family is not None:
        pairs.extend(family(table.x, table.y))
    return table.plan(pairs)


@lru_cache(maxsize=256)
def _trace_plan(words: tuple[str, ...]) -> _TracePlan:
    return _compile_plan(words)


def word_traces(words: Sequence[str], x: CMatrix, y: CMatrix) -> np.ndarray:
    """``tr w(x, y)`` for every word in ``words``.

    ``x`` and ``y`` are two ``(n, n)`` matrices, giving a vector of
    ``len(words)`` traces, or two ``(B, n, n)`` stacks, giving a
    ``(len(words), B)`` array.  Each word is split as ``w = l r`` with
    ``l`` its first ``ceil(d/2)`` letters, and ``tr w = sum_ij l_ij r_ji``
    is read from a ``(rows, B, n, n)`` table that holds every distinct
    prefix of every half once, so words share their products and the
    table grows with the total word length, not with the number of words
    of a degree.  The index plan of a word tuple is cached.  A bare
    string for ``words``, or a word that is not a non-empty string of
    ``x`` and ``y``, raises ``ValueError`` before the cache is looked
    up.  Entries are not checked: a NaN or
    inf in ``x`` or ``y`` passes through to the traces.  The UECSM
    criteria of :mod:`uecsm.tracetests` compile their plans once, at
    import, and evaluate them without this function's cache lookup.
    """
    _require_pair(x, y, np.ndim(x) == 3)
    _require_words(words)
    return _trace_plan(tuple(words)).traces(x, y)


def word_trace(w: str, x: CMatrix, y: CMatrix) -> complex:
    return complex(word_traces((w,), x, y)[0])
