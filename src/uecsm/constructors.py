"""Builders for indefinite special unitary matrices and angle-test examples.

``SU(k, n-k)`` here means determinant-one matrices preserving the
Hermitian form <v,w> = sum_{j<=k} v_j conj(w_j) - sum_{j>k} v_j conj(w_j),
equivalently Q* A Q = A with A = I_k (+) -I_{n-k}.  Conjugating a
distinct diagonal by such a Q yields matrices that pass the linear
strong angle test by construction; whenever some cyclic triple product
of the columns of Q is non-real, the result fails the strong angle test
and is therefore not UECSM while still passing the weak test.  That
rejection loop is the counterexample generator at the bottom.

Every function that takes a matrix, a vector or a diagonal refuses a
matrix that is not an ``ndarray`` with ``TypeError``, a shape it cannot
use with :class:`~uecsm.errors.DimensionMismatch` and a NaN or infinite
entry with ``ValueError("matrix entries must be finite")``, before any
arithmetic.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .angletests import angle_suite
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    ExhaustedRetries,
    IsotropicVector,
    RepeatedDiagonal,
    SingularMatrix,
    UecsmError,
)
from .matcore import CMatrix, EPS, _require_array, _require_finite, _require_square, _require_tol
from .tracetests import DEFAULT_TOL, Verdict

log = logging.getLogger(__name__)

_SELF_PRODUCT_FLOOR = 1e-10
# Draws of Q that generate_wat_not_sat makes before it gives up.
_WAT_NOT_SAT_ATTEMPTS = 1000


@dataclass(frozen=True)
class Signature:
    """Signature (k, n-k) of the indefinite form on C^n."""

    k: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")

    @property
    def minus(self) -> int:
        return self.n - self.k

    def matrix(self) -> CMatrix:
        return np.diag([1.0] * self.k + [-1.0] * self.minus).astype(complex)


def indefinite_inner(v: np.ndarray, w: np.ndarray, sig: Signature) -> complex:
    """The signed sesquilinear form, linear in the first argument."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if v.shape != (sig.n,) or w.shape != (sig.n,):
        raise DimensionMismatch(f"vectors must have length {sig.n}")
    _require_finite(v, w)
    signs = np.array([1.0] * sig.k + [-1.0] * sig.minus)
    return complex(np.sum(signs * v * w.conj()))


def indefinite_gram_schmidt(vectors: Sequence[np.ndarray], sig: Signature) -> CMatrix:
    """Orthogonalize n vectors under the signed form and assemble Q in SU(k, n-k).

    Processes vectors in input order, normalizing each by the square
    root of |self-product|; a self-product smaller than 1e-10 in
    magnitude aborts with :class:`IsotropicVector` (retry with fresh
    input).  Columns are then reordered so the +1 self-products come
    first.  There are k of them: the n columns are orthonormal under the
    form up to rounding, so Sylvester's law of inertia fixes the sign
    counts.  Numerically dependent columns raise :class:`SingularMatrix`.
    Finally the last column is rotated by a unimodular phase so det Q = 1.
    """
    if len(vectors) != sig.n:
        raise DimensionMismatch(f"need {sig.n} vectors, got {len(vectors)}")
    _require_finite(*vectors)
    basis: list[np.ndarray] = []
    signs: list[float] = []
    for raw in vectors:
        v = np.asarray(raw, dtype=complex).copy()
        if v.shape != (sig.n,):
            raise DimensionMismatch(f"vectors must have length {sig.n}")
        for u, sign in zip(basis, signs):
            v = v - sign * indefinite_inner(v, u, sig) * u
        self_product = indefinite_inner(v, v, sig).real
        if abs(self_product) < _SELF_PRODUCT_FLOOR:
            raise IsotropicVector(
                f"self-product {self_product:.3e} below {_SELF_PRODUCT_FLOOR:.0e}"
            )
        v = v / np.sqrt(abs(self_product))
        basis.append(v)
        signs.append(1.0 if self_product > 0 else -1.0)

    plus = [v for v, s in zip(basis, signs) if s > 0]
    minus = [v for v, s in zip(basis, signs) if s < 0]
    q = np.column_stack(plus + minus)
    det = complex(np.linalg.det(q))
    if abs(det) < 1e-12:
        raise SingularMatrix("orthogonalized columns are numerically dependent")
    q[:, -1] *= det.conjugate() / abs(det) ** 2
    q.flags.writeable = False
    return q


def su_membership(q: CMatrix, sig: Signature, tol: float = DEFAULT_TOL) -> Verdict:
    """Check Q* A Q = A and det Q = 1."""
    _require_array(q)
    if q.shape != (sig.n, sig.n):
        raise DimensionMismatch(f"expected shape ({sig.n}, {sig.n}), got {q.shape}")
    _require_finite(q)
    a = sig.matrix()
    form_residual = float(np.linalg.norm(q.conj().T @ a @ q - a))
    det_residual = abs(complex(np.linalg.det(q)) - 1.0)
    row = (form_residual, det_residual)
    return Verdict("su_membership", ("form_preservation", "determinant"), row, tol)


def conjugated_diagonal(q: CMatrix, d: Sequence[complex]) -> CMatrix:
    """T = Q diag(d) Q^{-1} for pairwise distinct diagonal entries.

    Raises :class:`~uecsm.errors.UecsmError` when an entry of the product
    overflows a float, which finite entries of ``d`` near the largest
    float can make happen.
    """
    _require_array(q)
    entries = [complex(v) for v in d]
    n = len(entries)
    if n < 1 or q.shape != (n, n):
        raise DimensionMismatch("q must be square and d must match its size")
    _require_finite(q, entries)
    for i in range(n):
        for j in range(i + 1, n):
            if entries[i] == entries[j]:
                raise RepeatedDiagonal(f"diagonal entries {i} and {j} coincide")
    try:
        qinv = np.linalg.inv(q)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("q is not invertible") from exc
    if np.linalg.cond(q) > 1e12:
        raise SingularMatrix("q is numerically singular")
    with np.errstate(over="ignore", invalid="ignore"):
        t = q @ np.diag(entries) @ qinv
    if not np.isfinite(t).all():
        raise UecsmError("Q diag(d) Q^-1 overflows a float: the diagonal entries are too large")
    t.flags.writeable = False
    return t


@dataclass(frozen=True)
class TripleProduct:
    """One cyclic triple product of columns with its reality flag (1-based indices)."""

    indices: tuple[int, int, int]
    value: complex
    is_real: bool


def sat_obstruction(q: CMatrix, tol: float = DEFAULT_TOL) -> tuple[TripleProduct, ...]:
    """Cyclic triple products <q_i,q_j><q_j,q_k><q_k,q_i> for i < j < k.

    Computed on the raw columns: reality is invariant under positive
    column scaling, so this matches the statement for the normalized
    eigenvectors.  The conjugated-diagonal construction satisfies the
    strong angle test iff every one of these is real.
    """
    n = _require_square(q)
    _require_finite(q)
    _require_tol(tol)
    cols = [q[:, i] for i in range(n)]
    norms = [float(np.linalg.norm(c)) for c in cols]
    if any(v == 0.0 for v in norms):
        raise SingularMatrix("q has a zero column")
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                value = complex(
                    np.vdot(cols[j], cols[i])
                    * np.vdot(cols[k], cols[j])
                    * np.vdot(cols[i], cols[k])
                )
                # imaginary parts at rounding level (relative to the column
                # norms) are zero, hence real
                floor = 64 * EPS * (norms[i] * norms[j] * norms[k]) ** 2
                is_real = abs(value.imag) <= max(tol * abs(value), floor)
                out.append(TripleProduct((i + 1, j + 1, k + 1), value, is_real))
    return tuple(out)


def diagonal_angle_suite(t: CMatrix, d: Sequence[complex]) -> dict[str, Verdict]:
    """:func:`~uecsm.angletests.angle_suite` of ``t = Q diag(d) Q^{-1}``.

    The spectrum of ``t`` is ``d``, so when the angle tests refuse it as
    degenerate, distinct entries of ``d`` sit too close together for the
    spread of the others (``1e200, 0, 1, 2``).  That refusal is raised as
    :class:`~uecsm.errors.RepeatedDiagonal` naming the closest pair of
    entries, not the internal normalized matrix.
    """
    try:
        return angle_suite(t)
    except DegenerateSpectrum as exc:
        a, b = min(itertools.combinations(d, 2), key=lambda pair: abs(pair[0] - pair[1]))
        names = " and ".join(f"{v.real:g}" if v.imag == 0 else f"{v:g}" for v in (a, b))
        raise RepeatedDiagonal(
            f"diagonal entries {names} are too close together to tell apart at the spread of the diagonal"
        ) from exc


def _gaussian_integer_vectors(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    re = rng.integers(-2, 3, size=(n, n))
    im = rng.integers(-2, 3, size=(n, n))
    return [re[i] + 1j * im[i] for i in range(n)]


def random_su(sig: Signature, seed: int, max_attempts: int = 200) -> CMatrix:
    """Draw small Gaussian-integer vectors until orthogonalization succeeds."""
    rng = np.random.default_rng(seed)
    for attempt in range(max_attempts):
        try:
            return indefinite_gram_schmidt(_gaussian_integer_vectors(rng, sig.n), sig)
        except (IsotropicVector, SingularMatrix):
            continue
    raise ExhaustedRetries(f"no SU({sig.k},{sig.minus}) matrix after {max_attempts} draws")


def generate_wat_not_sat(
    seed: int,
    sig: Signature,
    d: Sequence[complex] = (-1.0, 0.0, 1.0, 2.0),
) -> CMatrix:
    """Deterministically construct a matrix passing WAT and LSAT but failing SAT.

    Requires min(k, n-k) >= 2: with a one-dimensional cone every
    conjugated diagonal is UECSM, so no counterexample exists there
    (and none exists for n <= 3 at all).  Each of at most
    ``_WAT_NOT_SAT_ATTEMPTS`` attempts draws a fresh Q and returns the
    assembled matrix once the angle suite confirms the advertised
    behavior on it: WAT and LSAT pass and SAT fails with a residual
    above ten times its tolerance.  A Q whose column triple products
    are all real (see :func:`sat_obstruction`) gives a matrix that
    passes SAT, so the suite's SAT check rejects it.
    """
    if min(sig.k, sig.minus) < 2:
        raise ValueError(
            f"signature ({sig.k},{sig.minus}) cannot produce a counterexample; "
            "need both cones at least 2-dimensional"
        )
    entries = [complex(v) for v in d]
    if len(entries) != sig.n:
        raise DimensionMismatch(f"diagonal must have length {sig.n}")
    for attempt in range(_WAT_NOT_SAT_ATTEMPTS):
        try:
            q = random_su(sig, seed=seed * 1_000_003 + attempt, max_attempts=1)
        except ExhaustedRetries:
            continue
        t = conjugated_diagonal(q, entries)
        suite = diagonal_angle_suite(t, entries)
        solid_fail = suite["sat"].max_residual > 10 * suite["sat"].tol
        if suite["wat"].passed and suite["lsat"].passed and solid_fail:
            log.debug("generate_wat_not_sat: seed=%d attempts=%d", seed, attempt + 1)
            return t
    raise ExhaustedRetries(
        f"no WAT-not-SAT example in {_WAT_NOT_SAT_ATTEMPTS} attempts "
        "(each Q gave a matrix that passes SAT or fails WAT or LSAT)"
    )
