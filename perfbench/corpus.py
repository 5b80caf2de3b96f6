"""Seeded, certified input corpus for the benchmark.

Every input carries a certificate that this module computes with plain
numpy, independently of the package under test:

* a UECSM input is built as ``T = W* S W`` with ``S`` complex symmetric
  and ``W`` unitary, and carries ``W``: :func:`witness_defect` checks
  that ``W`` is unitary and that ``W T W*`` is symmetric;
* a non-UECSM input carries a word certificate: the largest normalized
  gap ``|tr w(T,T*) - tr rev(w)(T,T*)| / |T|_F^deg(w)`` over
  :data:`CERT_WORDS`.  UECSM implies ``T ~ T^t`` and
  ``tr w(T^t, conj T) = tr rev(w)(T, T*)``, so a gap far above rounding
  rules UECSM out.

Draws are never filtered on the output of the package under test.  A
non-UECSM draw whose certificate falls below :data:`CERT_MIN`, or a
distinct-spectrum draw whose numpy eigenvalue gap falls below
:data:`GAP_MIN`, is redrawn from the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Words whose trace differs from that of their reversal on generic
#: non-UECSM matrices: Djokovic's words 12-20 plus the 3x3 criterion word.
CERT_WORDS: tuple[str, ...] = (
    "xxyyxy",
    "xxxyyxy",
    "xxxyyxxy",
    "xxxyyyxy",
    "xxxyxxyxy",
    "xxyyxyxxy",
    "xxxyyyxxyy",
    "yxyxxy",
)

#: A non-UECSM input needs a certificate at least this large.  Rounding
#: puts constructed UECSM inputs below 1e-14.
CERT_MIN = 1e-6

#: Largest certificate, unitarity defect and symmetry defect accepted for
#: a UECSM input.
UECSM_MAX = 1e-12

#: Smallest eigenvalue gap, relative to |T|_F, of a distinct-spectrum draw.
GAP_MIN = 1e-2


@dataclass(frozen=True)
class Case:
    """One benchmark input with its certified status."""

    label: str
    kind: str
    matrix: np.ndarray
    uecsm: bool
    witness: Optional[np.ndarray]
    certificate: float


def word_certificate(t: np.ndarray) -> float:
    """Largest normalized trace gap between a word and its reversal."""
    letters = {"x": np.asarray(t, dtype=complex), "y": np.asarray(t, dtype=complex).conj().T}
    n = t.shape[0]
    scale = float(np.linalg.norm(t))
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for word in CERT_WORDS:
        fwd = np.eye(n, dtype=complex)
        rev = np.eye(n, dtype=complex)
        for ch in word:
            fwd = fwd @ letters[ch]
        for ch in reversed(word):
            rev = rev @ letters[ch]
        gap = abs(np.trace(fwd) - np.trace(rev)) / scale ** len(word)
        worst = max(worst, float(gap))
    return worst


def witness_defect(t: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(unitarity defect of ``w``, relative asymmetry of ``w t w*``)."""
    n = t.shape[0]
    unitarity = float(np.linalg.norm(w.conj().T @ w - np.eye(n)))
    s = w @ t @ w.conj().T
    symmetry = float(np.linalg.norm(s - s.T) / np.linalg.norm(t))
    return unitarity, symmetry


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _relative_gap(t: np.ndarray) -> float:
    lam = np.linalg.eigvals(t)
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(len(lam), np.inf))
    return float(gaps.min() / np.linalg.norm(t))


def _nilpotent(params) -> np.ndarray:
    a, b, c, d, e, f = params
    return np.array(
        [[0, a, b, c], [0, 0, d, e], [0, 0, 0, f], [0, 0, 0, 0]], dtype=complex
    )


def _antidiagonal_takagi() -> np.ndarray:
    """Unitary V with V^t V = J, the 4x4 anti-diagonal permutation.

    A palindromic nilpotent T satisfies T^t = J T J, and then V T V* is
    symmetric: (V T V*)^t = conj(V) J T J V^t = V T V*.
    """
    j = np.fliplr(np.eye(4))
    evals, q = np.linalg.eigh(j)
    return np.diag(np.sqrt(evals.astype(complex))) @ q.T


_V_PALINDROME = _antidiagonal_takagi()


def _draw_uecsm(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    while True:
        z = _gaussian(rng, (n, n))
        w = haar_unitary(rng, n)
        t = w.conj().T @ (z + z.T) / np.sqrt(2) @ w
        if _relative_gap(t) >= GAP_MIN:
            return t, w


def _draw_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        t = _gaussian(rng, (n, n))
        if _relative_gap(t) >= GAP_MIN and word_certificate(t) >= CERT_MIN:
            return t


def _draw_palindromic(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    a, b, c, d = _gaussian(rng, 4)
    phase = np.diag(np.exp(2j * np.pi * rng.random(4)))
    t = phase @ _nilpotent((a, b, c, d, b, a)) @ phase.conj().T
    return t, _V_PALINDROME @ phase.conj().T


def _draw_generic_nilpotent(rng: np.random.Generator) -> np.ndarray:
    while True:
        t = _nilpotent(_gaussian(rng, 6))
        if word_certificate(t) >= CERT_MIN:
            return t


#: kind -> (dimension, UECSM by construction)
KINDS: dict[str, tuple[int, bool]] = {
    "uecsm3": (3, True),
    "gauss3": (3, False),
    "uecsm4": (4, True),
    "gauss4": (4, False),
    "palin4": (4, True),
    "nilgen4": (4, False),
}


def draw(kind: str, rng: np.random.Generator) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """One matrix of ``kind`` and, for a UECSM kind, its witness unitary."""
    n, _ = KINDS[kind]
    if kind.startswith("uecsm"):
        return _draw_uecsm(rng, n)
    if kind.startswith("gauss"):
        return _draw_gaussian(rng, n), None
    if kind == "palin4":
        return _draw_palindromic(rng)
    return _draw_generic_nilpotent(rng), None


def make_corpus(seed: int, mix: dict[str, int]) -> list[Case]:
    """``mix[kind]`` certified cases of each kind, drawn from ``seed``.

    Each kind draws from its own stream, so changing one count leaves
    the draws of the other kinds unchanged.  Raises ``RuntimeError`` if
    a construction fails its own certificate, which would be a fault of
    this module, not of the package under test.
    """
    cases = []
    for kind, count in mix.items():
        _, is_uecsm = KINDS[kind]
        rng = np.random.default_rng([seed, list(KINDS).index(kind)])
        for k in range(count):
            t, w = draw(kind, rng)
            cert = word_certificate(t)
            if is_uecsm:
                unitarity, symmetry = witness_defect(t, w)
                if max(cert, unitarity, symmetry) > UECSM_MAX:
                    raise RuntimeError(
                        f"{kind}[{k}] construction defect: certificate {cert:.2e}, "
                        f"unitarity {unitarity:.2e}, symmetry {symmetry:.2e}"
                    )
            cases.append(Case(f"{kind}-{k:03d}", kind, t, is_uecsm, w, cert))
    return cases


def rotate_phases(cases: list[Case], seed: int) -> list[Case]:
    """``cases`` with each matrix multiplied by a seeded unimodular phase.

    The phase keeps every certificate: ``W (cT) W*`` is symmetric when
    ``W T W*`` is, and a word and its reversal pick up the same factor.
    """
    rng = np.random.default_rng([seed, len(KINDS)])
    out = []
    for case, phi in zip(cases, 2 * np.pi * rng.random(len(cases))):
        t = np.exp(1j * phi) * case.matrix
        out.append(Case(case.label, case.kind, t, case.uecsm, case.witness, word_certificate(t)))
    return out
