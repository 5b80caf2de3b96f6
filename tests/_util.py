"""Shared helpers for the test suite."""

from functools import lru_cache

import numpy as np

from uecsm import NilpotentParams


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex_matrix(gen: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))


def random_integer_matrix(gen: np.random.Generator, n: int, lo: int = -5, hi: int = 5) -> np.ndarray:
    return gen.integers(lo, hi + 1, size=(n, n)).astype(complex)


def random_unitary(gen: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a random complex matrix."""
    z = random_complex_matrix(gen, n)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_symmetric_matrix(gen: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    z = random_complex_matrix(gen, n, scale)
    return z + z.T


def random_skew_hermitian(gen: np.random.Generator, n: int) -> np.ndarray:
    z = random_complex_matrix(gen, n)
    return (z - z.conj().T) / 2


@lru_cache(maxsize=None)
def near_parallel_inputs(count: int) -> tuple[tuple[float, np.ndarray], ...]:
    """The first ``count`` draws ``(d, T)`` of the near-parallel-eigenvector 3x3 corpus.

    ``T = V diag(lam) V^-1`` whose eigenvector columns 0 and 1 lie a
    relative distance ``d`` apart.  From ``numpy.random.default_rng(1)``,
    each input draws ``log10 d`` uniform in [-6, 0), then ``V`` (3x3),
    ``e`` (3) and ``lam`` (3) as complex Gaussians, in that order; ``e``
    is scaled to unit length, and column 1 of ``V`` is set to
    ``column 0 + d |column 0| e``.
    """
    gen = rng(1)
    out = []
    for _ in range(count):
        d = 10.0 ** gen.uniform(-6, 0)
        v = random_complex_matrix(gen, 3)
        e = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        lam = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        v[:, 1] = v[:, 0] + d * np.linalg.norm(v[:, 0]) * e / np.linalg.norm(e)
        out.append((d, v @ np.diag(lam) @ np.linalg.inv(v)))
    return tuple(out)


@lru_cache(maxsize=None)
def phase_probe_inputs() -> tuple[tuple[np.ndarray, float, np.ndarray], ...]:
    """The 20,000 draws ``(T, phi, Q)`` of the seed-777 phase probe.

    From ``numpy.random.default_rng(777)``, each input draws a complex
    Gaussian 3x3 ``T``, then ``phi`` uniform in [0, 2 pi), then the
    unitary ``Q`` of :func:`random_unitary`.  The probe compares the
    oracle's status on ``T`` with its status on ``e^{i phi} T``,
    ``Q T Q*``, ``T^t`` and ``(2 - 3i) T + 5 I``.
    """
    gen = rng(777)
    return tuple(
        (random_complex_matrix(gen, 3), gen.uniform(0, 2 * np.pi), random_unitary(gen, 3)) for _ in range(20000)
    )


def _jordan_split(gen: np.random.Generator, n: int, k: int, eigenvalue: complex) -> np.ndarray:
    """``W J W*`` for a Haar-ish ``W`` and ``J`` a k x k Jordan block at
    ``eigenvalue`` followed by distinct eigenvalues ``1.5 + 0.7j i``.

    Rounding splits the repeated eigenvalue by about ``eps**(1/k)``,
    far above the gap threshold, with a condition number near
    ``eps**(1/k - 1)``: the ill-conditioned refusal for ``k >= 3``.
    """
    j = np.diag([eigenvalue] * k + [1.5 + 0.7j * i for i in range(1, n - k + 1)]).astype(complex)
    j[np.arange(k - 1), np.arange(1, k)] = 1.0
    w = random_unitary(gen, n)
    return w @ j @ w.conj().T


@lru_cache(maxsize=None)
def one_matrix_inputs() -> tuple[tuple[str, np.ndarray], ...]:
    """Labelled inputs that reach every report shape of a one-matrix analysis.

    From ``numpy.random.default_rng(2023)``, for n = 3 and then 4: three
    UECSM matrices ``W* (Z + Z^t)/2 W``, three complex Gaussians, two
    strictly upper triangular (nilpotent) Gaussians, a 2-block and an
    n-block Jordan split at 0.5, and an n-block Jordan split at 0 scaled
    to a largest part of 1.7e308, so ``s`` overflows inside an
    ill-conditioned refusal.  Then ``Q diag(1, 1, 2) Q*``, which the
    closed-form stage declines, and ``[[1.7e308, -1.7e308], [1.7e308, 0]]``
    embedded in a 3x3, whose ``s`` overflows on an accepted row.
    """
    gen = rng(2023)
    out = []
    for n in (3, 4):
        for k in range(3):
            z = random_complex_matrix(gen, n)
            w = random_unitary(gen, n)
            out.append((f"uecsm{n}-{k}", w.conj().T @ ((z + z.T) / 2) @ w))
        out.extend((f"gauss{n}-{k}", random_complex_matrix(gen, n)) for k in range(3))
        out.extend((f"nilpotent{n}-{k}", np.triu(random_complex_matrix(gen, n), 1)) for k in range(2))
        out.extend((f"jordan{n}-{k}", _jordan_split(gen, n, k, 0.5)) for k in (2, n))
        t = _jordan_split(gen, n, n, 0.0)
        out.append((f"overflow-jordan{n}", 1.7e308 * (t / np.abs(t.view(float)).max())))
    q = random_unitary(gen, 3)
    out.append(("normal-repeated3", q @ np.diag([1.0, 1.0, 2.0]).astype(complex) @ q.conj().T))
    t = np.zeros((3, 3), dtype=complex)
    t[:2, :2] = [[1.7e308, -1.7e308], [1.7e308, 0]]
    out.append(("overflow3", t))
    return tuple(out)


@lru_cache(maxsize=None)
def nilpotent_c07_samples() -> tuple[NilpotentParams, ...]:
    """The 2175 parameter samples of acceptance check c07.

    From ``numpy.random.default_rng(1007)``: 2000 complex Gaussian
    parameter sets scaled by 3, then 25 rounds of exact instances of
    each classification condition (seven samples a round, the last a
    near miss of condition 6 with matched moduli and mismatched products).
    """
    gen = rng(1007)
    samples = [
        NilpotentParams.from_iterable(3.0 * (gen.standard_normal(6) + 1j * gen.standard_normal(6)))
        for _ in range(2000)
    ]
    for _ in range(25):
        a, b, c, d, e, f = (complex(x) for x in gen.standard_normal(6) + 1j * gen.standard_normal(6))
        # 1: d = 0, ae + bf = 0
        samples.append(NilpotentParams(a, b, c, 0.0, -b * f / a, f))
        # 2: d = 0, matched squared norms
        scale = np.sqrt((abs(a) ** 2 + abs(b) ** 2) / (abs(e) ** 2 + abs(f) ** 2))
        samples.append(NilpotentParams(a, b, c, 0.0, scale * e, scale * f))
        # 3: a = f = 0
        samples.append(NilpotentParams(0.0, b, c, d, e, 0.0))
        # 4: a = 0, orthogonal equal-norm columns
        gamma = 0.5 + 0.4 * gen.random()
        beta = gamma * np.exp(2j * np.pi * gen.random())
        c4 = np.conj(beta) * np.conj(d)
        e4 = -np.conj(beta) * np.conj(b)
        f4 = np.sqrt(1 - gamma**2) * np.sqrt(abs(b) ** 2 + abs(d) ** 2)
        samples.append(NilpotentParams(0.0, b, c4, d, e4, f4))
        # 5: mirror of 4 under the transpose flip
        samples.append(NilpotentParams(f4, e4, c4, d, b, 0.0))
        # 6: matched moduli and matched products
        phase = np.exp(2j * np.pi * gen.random())
        samples.append(NilpotentParams(a, b, c, d, b * phase, a * phase))
        # 6, negative: matched moduli, mismatched products
        phase2 = phase * np.exp(1j * (0.5 + gen.random()))
        samples.append(NilpotentParams(a, b, c, d, b * phase2, a * phase))
    return tuple(samples)
