"""Metamorphic tests: verdicts are invariant under the symmetries of UECSM.

UECSM is unchanged by scaling T -> cT (c != 0), unitary similarity,
transposition and shifts T -> T + lambda I, so :func:`analyze` must
return the same conflict-free verdict on every image.  Shifts are kept
within 1e6 |T|_F: beyond that the input itself carries fewer than ten
significant digits of T - mu I.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uecsm.cli import analyze
from uecsm.gallery import GALLERY

from _util import random_complex_matrix, random_symmetric_matrix, random_unitary, rng


def _images(t, gen, exponent, theta, shift_exponent, phi):
    n = t.shape[0]
    u = random_unitary(gen, n)
    shift = 10.0**shift_exponent * np.linalg.norm(t) * cmath.exp(1j * phi)
    return {
        "scale": 10.0**exponent * cmath.exp(1j * theta) * t,
        "unitary": u @ t @ u.conj().T,
        "transpose": t.T,
        "shift": t + shift * np.eye(n),
        "phase": cmath.exp(1j * phi) * t,
    }


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([3, 4]),
    st.booleans(),
    st.floats(-150, 150),
    st.floats(0, 2 * math.pi),
    st.floats(-6, 6),
    st.floats(0, 2 * math.pi),
)
def test_verdict_invariant_under_symmetries(
    seed, n, uecsm, exponent, theta, shift_exponent, phi
):
    gen = rng(seed)
    if uecsm:
        u = random_unitary(gen, n)
        t = u @ random_symmetric_matrix(gen, n) @ u.conj().T
    else:
        t = random_complex_matrix(gen, n)
    base = analyze(t, "base")
    assert base.conflicts == [] and base.uecsm is uecsm
    for name, image in _images(t, gen, exponent, theta, shift_exponent, phi).items():
        report = analyze(image, name)
        assert report.conflicts == [], (name, report.conflicts)
        assert report.uecsm is uecsm, name


@pytest.mark.parametrize("label", sorted(GALLERY))
@pytest.mark.parametrize("scale,shift", [(1e-6, 0.0), (1e20, 0.0), (1e30, 0.0), (1.0, 1e6)])
def test_gallery_status_at_extreme_scales_and_shift(label, scale, shift):
    matrix, expected = GALLERY[label]
    t = scale * (np.asarray(matrix) + shift * np.eye(matrix.shape[0]))
    report = analyze(t, label)
    assert report.error is None
    assert report.conflicts == []
    assert report.uecsm is expected


@pytest.mark.parametrize("label", sorted(GALLERY))
def test_gallery_status_under_haar_conjugation(label):
    # the LAPACK eigensolver splits a repeated eigenvalue of a rotated
    # matrix by rounding; the angle tests must refuse it, not conflict
    matrix, expected = GALLERY[label]
    gen = rng(sum(map(ord, label)))
    for _ in range(3):
        u = random_unitary(gen, matrix.shape[0])
        report = analyze(u @ matrix @ u.conj().T, label)
        assert report.conflicts == []
        assert report.uecsm is expected
