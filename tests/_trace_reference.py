"""The UECSM trace family as it was computed before the shared product table.

A verbatim copy of the helpers ``_products``, ``_commutator_trace`` and
``_psi7_values`` that ``uecsm.tracetests`` used before both trace
families moved into one plan per size.  The tests compare the plan's
values with these, bit for bit.
"""

import numpy as np

from uecsm.matcore import adjoint


def _products(lefts, rights):
    """``lefts[k] @ rights[k]`` for every k, as one array of shape ``(k, B, n, n)``."""
    out = np.matmul(np.concatenate(lefts), np.concatenate(rights))
    return out.reshape(len(lefts), -1, *out.shape[1:])


def commutator_trace(reps):
    """``|tr[X*X (X*X - XX*) XX*]|`` of each 3x3 matrix of a stack, as a ``(B, 1)`` column."""
    h1, h2 = _products((adjoint(reps), reps), (reps, adjoint(reps)))
    return np.abs(np.einsum("bij,bji->b", h1 @ (h1 - h2), h2))[:, None]


def psi7_values(x):
    """``psi_1 .. psi_7`` of each 4x4 matrix of a stack, as a ``(B, 7)`` array."""
    y = adjoint(x)
    x2, y2, xy, yx = _products((x, y, x, y), (x, y, y, x))
    y3, xy2, y2x, x2y2, y2x2, x2y, yx2 = _products(
        (y2, x, y2, x2, y2, x2, y), (y, y2, x, y2, x2, y, x2)
    )
    x2y3, y3x2, xy3, y3x, x2yx2y, yx2yx2, yx2y = _products(
        (x2, y3, x, y3, x2y, yx2, yx2), (y3, x2, y3, x, x2y, yx2, y)
    )
    lefts = _products(
        (x, x, x2, x, x, x2y, x2),
        (
            xy2 - y2x,  # [x, y^2]
            x2y2 - y2x2,  # [x^2, y^2]
            xy2 - y2x,
            x2y3 - y3x2,  # [x^2, y^3]
            x2yx2y - yx2yx2,
            yx - xy,  # [y, x]
            xy3 - y3x,  # [x, y^3]
        ),
    )
    rights = np.concatenate((xy, xy, x2y, xy, xy, yx2y, x2y2)).reshape(lefts.shape)
    return np.einsum("kbij,kbji->bk", lefts, rights)
