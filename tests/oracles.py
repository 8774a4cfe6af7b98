"""Independent references that tests compare the package against.

Neither is on a path the package runs: the dense frame operator is built
from the Walnut table without the Zibulski-Zeevi symbol, and the B-spline
pieces are written out by hand instead of by the Cox-de Boor recursion.
"""

import numpy as np

from gaborlab.core import Signal
from gaborlab.frames import _check
from gaborlab.lattices import Lattice


def frame_matrix(g: Signal, lat: Lattice) -> np.ndarray:
    """The dense L x L frame operator S[j, j + d P] = delta P W[j mod a, d] (small L only).

    W[i, d] = sum_n g[i + n a] conj(g[i + d P + n a]) is the Walnut table.
    """
    _check(g, lat)
    L, P = lat.grid.L, lat.n_freq
    rolled = (g.values * np.roll(np.conj(g.values), -d * P) for d in range(lat.b))
    W = np.stack([v.reshape(lat.n_time, lat.a).sum(axis=0) for v in rolled], axis=1)
    j, d = np.arange(L)[:, None], np.arange(lat.b)
    S = np.zeros((L, L), dtype=np.complex128)
    S[j, (j + d * P) % L] = lat.grid.delta * P * W[j % lat.a, d]
    return S


def bspline_closed_form(N: int, x: np.ndarray) -> np.ndarray:
    """Hand-written piecewise formulas for N <= 4 (cross-check route)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros_like(x)
    if N == 1:
        out[(x >= -0.5) & (x < 0.5)] = 1.0
    elif N == 2:
        out = np.maximum(1.0 - ax, 0.0)
    elif N == 3:
        m0 = ax < 0.5
        out[m0] = 0.75 - ax[m0] ** 2
        m1 = (ax >= 0.5) & (ax < 1.5)
        out[m1] = 0.5 * (ax[m1] - 1.5) ** 2
    elif N == 4:
        m0 = ax < 1.0
        out[m0] = 2.0 / 3.0 - ax[m0] ** 2 + 0.5 * ax[m0] ** 3
        m1 = (ax >= 1.0) & (ax < 2.0)
        out[m1] = (2.0 - ax[m1]) ** 3 / 6.0
    else:
        raise ValueError("closed forms are provided for N <= 4 only")
    return out
