"""Discrete Zak transform and the half-critical tightness check.

zak(f, K) computes Z[n, k] = sum_m f[(n + m K) mod L] e^{2 pi i m k / M}
with M = L/K, a unitary map (up to the stated weight) from C^L onto the
K x M Zak grid.  Z is quasi-periodic in n: Z[n - K, k] = e^{2 pi i k / M} Z[n, k].

:func:`zak_tightness` reads the frame bounds of the (1, 1/2) lattice, whose
Zibulski-Zeevi symbol (derived in :mod:`gaborlab.frames`) is one scalar per
Zak sample: the system is tight exactly when that scalar is flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Signal, _zak
from .frames import frame_bounds
from .lattices import make_lattice

__all__ = ["ZakMatrix", "zak", "ZakTightnessReport", "zak_tightness"]


@dataclass(frozen=True)
class ZakMatrix:
    """Zak coefficients Z[n, k], n = 0..K-1, k = 0..M-1, with L = K * M."""

    values: np.ndarray = field(repr=False)
    K: int
    grid_delta: float

    @property
    def M(self) -> int:
        return self.values.shape[1]

    def energy(self) -> float:
        """(1/M) sum |Z|^2 * delta; equals ||f||^2 (unitarity)."""
        return float(self.grid_delta / self.M * np.sum(np.abs(self.values) ** 2))


def zak(f: Signal, K: int) -> ZakMatrix:
    """Discrete Zak transform with time factor K (K must divide L)."""
    L = f.grid.L
    if not (1 <= K <= L and L % K == 0):
        raise ValueError(f"K={K} must divide L={L}")
    return ZakMatrix(values=_zak(f.values, K), K=K, grid_delta=f.grid.delta)


@dataclass(frozen=True)
class ZakTightnessReport:
    """Symbol statistics of the half-critical frame operator."""

    symbol_min: float
    symbol_max: float

    @property
    def flatness(self) -> float:
        """max/min - 1; zero for exactly tight systems."""
        if self.symbol_min <= 0:
            return np.inf
        return self.symbol_max / self.symbol_min - 1.0

    @property
    def is_tight(self) -> bool:
        return self.flatness < 1e-8


def zak_tightness(g: Signal) -> ZakTightnessReport:
    """Tightness test for the (alpha, beta) = (1, 1/2) lattice via the Zak symbol.

    Requires 1/delta and T/2 to be integers dividing L.  The lattice has
    p = 1, so its symbol is one scalar per Zak sample of the K = L/b grid;
    the system is tight exactly when that scalar is flat, and its value is
    then the frame bound.  The extremes are :func:`frame_bounds` A and B.
    """
    lat, _, _ = make_lattice(g.grid, 1.0, 0.5, snap_tol=1e-9 * g.grid.delta)
    rep = frame_bounds(g, lat)
    return ZakTightnessReport(symbol_min=rep.A, symbol_max=rep.B)
