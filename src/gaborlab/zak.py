"""Discrete Zak transform and the Zibulski-Zeevi symbol of lattice frame operators.

zak(f, K) computes Z[n, k] = sum_m f[(n + m K) mod L] e^{2 pi i m k / M}
with M = L/K, a unitary map (up to the stated weight) from C^L onto the
K x M Zak grid.  Z is quasi-periodic in n: Z[n - K, k] = e^{2 pi i k / M} Z[n, k].

A lattice with steps (a, b) has P = L/b, p = a / gcd(a, P) and q = b / p;
p divides b, since a divides L = b P and a / gcd(a, P) is prime to
P / gcd(a, P).  With K = lcm(a, P) = p P the Zak grid is K x q, and the
frame operator acts on the p values Zf[r + u P, l], u < p, of each row
r < P and frequency l < q as the Hermitian p x p matrix (Zibulski & Zeevi,
ACHA 1997)

    C_l[u, v] = delta P sum_{n < K/a} Zg[r + u P - n a, l] conj(Zg[r + v P - n a, l]),

the discrete symbol, with Zg extended to negative n by quasi-periodicity.
C depends on r only modulo a, so rows r < min(a, P) hold every matrix
that acts on the rows r < P; row r + P is row r with u shifted cyclically,
so rows r < gcd(a, P) carry every eigenvalue of S.  The half-critical lattice
(alpha, beta) = (1, 1/2) has p = 1: its symbol is the scalar
delta P (|Zg[r, l]|^2 + |Zg[r + a, l]|^2), which is flat exactly when the
system is tight (:func:`zak_tightness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .core import Signal
from .lattices import Lattice, make_lattice

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


def _zak(v: np.ndarray, K: int) -> np.ndarray:
    """Z[n, k] of the samples v with time factor K, shape (K, L/K)."""
    return np.fft.ifft(v.reshape(-1, K), axis=0, norm="forward").T  # rows m: v[n + m K]


def _unzak(Z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zak`."""
    return np.fft.fft(Z, axis=1, norm="forward").T.reshape(-1)


def zak(f: Signal, K: int) -> ZakMatrix:
    """Discrete Zak transform with time factor K (K must divide L)."""
    L = f.grid.L
    if not (1 <= K <= L and L % K == 0):
        raise ValueError(f"K={K} must divide L={L}")
    return ZakMatrix(values=_zak(f.values, K), K=K, grid_delta=f.grid.delta)


def _order(lat: Lattice) -> int:
    """p = a / gcd(a, P), the size of the symbol matrices."""
    return lat.a // gcd(lat.a, lat.n_freq)


def _symbol(g: np.ndarray, lat: Lattice, rows: int) -> np.ndarray:
    """The symbol of rows r < ``rows``: shape (rows, q, p, p), one p x p matrix per (r, l)."""
    a, P, p = lat.a, lat.n_freq, _order(lat)
    K = p * P
    Z = _zak(g, K)
    q = Z.shape[1]
    Zx = np.concatenate([Z * np.exp(2j * np.pi * np.arange(q) / q), Z])  # Zx[y + K] = Zg[y], |y| < K
    y = np.arange(rows)[:, None, None] + P * np.arange(p)[:, None] - a * np.arange(K // a)
    F = Zx[y + K]  # F[r, u, n, l] = Zg[r + u P - n a, l]
    return lat.grid.delta * P * np.einsum("runl,rvnl->rluv", F, np.conj(F))


def _symbol_layout(v: np.ndarray, lat: Lattice) -> np.ndarray:
    """x[r, l, u] = Zv[r + u P, l] for r < P: the vectors the symbol acts on."""
    p, P = _order(lat), lat.n_freq
    return _zak(v, p * P).reshape(p, P, -1).transpose(1, 2, 0)


def _signal_layout(x: np.ndarray, lat: Lattice) -> Signal:
    """Inverse of :func:`_symbol_layout`."""
    return Signal(lat.grid, _unzak(x.transpose(2, 0, 1).reshape(-1, x.shape[1])))


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
    then the frame bound.
    """
    lat, _, _ = make_lattice(g.grid, 1.0, 0.5, snap_tol=1e-9 * g.grid.delta)
    symbol = _symbol(g.values, lat, lat.a).real
    return ZakTightnessReport(symbol_min=float(symbol.min()), symbol_max=float(symbol.max()))
