"""Finite periodic signal model and time-frequency shift operators.

A signal lives on a centered periodic grid of L samples with step ``delta``:
grid point j represents the physical coordinate x_j = (j - L/2) * delta, so
the period is T = L * delta and x = 0 is hit exactly.  The inner product
carries the ``delta`` weight, which makes norms, frame bounds and STFT values
converge to their continuum counterparts as the grid is refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SampleGrid",
    "Signal",
    "GridMismatchError",
    "NumericalError",
    "inner",
    "translate",
    "modulate",
    "tf_shift",
    "fourier",
]


class GridMismatchError(ValueError):
    """Two signals that must share a grid do not."""


class NumericalError(ValueError):
    """A well-posed request that the numerics refuse; the CLI exits 3 on it."""


@dataclass(frozen=True)
class SampleGrid:
    """Centered periodic sampling grid.

    Attributes:
        L: number of samples (even, positive).
        delta: sampling step in physical time units.
    """

    L: int
    delta: float

    def __post_init__(self) -> None:
        if self.L <= 0 or self.L % 2 != 0:
            raise ValueError(f"L must be a positive even integer, got {self.L}")
        if not (self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not math.isfinite(self.L * self.delta):
            raise ValueError(
                f"the period L * delta must be finite, got {self.L} * {self.delta}"
            )

    @property
    def T(self) -> float:
        """Period length L * delta."""
        return self.L * self.delta

    @property
    def origin(self) -> int:
        """Index of the sample at x = 0."""
        return self.L // 2

    def x(self) -> np.ndarray:
        """Physical coordinates, x_j = (j - L/2) * delta."""
        return (np.arange(self.L) - self.origin) * self.delta

    def dual(self) -> "SampleGrid":
        """Grid of the centered discrete Fourier transform (step 1/T)."""
        return SampleGrid(self.L, 1.0 / self.T)


@dataclass(frozen=True)
class Signal:
    """Complex sample vector on a :class:`SampleGrid`.

    Values are stored as a read-only complex128 array of length ``grid.L``.
    """

    grid: SampleGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.L,):
            raise ValueError(
                f"values must have shape ({self.grid.L},), got {v.shape}"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.grid.delta * np.sum(np.abs(self.values) ** 2)))

    def unit(self) -> "Signal":
        """Unit-norm copy."""
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero signal")
        return Signal(self.grid, self.values / n)


def inner(f: Signal, h: Signal) -> complex:
    """Riemann approximation of the L2 pairing, delta * sum f * conj(h)."""
    if f.grid != h.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {h.grid}")
    return complex(f.grid.delta * np.vdot(h.values, f.values))


def translate(f: Signal, a: float) -> Signal:
    """Periodic translation by ``a`` time units, (T_a f)(x) = f(x - a).

    Integer-sample shifts are exact circular shifts.  Fractional shifts are
    applied by a phase ramp in the DFT domain (periodic band-limited
    interpolation); exactly unitary, spectrally accurate for smooth signals,
    inaccurate near jumps of discontinuous windows.
    """
    L = f.grid.L
    s = a / f.grid.delta
    s_round = np.rint(s)
    if abs(s - s_round) < 1e-12 * max(1.0, abs(s)):
        return Signal(f.grid, np.roll(f.values, int(s_round) % L))
    bins = np.fft.fftfreq(L) * L  # signed integer bins, Nyquist at -L/2
    ramp = np.exp(-2j * np.pi * s * bins / L)
    return Signal(f.grid, np.fft.ifft(np.fft.fft(f.values) * ramp))


def modulate(f: Signal, b: float) -> Signal:
    """Modulation (M_b f)(x) = e^{2 pi i b x} f(x), phase referenced to x=0."""
    phase = np.exp(2j * np.pi * b * f.grid.x())
    return Signal(f.grid, phase * f.values)


def tf_shift(f: Signal, point: tuple[float, float]) -> Signal:
    """Time-frequency shift M_b T_a f: translate by a, then modulate by b."""
    a, b = point
    return modulate(translate(f, a), b)


def fourier(f: Signal) -> Signal:
    """Unitary centered DFT approximating the continuum Fourier transform.

    Returns a Signal on the dual grid (step 1/T, period 1/delta) with
    values delta * sum_j f[j] exp(-2 pi i x_j xi_k).  Parseval holds exactly.
    """
    L, j0 = f.grid.L, f.grid.origin
    F = np.fft.fft(f.values)
    # out[k] = delta * (-1)^(k - j0) * F[(k - j0) mod L]
    out = f.grid.delta * _parity_signs(np.arange(L) - j0) * np.roll(F, j0)
    return Signal(f.grid.dual(), out)


def _parity_signs(k: np.ndarray) -> np.ndarray:
    """(-1)^k for the integers k, as float64 +1.0 and -1.0."""
    return np.where(k % 2 == 0, 1.0, -1.0)


def _zak(v: np.ndarray, K: int) -> np.ndarray:
    """Z[n, k] = sum_m v[n + m K] e^{2 pi i m k / M} of the samples v, shape (K, M = L/K)."""
    return np.fft.ifft(v.reshape(-1, K), axis=0, norm="forward").T  # rows m: v[n + m K]


def _unzak(Z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zak`."""
    return np.fft.fft(Z, axis=1, norm="forward").T.reshape(-1)


def _cell_centres(lo: float, hi: float, n: int, name: str) -> np.ndarray:
    """Centres lo + (hi - lo) (k + 1/2) / n of n equal cells of the range ``name``.

    ValueError if n < 2, if lo >= hi or if a centre overflows.
    """
    if n < 2:
        raise ValueError("resolution must be at least 2")
    if not lo < hi:
        raise ValueError(f"{name} needs lo < hi, got {lo:g}..{hi:g}")
    with np.errstate(over="ignore"):
        centres = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    if not np.isfinite(centres).all():
        raise ValueError(f"the cell centres of {lo:g}..{hi:g} overflow")
    return centres
