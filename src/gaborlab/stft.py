"""Short-time Fourier transform over the full discrete phase space.

The phase-space grid is the full L x L torus: time shifts at every grid
point x_n and frequencies at every dual point xi_k.  That is the Gabor
system of the finest lattice, a = b = 1 (alpha = delta, beta = 1/T), so the
transform and its inverse are :func:`frames.analysis` and
:func:`frames.synthesis` on that lattice.  Row n and column k of the
field are x_n = x_0 + n delta and xi_k = xi_0 + k / T, with j0 = L/2,
x_0 = -j0 delta and xi_0 = -j0 / T.  The window and the signal carry that
offset, instead of a roll of the L x L coefficients:

    V[n, k] = <M_{xi_0} f, M_{k/T} T_{n delta} (T_{-x_0} g)>,

since M_{xi_0} = M_{-xi_0} and T_{x_0} = T_{-x_0} on the torus.  T_{-x_0} g
is g rolled by -j0 (an O(L) roll) and M_{xi_0} f is f times the exact
signs (-1)^(j - j0).  The inverse synthesises with the rolled window and
multiplies the length-L result by the same signs.  With the cell weight
delta * (1/T) the discrete analysis map is exactly isometric and the
weak-sense inversion formula reconstructs exactly, so the continuum
identities hold at machine precision rather than discretization accuracy.

The ``stft`` command needs only the energy, |V| and the reconstruction
``stft_invert(stft(f, g), g, g)``; :func:`stft_diagnostics` computes all
three in one pass over blocks of rows n and never holds V.  Every window
family is real and L is even, so each row U[n, j] = f0[j] g0[j - n] of the
analysis product is real and V[n, L - k] = conj(V[n, k]): a real FFT gives
the columns k <= L/2, which determine |V| on the whole torus, and the
inverse real FFT of the same block feeds the reconstruction.  The pass
holds the float64 half spectrum (4 L (L + 2) bytes) and one block.  Its
window rows g0[j - n] are the real part of the a = b = 1 slice of the Zak
windows that :func:`frames.analysis` and :func:`frames.synthesis` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GridMismatchError, NumericalError, SampleGrid, Signal, _parity_signs, inner
from .frames import _zak_windows, analysis, synthesis
from .lattices import Lattice

__all__ = [
    "PhaseSpaceField",
    "stft",
    "stft_energy",
    "stft_invert",
    "stft_diagnostics",
    "NearOrthogonalPairError",
]

MIN_OVERLAP = 1e-10  # stft_invert rejects window pairs with |<g,h>| below this
BLOCK_ROWS = 64  # rows n per block of stft_diagnostics: 1 MiB of float64 at L = 2048


class NearOrthogonalPairError(NumericalError):
    """<g, h> is too small for the 1/<g,h> inversion weight."""


@dataclass(frozen=True)
class PhaseSpaceField:
    """STFT samples V[n, k] = <f, M_{xi_k} T_{x_n} g> on the L x L torus."""

    grid: SampleGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        L = self.grid.L
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (L, L):
            raise ValueError(f"values must be ({L}, {L}), got {v.shape}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, grid: SampleGrid, values: np.ndarray) -> "PhaseSpaceField":
        """Wrap an (L, L) complex array that nothing else holds, without the copy."""
        V = object.__new__(cls)
        values.flags.writeable = False
        object.__setattr__(V, "grid", grid)
        object.__setattr__(V, "values", values)
        return V

    @property
    def cell_area(self) -> float:
        """Phase-space cell delta * (1/T) = 1/L."""
        return self.grid.delta / self.grid.T


def _overlap(g: Signal, h: Signal) -> complex:
    """<h, g>, the inversion weight; rejected below ``MIN_OVERLAP``."""
    c = inner(h, g)
    if abs(c) < MIN_OVERLAP:
        raise NearOrthogonalPairError(
            f"|<g,h>| = {abs(c):.3e} is below {MIN_OVERLAP:g}; the 1/<g,h> "
            "weight in the inversion formula diverges for near-orthogonal pairs"
        )
    return c


def stft(f: Signal, g: Signal) -> PhaseSpaceField:
    """Centered phase-space STFT: M_{xi_0} f analysed on a = b = 1 with g rolled by -j0."""
    if g.grid != f.grid:
        raise GridMismatchError("window grid must match the signal grid")
    grid = f.grid
    g0 = Signal(grid, np.roll(g.values, -grid.origin))
    f0 = Signal(grid, f.values * _parity_signs(np.arange(grid.L) - grid.origin))
    return PhaseSpaceField._adopt(grid, analysis(g0, Lattice(1, 1, grid), f0))


def stft_energy(V: PhaseSpaceField) -> float:
    """Double Riemann sum of |V|^2 with the phase-space cell weight.

    For a unit-norm window this equals ||f||^2 exactly (discrete isometry).
    """
    return float(V.cell_area * np.sum(np.abs(V.values) ** 2))


def stft_invert(V: PhaseSpaceField, g: Signal, h: Signal) -> Signal:
    """Weak-sense inversion: (1/<h,g>) * sum V[n,k] M_{xi_k} T_{x_n} h.

    Any h with <g, h> != 0 works; the synthesis weight is the conjugate
    pairing <h, g>, which makes the discrete reconstruction exact.  Pairs
    with |<g,h>| below ``MIN_OVERLAP`` are rejected because the 1/<g,h>
    factor blows up.  V is synthesised as it stands with h rolled by -j0,
    and only the length-L result is multiplied by the signs (-1)^(j - j0).
    """
    if g.grid != V.grid or h.grid != V.grid:
        raise GridMismatchError("window grids must match the field grid")
    c = _overlap(g, h)
    grid = V.grid
    h0 = Signal(grid, np.roll(h.values, -grid.origin))
    r = synthesis(h0, Lattice(1, 1, grid), V.values).values
    cell = grid.delta / grid.T
    return Signal(grid, (cell / c) * (r * _parity_signs(np.arange(grid.L) - grid.origin)))


def stft_diagnostics(f: Signal, g: Signal) -> tuple[float, np.ndarray, Signal]:
    """Energy, |V| and ``stft_invert(stft(f, g), g, g)`` of real f and g, without V.

    Returns ``(energy, magnitude, reconstruction)``: ``stft_energy`` of V,
    the (L, L/2 + 1) float64 |V[n, k]| for k <= L/2 (a view whose memory runs
    from row L - 1 down to row 0, so ``magnitude[::-1]`` is C-contiguous)
    and the reconstructed signal.  The columns k > L/2 are left out because
    |V[n, L - k]| = |V[n, k]| holds exactly: each row of the analysis product
    is real.  Each block of ``BLOCK_ROWS`` rows takes one real FFT of
    U[n, j] = f0[j] g0[j - n], adds its share of the energy, and sums the
    inverse real FFT times the window rows into the reconstruction.  Complex
    f or g raise ValueError: they have no conjugate symmetry, and
    :func:`stft` covers them.
    """
    if g.grid != f.grid:
        raise GridMismatchError("window grid must match the signal grid")
    if f.values.imag.any() or g.values.imag.any():
        raise ValueError("stft_diagnostics needs a real signal and window; use stft")
    c = _overlap(g, g)
    grid = f.grid
    L, half = grid.L, grid.L // 2 + 1
    f0 = f.values.real * _parity_signs(np.arange(grid.L) - grid.origin)
    G = _zak_windows(np.roll(g.values, -grid.origin), Lattice(1, 1, grid))[0, :, :, 0].real
    mag = np.empty((L, half))[::-1]
    acc = np.zeros(L)
    energy = 0.0
    rows = min(BLOCK_ROWS, L)
    U, X, A = np.empty((rows, L)), np.empty((rows, half), complex), np.empty((rows, half))
    for n0 in range(0, L, rows):
        n1 = min(n0 + rows, L)
        u, x, a, Gb = U[: n1 - n0], X[: n1 - n0], A[: n1 - n0], G[n0:n1]
        np.multiply(f0, Gb, out=u)
        np.fft.rfft(u, axis=1, out=x)
        np.abs(x, out=a)
        a *= grid.delta  # |V[n, k]| for k <= L/2
        mag[n0:n1] = a
        a *= a  # columns 0 and L/2 appear once in a row of V, the others twice
        energy += 2.0 * a.sum() - a[:, 0].sum() - a[:, -1].sum()
        np.fft.irfft(x, n=L, axis=1, out=u)
        u *= Gb
        acc += u.sum(axis=0)
    rec = (grid.delta / c) * (acc * _parity_signs(np.arange(grid.L) - grid.origin))
    return float(grid.delta / grid.T * energy), mag, Signal(grid, rec)
