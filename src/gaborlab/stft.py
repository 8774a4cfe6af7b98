"""Short-time Fourier transform over the full discrete phase space.

The phase-space grid is the full L x L torus: time shifts at every grid
point x_n and frequencies at every dual point xi_k.  That is the Gabor
system of the finest lattice, a = b = 1 (alpha = delta, beta = 1/T), so the
transform and its inverse are :func:`frames.analysis` and
:func:`frames.synthesis` on that lattice; this module only recenters the
coefficients, rolling both axes by L/2 so that row n is x_n and column k is
xi_k.  With the cell weight delta * (1/T) the discrete analysis map is
exactly isometric and the weak-sense inversion formula reconstructs
exactly, so the continuum identities hold at machine precision rather than
discretization accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GridMismatchError, SampleGrid, Signal, inner
from .frames import analysis, synthesis
from .lattices import Lattice

__all__ = ["PhaseSpaceField", "stft", "stft_energy", "stft_invert", "NearOrthogonalPairError"]


class NearOrthogonalPairError(ValueError):
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


def stft(f: Signal, g: Signal) -> PhaseSpaceField:
    """Full phase-space STFT: lattice analysis on a = b = 1, centered (O(L^2 log L))."""
    j0 = f.grid.origin
    c = analysis(g, Lattice(1, 1, f.grid), f)
    return PhaseSpaceField._adopt(f.grid, np.roll(c, (j0, j0), axis=(0, 1)))


def stft_energy(V: PhaseSpaceField) -> float:
    """Double Riemann sum of |V|^2 with the phase-space cell weight.

    For a unit-norm window this equals ||f||^2 exactly (discrete isometry).
    """
    return float(V.cell_area * np.sum(np.abs(V.values) ** 2))


def stft_invert(V: PhaseSpaceField, g: Signal, h: Signal, min_overlap: float = 1e-10) -> Signal:
    """Weak-sense inversion: (1/<h,g>) * sum V[n,k] M_{xi_k} T_{x_n} h.

    Any h with <g, h> != 0 works; the synthesis weight is the conjugate
    pairing <h, g>, which makes the discrete reconstruction exact.  Pairs
    with |<g,h>| below ``min_overlap`` are rejected because the 1/<g,h>
    factor blows up.
    """
    if g.grid != V.grid or h.grid != V.grid:
        raise GridMismatchError("window grids must match the field grid")
    c = inner(h, g)
    if abs(c) < min_overlap:
        raise NearOrthogonalPairError(
            f"|<g,h>| = {abs(c):.3e} is below {min_overlap:g}; the 1/<g,h> "
            "weight in the inversion formula diverges for near-orthogonal pairs"
        )
    grid = V.grid
    j0 = grid.origin
    c_lat = np.roll(V.values, (-j0, -j0), axis=(0, 1))
    r = synthesis(h, Lattice(1, 1, grid), c_lat).values
    cell = grid.delta / grid.T
    return Signal(grid, (cell / c) * r)
