"""Wilson systems: cosine/sine-modulated translates built from Gabor atoms.

Two builders are provided.  The classical variant pairs each frequency
m >= 1 with half-integer translates,

    psi_{j,m} = sqrt(2) cos(2 pi m x) g(x - j/2)   (j + m even)
    psi_{j,m} = sqrt(2) sin(2 pi m x) g(x - j/2)   (j + m odd)

plus integer translates at m = 0.  The generalized variant uses time step
beta in [1/4, 1/2] with atoms g_{j,m} = M_m T_{beta j} g combined as

    psi_{j,m} = sqrt(beta) [e^{-2 pi i beta j m} g_{j,m}
                            + (-1)^{j+m} e^{+2 pi i beta j m} g_{j,-m}],

and plain translates sqrt(2 beta) g(x - 2 beta j) at m = 0.  On the periodic
grid the frequency index folds at the Nyquist bin 1/(2 delta); the Nyquist
row mirrors the m = 0 row (translates by 2 beta, weight sqrt(2 beta),
modulated to the Nyquist frequency), which keeps the atom count and the
completeness relation exact.

Both builders want a window whose Gabor system over (time step beta,
frequency step 1) is tight; `make_wilson_window` produces the unit-norm
canonical tight window of that lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SampleGrid, Signal, fourier
from .frames import _rolled_windows, canonical_tight
from .lattices import Lattice, make_lattice
from .windows import WindowSpec, sample_window
from .zak import zak_tightness

__all__ = [
    "WilsonSystem",
    "make_wilson_window",
    "build_wilson_classical",
    "build_wilson_general",
    "wilson_parseval_residual",
    "wilson_onb_report",
    "WilsonOnbReport",
    "zak_onb_criterion",
    "ZakOnbReport",
    "taper_wilson_window",
]


@dataclass(frozen=True)
class WilsonSystem:
    """An indexed family of Wilson atoms on one grid."""

    beta: float
    variant: str  # "classical" or "general"
    grid: SampleGrid
    atoms: np.ndarray = field(repr=False)  # (n_atoms, L)
    index: tuple[tuple[int, int], ...]  # (j, m) per atom

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


def make_wilson_window(
    g: Signal | WindowSpec,
    beta: float,
    grid: SampleGrid | None = None,
    wrap_tol: float = 1e-12,
) -> Signal:
    """Unit-norm canonical tight window of the Gabor system behind a Wilson basis.

    The source lattice has time step beta and frequency step 1 (redundancy
    1/beta).  The returned window is normalized to unit norm, so its Gabor
    system is tight with frame bound equal to the redundancy, and the
    beta-scaled window generates a Parseval frame.
    """
    if isinstance(g, WindowSpec):
        if grid is None:
            raise ValueError("grid is required when passing a WindowSpec")
        g = sample_window(g, grid, wrap_tol=wrap_tol)
    lat, _, _ = make_lattice(g.grid, beta, 1.0, snap_tol=1e-9 * g.grid.delta)
    tight = canonical_tight(g, lat)
    return tight.unit()


def _check_beta(beta: float, grid: SampleGrid) -> tuple[int, int, int]:
    """Return (shift_samples, n_half_positions, nyq) for time step beta."""
    s_f = beta / grid.delta
    if abs(s_f - round(s_f)) > 1e-9:
        raise ValueError(f"beta={beta:g} shifts are not grid-aligned")
    s = int(round(s_f))
    J_f = grid.T / beta
    if abs(J_f - round(J_f)) > 1e-9 or round(J_f) % 2 != 0:
        raise ValueError(f"beta={beta:g} does not tile the period T={grid.T:g}")
    J = int(round(J_f))
    nyq_f = 1.0 / (2.0 * grid.delta)
    if abs(nyq_f - round(nyq_f)) > 1e-9:
        raise ValueError("1/(2 delta) must be an integer (Nyquist bin)")
    return s, J, int(round(nyq_f))


def _assemble(g: Signal, beta: float, variant: str, m0, row, nyq_carrier) -> WilsonSystem:
    """Stack the m = 0 block, the rows m = 1..nyq-1 and the Nyquist block in (j, m) order.

    R[j] is g translated by j beta, a read-only view of the Lattice(s, 1)
    windows.  ``m0`` maps the even translates to the m = 0 block,
    ``row(m, j)`` gives the (J, L) carriers of row m, and the Nyquist block
    is ``nyq_carrier(nyq)`` times the translates of the Nyquist parity.
    """
    s, J, nyq = _check_beta(beta, g.grid)
    R = _rolled_windows(g.values, Lattice(s, 1, g.grid))
    j = np.arange(J)
    j_nyq = j[nyq % 2 :: 2]
    atoms = [m0(R[::2])] + [row(m, j) * R for m in range(1, nyq)] + [nyq_carrier(nyq) * R[j_nyq]]
    js = [j[: J // 2]] + [j] * (nyq - 1) + [j_nyq]
    ms = [np.full(len(block), m) for m, block in enumerate(js)]
    return WilsonSystem(
        beta=beta,
        variant=variant,
        grid=g.grid,
        atoms=np.concatenate(atoms),
        index=tuple(zip(np.concatenate(js).tolist(), np.concatenate(ms).tolist())),
    )


def build_wilson_classical(g: Signal) -> WilsonSystem:
    """Classical Wilson system (beta = 1/2) from a window on the same grid."""
    x = g.grid.x()

    def row(m, j):
        cos_sin = np.sqrt(2.0) * np.stack([np.cos(2 * np.pi * m * x), np.sin(2 * np.pi * m * x)])
        return cos_sin[(j + m) % 2]  # cos where j + m is even, sin where it is odd

    def nyq_carrier(nyq):
        return np.cos(2 * np.pi * nyq * x)  # = +-1 pointwise on the grid

    return _assemble(g, 0.5, "classical", lambda even: even, row, nyq_carrier)


def build_wilson_general(g: Signal, beta: float) -> WilsonSystem:
    """Generalized Wilson system with time step beta in [1/4, 1/2]."""
    x = g.grid.x()

    def row(m, j):
        plus = np.exp(2j * np.pi * m * x)
        w = np.exp(-2j * np.pi * beta * j * m)[:, None]
        sgn = np.where((j + m) % 2 == 0, 1.0, -1.0)[:, None]
        return np.sqrt(beta) * (w * plus + sgn * np.conj(w) * np.conj(plus))

    def nyq_carrier(nyq):
        return np.sqrt(2 * beta) * np.exp(2j * np.pi * nyq * x)  # sqrt(2 beta) times +-1

    return _assemble(g, beta, "general", lambda even: np.sqrt(2 * beta) * even, row, nyq_carrier)


def wilson_parseval_residual(system: WilsonSystem) -> float:
    """Operator-norm distance of sum <., psi> psi from the identity."""
    Psi = system.atoms
    M = system.grid.delta * (Psi.T @ np.conj(Psi))
    M[np.diag_indices_from(M)] -= 1.0
    return float(np.max(np.abs(np.linalg.eigvalsh((M + M.conj().T) / 2.0))))


@dataclass(frozen=True)
class WilsonOnbReport:
    """Gram-matrix diagnostics of a Wilson atom family."""

    max_gram_deviation: float  # || Gram - I ||_max
    max_unit_norm_defect: float  # max |<psi,psi> - 1|
    n_atoms: int
    dimension: int

    @property
    def is_onb(self) -> bool:
        return self.max_gram_deviation < 1e-8 and self.n_atoms == self.dimension


def wilson_onb_report(system: WilsonSystem) -> WilsonOnbReport:
    Psi = system.atoms
    gram = system.grid.delta * (Psi @ np.conj(Psi.T))
    dev = gram - np.eye(system.n_atoms)
    return WilsonOnbReport(
        max_gram_deviation=float(np.max(np.abs(dev))),
        max_unit_norm_defect=float(np.max(np.abs(np.diagonal(gram) - 1.0))),
        n_atoms=system.n_atoms,
        dimension=system.grid.L,
    )


def taper_wilson_window(beta: float, grid: SampleGrid) -> Signal:
    """Flat-top sine-taper window realizing the generalized Wilson theorem.

    Supported in [-1/4, 1/4], equal to 1 on [-(beta - 1/4), beta - 1/4] when
    beta > 1/4 (a pure sine arch at beta = 1/4), with complementary sine
    crossfades so that sum_j g(x - beta j)^2 = 1 identically.  The Gabor
    system over (time step beta, frequency step 1) is then exactly tight,
    and the quarter-width support kills the residual coupling that plain
    tightness leaves behind for beta < 1/2, so the generalized Wilson system
    built from the unit-normalized window is exactly Parseval.  Valid for
    beta in [1/4, 1/2).
    """
    if not (0.25 <= beta < 0.5):
        raise ValueError("taper window is defined for beta in [1/4, 1/2)")
    x = grid.x()
    flat = beta - 0.25  # half-width of the flat top
    ramp = 0.5 - beta  # width of each crossfade zone
    ax = np.abs(x)
    vals = np.zeros_like(ax)
    vals[ax <= flat] = 1.0
    zone = (ax > flat) & (ax < 0.25)
    vals[zone] = np.cos(0.5 * np.pi * (ax[zone] - flat) / ramp)
    return Signal(grid, vals)


@dataclass(frozen=True)
class ZakOnbReport:
    """Fourier-side Zak criterion: the half-critical symbol of fourier(g) is 2."""

    value_min: float
    value_max: float

    @property
    def deviation(self) -> float:
        return max(abs(self.value_min - 2.0), abs(self.value_max - 2.0))


def zak_onb_criterion(g: Signal) -> ZakOnbReport:
    """Evaluate the Zak-domain orthonormality criterion on fourier(g).

    The classical Wilson system of a unit-norm window g is an orthonormal
    basis exactly when the Gabor system of fourier(g) over the half-critical
    lattice (time step 1, frequency step 1/2, in dual-grid units) is tight
    with bound 2, so this is ``zak_tightness`` applied to fourier(g): its
    symbol's extremes, normalized so the tight value is the frame bound 2.
    """
    rep = zak_tightness(fourier(g))
    return ZakOnbReport(value_min=rep.symbol_min, value_max=rep.symbol_max)
