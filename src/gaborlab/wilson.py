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

Translating by k beta, with k the smallest even integer making k beta an
integer, permutes the atoms of each row m, so the Parseval residual and the
ONB report read translation-periodic blocks instead of L x L and n x n
products.
"""

from __future__ import annotations

import math
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


def _assemble(
    g: Signal, beta: float, variant: str, m0_weight: float, row, nyq_carrier
) -> WilsonSystem:
    """Fill one atom matrix with the m = 0 block, the rows m = 1..nyq-1 and the Nyquist block.

    Atoms are in (j, m) order.  R[j] is g translated by j beta, a read-only
    view of the Lattice(s, 1) windows.  The m = 0 block is ``m0_weight``
    times the even translates, ``row(m, j, R, out)`` writes the (J, L) atoms
    of row m into ``out``, and the Nyquist block is ``nyq_carrier(nyq)``
    times the translates of the Nyquist parity.
    """
    s, J, nyq = _check_beta(beta, g.grid)
    R = _rolled_windows(g.values, Lattice(s, 1, g.grid))
    j = np.arange(J)
    j_nyq = j[nyq % 2 :: 2]
    js = [j[: J // 2]] + [j] * (nyq - 1) + [j_nyq]
    carrier = nyq_carrier(nyq)
    atoms = np.empty((sum(map(len, js)), g.grid.L), np.result_type(carrier, R))
    np.multiply(m0_weight, R[::2], out=atoms[: J // 2])
    for m in range(1, nyq):
        row(m, j, R, atoms[J // 2 + (m - 1) * J : J // 2 + m * J])
    np.multiply(carrier, R[nyq % 2 :: 2], out=atoms[J // 2 + (nyq - 1) * J :])
    ms = [np.full(len(block), m) for m, block in enumerate(js)]
    return WilsonSystem(
        beta=beta,
        variant=variant,
        grid=g.grid,
        atoms=atoms,
        index=tuple(zip(np.concatenate(js).tolist(), np.concatenate(ms).tolist())),
    )


def build_wilson_classical(g: Signal) -> WilsonSystem:
    """Classical Wilson system (beta = 1/2) from a window on the same grid."""
    x = g.grid.x()

    def row(m, j, R, out):
        cos_m = np.sqrt(2.0) * np.cos(2 * np.pi * m * x)
        sin_m = np.sqrt(2.0) * np.sin(2 * np.pi * m * x)
        even, odd = (cos_m, sin_m) if m % 2 == 0 else (sin_m, cos_m)  # cos where j + m is even
        np.multiply(even, R[0::2], out=out[0::2])
        np.multiply(odd, R[1::2], out=out[1::2])

    def nyq_carrier(nyq):
        return np.cos(2 * np.pi * nyq * x)  # = +-1 pointwise on the grid

    return _assemble(g, 0.5, "classical", 1.0, row, nyq_carrier)


def build_wilson_general(g: Signal, beta: float) -> WilsonSystem:
    """Generalized Wilson system with time step beta in [1/4, 1/2]."""
    x = g.grid.x()

    def row(m, j, R, out):
        plus = np.exp(2j * np.pi * m * x)
        w = np.exp(-2j * np.pi * beta * j * m)[:, None]
        sgn = np.where((j + m) % 2 == 0, 1.0, -1.0)[:, None]
        # sqrt(beta) (w plus + sgn conj(w) conj(plus)) R, one (J, L) temporary
        np.multiply(sgn * np.conj(w), np.conj(plus), out=out)
        out += w * plus
        out *= np.sqrt(beta)
        out *= R

    def nyq_carrier(nyq):
        return np.sqrt(2 * beta) * np.exp(2j * np.pi * nyq * x)  # sqrt(2 beta) times +-1

    return _assemble(g, beta, "general", np.sqrt(2 * beta), row, nyq_carrier)


def _translation_period(system: WilsonSystem) -> tuple[int, int]:
    """(k, s): translating by s samples maps every row m of atoms onto itself.

    It takes the atom at translate j beta to the one at translate (j + k)
    beta, modulo the period, so the frame operator commutes with it and the
    Gram matrix is invariant under it.  The phases e^{-2 pi i beta j m}
    repeat when beta k is an integer, the signs (-1)^{j+m} when k is even,
    and the carriers when the shift s delta = beta k is an integer, so k is
    the smallest even multiple of (1/delta) / gcd(beta/delta, 1/delta).
    Across the wrap the carriers also need an integer period T = L delta;
    otherwise k = J and s = L.
    """
    a, J, nyq = _check_beta(system.beta, system.grid)
    d = 2 * nyq // math.gcd(a, 2 * nyq)
    k = J if system.grid.L % (2 * nyq) else d * (1 + d % 2)  # T = L / (2 nyq)
    return k, k * a


def wilson_parseval_residual(system: WilsonSystem) -> float:
    """Operator-norm distance of sum <., psi> psi from the identity.

    S = delta Psi^T conj(Psi) commutes with the translation by s samples
    (see `_translation_period`), so it is block-circulant: its spectrum is
    that of the L/s Hermitian s x s blocks of one length-L/s FFT over its
    first s rows.  Cost O(s n L) for those rows and O(L s^2) for the blocks.
    """
    _, s = _translation_period(system)
    Psi, L = system.atoms, system.grid.L
    rows = system.grid.delta * np.conj(np.conj(Psi[:, :s]).T @ Psi)  # S[:s, :]
    blocks = np.fft.fft(rows.reshape(s, L // s, s), axis=1).transpose(1, 0, 2)
    blocks -= np.eye(s)
    hermitian = (blocks + blocks.conj().transpose(0, 2, 1)) / 2.0
    return float(np.max(np.abs(np.linalg.eigvalsh(hermitian))))


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
    """Largest deviation of the Gram matrix delta <psi_i, psi_j> from the identity.

    Translation covariance (see `_translation_period`) makes every
    off-diagonal modulus one of the Gram rows of the atoms with j < k, a
    (rows x n) product.  The diagonal is every atom's squared norm, O(n L),
    so the carriers' rounding in far atoms still shows.
    """
    k, _ = _translation_period(system)
    Psi, delta = system.atoms, system.grid.delta
    first = np.flatnonzero(np.array([j for j, _ in system.index]) < k)
    off = delta * np.abs(np.conj(Psi[first]) @ Psi.T)
    off[np.arange(len(first)), first] = 0.0
    pairs = np.ascontiguousarray(Psi).view(np.float64)  # (re, im) pairs for complex atoms
    norm_defect = float(np.max(np.abs(delta * np.einsum("ij,ij->i", pairs, pairs) - 1.0)))
    return WilsonOnbReport(
        max_gram_deviation=max(float(np.max(off)), norm_defect),
        max_unit_norm_defect=norm_defect,
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
