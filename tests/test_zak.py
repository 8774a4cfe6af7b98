"""Zak transform: unitarity, quasi-periodicity, tightness symbol."""

import numpy as np
import pytest

from gaborlab import (
    Lattice,
    SampleGrid,
    Signal,
    WindowSpec,
    canonical_tight,
    sample_window,
    translate,
    zak,
    zak_tightness,
)

from conftest import random_signal
from oracles import frame_matrix


def test_unitarity(grid, rng):
    f = random_signal(grid, rng)
    for K in (8, 64, 256):
        Z = zak(f, K)
        assert abs(Z.energy() - f.norm**2) < 1e-12 * f.norm**2


def test_invalid_factor(grid, rng):
    with pytest.raises(ValueError):
        zak(random_signal(grid, rng), 30)


def test_delta_row_flat_modulus(grid):
    v = np.zeros(grid.L)
    v[0] = 1.0
    Z = zak(Signal(grid, v), 64).values
    assert np.ptp(np.abs(Z[0, :])) == 0.0
    assert np.max(np.abs(Z[1:, :])) == 0.0


def test_quasi_periodicity(grid, rng):
    # translating by K samples multiplies Zak row n by e^{2 pi i k / M}
    K = 64
    f = random_signal(grid, rng)
    Z = zak(f, K)
    Zs = zak(translate(f, K * grid.delta), K)
    phase = np.exp(2j * np.pi * np.arange(Z.M) / Z.M)
    assert np.max(np.abs(Zs.values - phase[None, :] * Z.values)) < 1e-12


def test_tightness_symbol_equals_spectrum():
    # the symbol's extremes are the extreme eigenvalues of the dense (1, 1/2)
    # frame operator, built from the Walnut table without the symbol
    small = SampleGrid(256, 1 / 16)
    g = sample_window(WindowSpec("gaussian"), small)
    eigs = np.linalg.eigvalsh(frame_matrix(g, Lattice(16, 8, small)))
    sym = zak_tightness(g)
    assert sym.symbol_min == pytest.approx(eigs[0], rel=1e-12)
    assert sym.symbol_max == pytest.approx(eigs[-1], rel=1e-12)
    assert not sym.is_tight
    assert sym.flatness > 0.01


def test_tight_window_is_flat(grid, gaussian):
    gt = canonical_tight(gaussian, Lattice(32, 16, grid))
    sym = zak_tightness(gt)
    assert sym.flatness < 1e-8
    assert sym.is_tight


def test_indicator_symbol_constant(grid):
    g = sample_window(WindowSpec("indicator", 1.0), grid)
    sym = zak_tightness(g)
    assert sym.symbol_min == pytest.approx(2.0, abs=1e-12)
    assert sym.symbol_max == pytest.approx(2.0, abs=1e-12)


def test_scaling_homogeneity(grid, gaussian):
    sym = zak_tightness(gaussian)
    sym2 = zak_tightness(Signal(grid, 2.0 * gaussian.values))
    assert sym2.symbol_min == pytest.approx(4 * sym.symbol_min, rel=1e-12)
    assert sym2.symbol_max == pytest.approx(4 * sym.symbol_max, rel=1e-12)
    assert sym2.flatness == pytest.approx(sym.flatness, rel=1e-9)


def test_unrepresentable_lattice():
    grid = SampleGrid(100, 1 / 10)  # T = 10, T/2 = 5: a = 10 fine, b = 5 divides 100
    g = Signal(grid, np.exp(-np.pi * grid.x() ** 2))
    zak_tightness(g)  # representable
    bad = SampleGrid(64, 0.1)  # 1/delta = 10 but T/2 = 3.2 not integral
    with pytest.raises(ValueError):
        zak_tightness(Signal(bad, np.zeros(64)))


@pytest.mark.parametrize("L, delta", [(54, 1 / 3), (256, 1 / 8), (864, 1 / 12), (1024, 1 / 32)])
def test_tightness_reads_the_scalar_zak_symbol(L, delta, rng):
    # at (1, 1/2), P = 2a and p = 1: the symbol is delta P (|Zg[r, l]|^2 + |Zg[r + a, l]|^2), r < a
    grid = SampleGrid(L, delta)
    a = round(1 / delta)
    for g in (sample_window(WindowSpec("sech"), grid, wrap_tol=1.0), random_signal(grid, rng)):
        Z = np.abs(zak(g, 2 * a).values) ** 2
        scalar = delta * 2 * a * (Z[:a] + Z[a:])
        rep = zak_tightness(g)
        assert rep.symbol_min == pytest.approx(scalar.min(), rel=1e-13)
        assert rep.symbol_max == pytest.approx(scalar.max(), rel=1e-13)
