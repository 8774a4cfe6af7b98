"""Signal model, shift operators, and the centered Fourier transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab import (
    GridMismatchError,
    SampleGrid,
    Signal,
    fourier,
    inner,
    inverse_fourier,
    modulate,
    tf_shift,
    translate,
)

from conftest import random_signal


def test_grid_invariants():
    g = SampleGrid(64, 1 / 8)
    assert g.T == 8.0
    assert g.x()[g.origin] == 0.0
    with pytest.raises(ValueError):
        SampleGrid(63, 1 / 8)
    with pytest.raises(ValueError):
        SampleGrid(64, 0.0)


def test_grid_rejects_an_overflowing_period():
    # delta is finite but T = L * delta overflows to inf
    with pytest.raises(ValueError, match=r"period L \* delta must be finite"):
        SampleGrid(1024, 1e308)


def test_inner_against_quadrature(gaussian):
    # oracle: int e^{-2 pi x^2} dx = 1/sqrt(2), so ||g|| = 2^{-1/4}
    assert gaussian.norm == pytest.approx(2 ** (-0.25), abs=1e-14)
    # oracle: int e^{-pi x^2} e^{-pi (x-1)^2} dx = e^{-pi/2}/sqrt(2)
    val = inner(gaussian, translate(gaussian, 1.0))
    assert val.real == pytest.approx(math.exp(-math.pi / 2) / math.sqrt(2), abs=1e-14)
    assert abs(val.imag) < 1e-14


def test_inner_zero_and_unit(grid, unit_gaussian):
    zero = Signal(grid, np.zeros(grid.L))
    assert inner(unit_gaussian, zero) == 0.0
    assert inner(unit_gaussian, unit_gaussian).real == pytest.approx(1.0, abs=1e-12)


def test_inner_grid_mismatch(gaussian):
    other = Signal(SampleGrid(512, 1 / 16), np.zeros(512))
    with pytest.raises(GridMismatchError):
        inner(gaussian, other)


def test_translate_integer_exact(grid):
    ind = np.zeros(grid.L)
    ind[100:132] = 1.0
    f = Signal(grid, ind)
    shifted = translate(f, 5 * grid.delta)
    assert np.array_equal(shifted.values, np.roll(f.values, 5))


def test_translate_fractional_matches_resampled_gaussian(grid):
    # oracle: direct resampling of the closed form
    x = grid.x()
    f = Signal(grid, np.exp(-np.pi * x**2))
    a = 0.5 + grid.delta / 3.0  # genuinely fractional
    ref = np.exp(-np.pi * (x - a) ** 2)
    assert np.max(np.abs(translate(f, a).values - ref)) < 1e-8


def test_modulate_phases(grid, gaussian):
    b = 1.0
    m = modulate(gaussian, b)
    assert np.allclose(np.abs(m.values), np.abs(gaussian.values))
    # oracle: |<M_b g, g>| = (1/sqrt 2) e^{-pi b^2 / 2} for g = e^{-pi x^2}
    val = abs(inner(m, gaussian))
    assert val == pytest.approx(math.exp(-math.pi / 2) / math.sqrt(2), abs=1e-12)


def test_tf_shift_is_composition(grid, gaussian, rng):
    p = (0.7, -1.3)
    direct = tf_shift(gaussian, p)
    composed = modulate(translate(gaussian, p[0]), p[1])
    assert np.array_equal(direct.values, composed.values)
    assert tf_shift(gaussian, (0.0, 0.0)).values == pytest.approx(gaussian.values)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
def test_unitarity_of_shifts(a, b):
    grid = SampleGrid(256, 1 / 16)
    rng = np.random.default_rng(42)
    f = random_signal(grid, rng)
    n0 = f.norm
    assert translate(f, a).norm == pytest.approx(n0, rel=1e-12)
    assert modulate(f, b).norm == pytest.approx(n0, rel=1e-12)
    assert tf_shift(f, (a, b)).norm == pytest.approx(n0, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-2, 2, allow_nan=False),
    b=st.floats(-2, 2, allow_nan=False),
)
def test_commutation_defect(a, b):
    # M_b T_a = e^{2 pi i a b} T_a M_b for concentrated windows
    grid = SampleGrid(1024, 1 / 32)
    x = grid.x()
    f = Signal(grid, np.exp(-np.pi * x**2))
    lhs = modulate(translate(f, a), b).values
    rhs = np.exp(2j * np.pi * a * b) * translate(modulate(f, b), a).values
    assert np.max(np.abs(lhs - rhs)) / f.norm < 1e-10


def test_fourier_gaussian_self_dual(grid):
    x = grid.x()
    f = Signal(grid, np.exp(-np.pi * x**2))
    F = fourier(f)
    assert F.grid == grid.dual()
    ref = np.exp(-np.pi * F.grid.x() ** 2)
    assert np.max(np.abs(F.values - ref)) < 1e-8


def test_fourier_parseval_and_involution(grid, rng):
    f = random_signal(grid, rng)
    F = fourier(f)
    assert F.norm == pytest.approx(f.norm, rel=1e-12)
    assert np.max(np.abs(inverse_fourier(F).values - f.values)) < 1e-12
    four_times = fourier(fourier(fourier(fourier(f))))
    assert np.max(np.abs(four_times.values - f.values)) < 1e-10


def test_fourier_indicator_is_sinc(grid):
    # window g_1 = indicator of [-1/2, 1/2): spectrum sinc(xi), value 1 at 0
    x = grid.x()
    f = Signal(grid, ((x >= -0.5) & (x < 0.5)).astype(float))
    F = fourier(f)
    xi = F.grid.x()
    with np.errstate(invalid="ignore", divide="ignore"):
        ref = np.where(xi == 0.0, 1.0, np.sin(np.pi * xi) / (np.pi * xi))
    assert abs(F.values[F.grid.origin] - 1.0) < 1e-12
    # half-open sampling biases the jump samples; accuracy is O(delta) overall
    assert np.max(np.abs(F.values - ref)) < 0.05
    assert np.max(np.abs(F.values[:: grid.L // 8] - ref[:: grid.L // 8])) < 0.05


def test_package_exports_are_in_module_all():
    # every name the package re-exports from a submodule is public there too
    import ast
    import importlib

    import gaborlab

    tree = ast.parse(open(gaborlab.__file__).read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gaborlab.{node.module}")
        missing = [alias.name for alias in node.names if alias.name not in module.__all__]
        assert not missing, f"gaborlab.{node.module}.__all__ lacks {missing}"
