"""Window families: closed forms, supports, wraparound enforcement."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from gaborlab import SampleGrid, WindowSpec, WraparoundError, parse_window, sample_window
from gaborlab.windows import (
    bspline_closed_form,
    bspline_support,
    bspline_values,
    window_values,
    wraparound_error,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec("indicator")  # missing width
    with pytest.raises(ValueError):
        WindowSpec("bspline", 0)
    WindowSpec("bspline", 64)
    with pytest.raises(ValueError, match="at most 64"):
        WindowSpec("bspline", 65)
    with pytest.raises(ValueError):
        WindowSpec("gaussian", 2.0)
    with pytest.raises(ValueError):
        WindowSpec("hann")


def test_parse_window():
    assert parse_window("bspline:2") == WindowSpec("bspline", 2)
    assert parse_window("indicator:0.5") == WindowSpec("indicator", 0.5)
    assert parse_window("sech") == WindowSpec("sech")


def test_gaussian_peak_and_norm(grid):
    g = sample_window(WindowSpec("gaussian"), grid)
    assert g.values[grid.origin].real == 1.0  # e^{-pi 0^2}
    assert g.norm == pytest.approx(2 ** (-0.25), abs=1e-13)


def test_bspline2_is_hat():
    x = np.array([0.0, 1.0, -1.0, 0.25, -0.75])
    vals = bspline_values(2, x)
    assert vals == pytest.approx([1.0, 0.0, 0.0, 0.75, 0.25], abs=1e-15)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_bspline_recursion_vs_closed_form(N):
    # the Cox-de Boor recursion against hand formulas
    x = np.linspace(-3.0, 3.0, 4801)
    assert np.max(np.abs(bspline_values(N, x) - bspline_closed_form(N, x))) < 1e-10


@pytest.mark.parametrize("N", [2, 3, 5, 7])
def test_bspline_recursion_step(N):
    # g_N(x) = int_{x-1/2}^{x+1/2} g_{N-1}, checked by fine quadrature; the
    # oracle itself is O(h) at the N=2 integrand's jumps, O(h^2) otherwise
    x = np.linspace(-(N + 1) / 2, (N + 1) / 2, 41)
    t = np.linspace(-0.5, 0.5, 20001)
    quad = np.array(
        [np.trapezoid(bspline_values(N - 1, xi + t), t) for xi in x]
    )
    tol = 1e-4 if N == 2 else 1e-8
    assert np.max(np.abs(bspline_values(N, x) - quad)) < tol


def _bspline_exact(N, x):
    """g_N(x) from the truncated-power sum, in exact rational arithmetic."""
    t = Fraction(float(x)) + Fraction(N, 2)
    total = sum((-1) ** k * comb(N, k) * (t - k) ** (N - 1) for k in range(N + 1) if t > k)
    return float(total / factorial(N - 1))


@pytest.mark.parametrize("N", [5, 10, 20, 30, 40])
def test_bspline_against_exact_truncated_powers(N):
    # sum_k (-1)^k C(N, k) (x + N/2 - k)_+^{N-1} / (N-1)!, summed exactly
    rng = np.random.default_rng(N)
    x = np.concatenate(
        [
            rng.uniform(-N / 2 - 0.5, N / 2 + 0.5, 40),
            np.arange(-N / 2 - 0.5, N / 2 + 0.5, 0.375),  # dyadic points
            [-N / 2, N / 2, -N / 2 + 2.0**-40, N / 2 - 2.0**-40],  # support edges
            [2.0**-54, -(2.0**-54)],
        ]
    )
    exact = np.array([_bspline_exact(N, xi) for xi in x])
    assert np.max(np.abs(bspline_values(N, x) - exact)) <= 1e-15


@pytest.mark.parametrize("N", [2, 3, 7, 16, 25, 40])
def test_bspline_partition_of_unity_and_positivity(N):
    # sum_k g_N(x - k) = 1 for every x, and g_N >= 0
    x = np.random.default_rng(N).uniform(-1.0, 1.0, 500)
    vals = bspline_values(N, x[:, None] - np.arange(-N, N + 1))
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 2e-15
    assert np.all(vals >= 0.0)


def test_bspline_support_and_mass():
    for N in (1, 2, 4, 6):
        lo, hi = bspline_support(N)
        assert (lo, hi) == (-N / 2, N / 2)
        x = np.linspace(lo - 0.5, hi + 0.5, 200001)
        assert np.trapezoid(bspline_values(N, x), x) == pytest.approx(1.0, abs=1e-9)


def test_indicator_half_open(grid):
    w = sample_window(WindowSpec("indicator", 1.0), grid)
    x = grid.x()
    assert np.array_equal(w.values.real, ((x >= 0) & (x < 1)).astype(float))
    assert w.norm**2 == pytest.approx(1.0, abs=1e-15)


def test_slow_decay_windows_rejected_on_short_period(grid, wide_grid):
    for fam in ("sech", "exp_two_sided", "exp_one_sided"):
        with pytest.raises(WraparoundError):
            sample_window(WindowSpec(fam), grid)  # T = 32 tail ~ 1e-7
        s = sample_window(WindowSpec(fam), wide_grid)  # T = 64 tail ~ 5e-14
        assert np.isfinite(s.norm)


def test_wraparound_bounds_are_conservative():
    grid = SampleGrid(2048, 1 / 32)  # T = 64
    for fam in ("sech", "exp_two_sided", "exp_one_sided"):
        spec = WindowSpec(fam)
        bound = wraparound_error(spec, grid)
        # true tail mass on a fine far-field grid
        far = np.arange(32.0, 200.0, 1e-3)
        tail = np.trapezoid(window_values(spec, far) + window_values(spec, -far), far)
        assert tail <= bound < 1e-12


def test_compact_window_too_wide_rejected():
    small = SampleGrid(64, 1 / 8)  # T = 8, half period 4
    with pytest.raises(WraparoundError):
        sample_window(WindowSpec("indicator", 5.0), small)
    with pytest.raises(WraparoundError):
        sample_window(WindowSpec("bspline", 9), small)


def test_window_values_match_samples(wide_grid):
    for fam, param in [("gaussian", None), ("sech", None), ("bspline", 3)]:
        spec = WindowSpec(fam, param)
        s = sample_window(spec, wide_grid)
        assert np.array_equal(s.values.real, window_values(spec, wide_grid.x()))
        assert np.all(s.values.imag == 0.0)


def test_gaussian_samples_hold_no_subnormal_value():
    # exp(-pi x^2) is subnormal for |x| between about 15.0 and 15.4: those samples are zero
    grid = SampleGrid(1024, 1 / 32)
    v = sample_window(WindowSpec("gaussian"), grid).values.real
    assert not np.any((v != 0.0) & (np.abs(v) < np.finfo(np.float64).tiny))
    assert np.count_nonzero(v == 0.0) == np.count_nonzero(np.exp(-np.pi * grid.x() ** 2) < 1e-300)
    assert window_values(WindowSpec("gaussian"), 0.0) == 1.0  # 0-d input
