"""Compact duals, the duality residual, and region classification."""

import math

import numpy as np
import pytest

from gaborlab import (
    BeyondProvenRegionsError,
    Lattice,
    RegionLabel,
    SampleGrid,
    Signal,
    WindowSpec,
    analysis,
    bspline_compact_dual,
    classify_point_g2,
    compact_window,
    janssen_residual,
    region_expects_frame,
    sample_window,
    synthesis,
)
from gaborlab.duality import CompactSignal, _fold_grid, _g2_rule, required_slice_order

from conftest import random_signal


def test_unit_indicator_self_dual():
    g1 = compact_window(WindowSpec("bspline", 1))
    assert janssen_residual(g1, g1, 1.0, 1.0) < 1e-12


def test_tiling_translates_scaled_dual():
    # alpha equal to the support length: translates tile, each x sees one
    # term, and h = beta * g solves every row analytically
    g1 = compact_window(WindowSpec("bspline", 1))
    h = CompactSignal(
        x_lo=-0.5,
        x_hi=0.5,
        step=g1.step,
        samples=0.25 * g1.samples,
        evaluator=lambda x: 0.25 * g1.eval_at(x),
    )
    assert janssen_residual(g1, h, 1.0, 0.25) < 1e-12


def _residual_reference(g, h, alpha, beta):
    """The duality sum one row n at a time and, within it, one translate k at a time.

    Rows and translates run over generous symmetric ranges of their own: the
    extra rows sum to zero and the extra translates of h vanish on [0, alpha).
    """
    x = _fold_grid(h, alpha)
    h_reach, g_reach = max(-h.x_lo, h.x_hi), max(-g.x_lo, g.x_hi)
    k_max = math.ceil(h_reach / alpha) + 3
    n_max = math.ceil(beta * (h_reach + g_reach)) + 3
    worst = 0.0
    for n in range(-n_max, n_max + 1):
        acc = np.zeros_like(x, dtype=complex)
        for k in range(-k_max, k_max + 1):
            hv = h.eval_at(x - k * alpha)
            if not np.any(hv):
                continue
            t = x - n / beta - k * alpha
            gv = np.where((t >= g.x_lo) & (t <= g.x_hi), g.evaluator(t), 0.0)
            acc += np.conj(gv) * hv
        target = beta if n == 0 else 0.0
        worst = max(worst, float(np.max(np.abs(acc - target))))
    return worst


@pytest.mark.parametrize(
    "N, alpha, beta, m, m_used",
    [
        (2, 1.0, 0.5, "auto", 1),
        (2, 1.0, 0.7, "auto", 2),
        (2, 0.4, 1.5, "auto", 3),
        (3, 1.0, 0.4, "auto", 1),
        (3, 1.0, 0.6, "auto", 2),
        (3, 0.5, 1.0, "auto", 3),
        (2, 1.0, 0.7, 2, 2),
        (2, 0.4, 1.5, 3, 3),
    ],
)
def test_residual_matches_row_by_row_loop(N, alpha, beta, m, m_used):
    h = bspline_compact_dual(N, alpha, beta, m=m)
    assert f"(m={m_used})" in h.provenance
    g = compact_window(WindowSpec("bspline", N))
    residual = janssen_residual(g, h, alpha, beta)
    assert residual == _residual_reference(g, h, alpha, beta)
    assert residual < 1e-8


@pytest.mark.parametrize("N, alpha, beta", [(2, 1.0, 0.7), (3, 0.4, 0.75)])
def test_residual_of_a_perturbed_dual_matches_row_by_row_loop(N, alpha, beta, rng):
    # every row n now deviates, by far more than rounding
    h = bspline_compact_dual(N, alpha, beta, n_x=256)
    hp = CompactSignal(h.x_lo, h.x_hi, h.step, h.samples + rng.normal(size=h.samples.shape))
    g = compact_window(WindowSpec("bspline", N))
    residual = janssen_residual(g, hp, alpha, beta)
    assert residual == _residual_reference(g, hp, alpha, beta)
    assert residual > 0.1


def test_self_dual_indicator_matches_row_by_row_loop():
    # h carries the closed form too; the residual still reads h by its samples
    g1 = compact_window(WindowSpec("bspline", 1))
    for alpha, beta in [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0)]:
        assert janssen_residual(g1, g1, alpha, beta) == _residual_reference(g1, g1, alpha, beta)
    assert janssen_residual(g1, g1, 1.0, 1.0) == 0.0
    assert janssen_residual(g1, g1, 0.5, 1.0) == pytest.approx(1.0)  # two translates overlap


def test_eval_at_reads_samples_only():
    g1 = compact_window(WindowSpec("bspline", 1))
    h = CompactSignal(g1.x_lo, g1.x_hi, g1.step, 2.0 * g1.samples, evaluator=g1.evaluator)
    assert np.array_equal(h.eval_at(g1.positions()), 2.0 * g1.samples)
    with pytest.raises(ValueError, match="off its sample grid"):
        h.eval_at(np.array([0.5 * g1.step]))


def test_required_slice_order_matches_regions():
    # the support rule reproduces the known region boundaries for N = 2
    assert required_slice_order(2, 1.0, 0.5) == 1
    assert required_slice_order(2, 1.0, 2 / 3) == 1  # boundary of the m=1 region
    assert required_slice_order(2, 1.0, 0.7) == 2
    assert required_slice_order(2, 1.0, 0.8) == 2  # boundary 4/(2+3a)
    assert required_slice_order(2, 0.4, 1.5) == 3


@pytest.mark.parametrize(
    "alpha,beta,m_expect,supp",
    [(1.0, 0.5, 1, 0.5), (1.0, 0.7, 2, 1.5), (0.4, 1.5, 3, 1.0)],
)
def test_compact_dual_regions(alpha, beta, m_expect, supp):
    h = bspline_compact_dual(2, alpha, beta)
    assert f"m={m_expect}" in h.provenance
    assert h.x_lo == pytest.approx(-supp) and h.x_hi == pytest.approx(supp)
    g2 = compact_window(WindowSpec("bspline", 2))
    assert janssen_residual(g2, h, alpha, beta) < 1e-8


def test_solver_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bspline_compact_dual(2, 1.0, 1.2)  # alpha beta > 1
    with pytest.raises(ValueError):
        bspline_compact_dual(1, 1.0, 0.5)  # N < 2
    with pytest.raises(ValueError):
        bspline_compact_dual(2, 1.0, 0.7, m=1)  # omits active rows
    with pytest.raises(BeyondProvenRegionsError):
        bspline_compact_dual(2, 0.24, 1.9)  # needs m = 4


@pytest.mark.parametrize("alpha, beta", [(-1.0, -0.5), (0.0, 0.5), (1.0, -0.5)])
def test_solver_rejects_non_positive_lattice_first(alpha, beta):
    # (-1, -0.5) passes 0 < alpha*beta < 1; the sign check must come first
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        bspline_compact_dual(2, alpha, beta)


def test_explicit_m_matches_support_rule():
    # forcing the exact support-rule order reproduces auto
    h = bspline_compact_dual(2, 1.0, 0.7, m=2)
    g2 = compact_window(WindowSpec("bspline", 2))
    assert janssen_residual(g2, h, 1.0, 0.7) < 1e-8
    # a larger system has rows with no support overlap: honestly singular
    from gaborlab import SingularSliceError

    with pytest.raises(SingularSliceError):
        bspline_compact_dual(2, 1.0, 0.5, m=2)


def test_region_c_dual_closed_form():
    # m = 1 slices are scalar: h = beta / g_2 on [-alpha/2, alpha/2)
    h = bspline_compact_dual(2, 1.0, 0.5, n_x=512)
    x = h.positions()
    ref = 0.5 / np.maximum(1.0 - np.abs(x), 1e-12)
    assert np.max(np.abs(h.samples.real - ref)) < 1e-10


def test_region_c_uniqueness(rng):
    # perturbing the m=1 dual inside its support breaks duality
    alpha, beta = 1.0, 0.5
    h = bspline_compact_dual(2, alpha, beta, n_x=512)
    g2 = compact_window(WindowSpec("bspline", 2))
    base = janssen_residual(g2, h, alpha, beta)
    x = h.positions()
    for _ in range(10):
        bump = rng.normal(size=h.samples.shape) * 0.01
        hp = CompactSignal(h.x_lo, h.x_hi, h.step, h.samples + bump)
        assert janssen_residual(g2, hp, alpha, beta) > max(100 * base, 1e-4)


@pytest.mark.parametrize(
    "alpha,beta,L,delta_inv,a,b",
    [
        (1.0, 0.5, 1024, 32, 32, 16),
        (1.0, 0.7, 1120, 56, 56, 14),
        (0.4, 1.5, 960, 60, 24, 24),
    ],
)
def test_dual_of_dual_periodic_reconstruction(alpha, beta, L, delta_inv, a, b, rng):
    # sampling the compact dual onto an exactly representable periodic grid
    # and running lattice reconstruction: error < 1e-6 (observed: exact)
    grid = SampleGrid(L, 1.0 / delta_inv)
    lat = Lattice(a, b, grid)
    assert lat.alpha == pytest.approx(alpha) and lat.beta == pytest.approx(beta)
    g = sample_window(WindowSpec("bspline", 2), grid)
    h = bspline_compact_dual(2, alpha, beta, n_x=L)
    h_per = Signal(grid, h.eval_at(grid.x()))
    f = random_signal(grid, rng)
    rec = synthesis(g, lat, analysis(h_per, lat, f))
    assert Signal(grid, rec.values - f.values).norm / f.norm < 1e-6


def test_classify_examples():
    assert classify_point_g2(1.5, 0.5) is RegionLabel.REGION_B
    assert classify_point_g2(0.5, 2.0) is RegionLabel.NOT_FRAME_RED_LINE
    assert classify_point_g2(1.0, 1.5) is RegionLabel.NOT_FRAME_DENSITY
    assert classify_point_g2(2.5, 0.1) is RegionLabel.NOT_FRAME_DENSITY  # alpha >= 2
    assert classify_point_g2(0.3, 0.4) is RegionLabel.PAINLESS
    assert classify_point_g2(0.5, 0.75) is RegionLabel.REGION_C  # 2/(2+a) = 0.8
    assert classify_point_g2(0.5, 1.1) is RegionLabel.REGION_D  # 4/(2+1.5) = 8/7
    assert classify_point_g2(0.4, 1.3) is RegionLabel.REGION_E
    assert classify_point_g2(0.7, 1.05) is RegionLabel.REGION_F
    assert classify_point_g2(0.8, 0.95) is RegionLabel.REGION_G
    assert classify_point_g2(0.3, 2.5) is RegionLabel.UNKNOWN
    assert classify_point_g2(0.9, 1.05) is RegionLabel.UNKNOWN  # open strip


def test_red_lines_at_higher_integers():
    assert classify_point_g2(0.2, 3.0) is RegionLabel.NOT_FRAME_RED_LINE
    assert classify_point_g2(0.2, 4.0) is RegionLabel.NOT_FRAME_RED_LINE
    # beta = 2 with alpha beta > 1 is plain density failure
    assert classify_point_g2(0.6, 2.0) is RegionLabel.NOT_FRAME_DENSITY


def _classify_reference(alpha, beta):
    """The g_2 rules as a scalar if-chain, one point at a time (first rule wins)."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    near_int = abs(beta - round(beta)) < 1e-9 and round(beta) >= 2
    if near_int and alpha * beta <= 1.0 + 1e-12 and alpha < 2.0:
        return RegionLabel.NOT_FRAME_RED_LINE
    if alpha * beta >= 1.0 or alpha >= 2.0:
        return RegionLabel.NOT_FRAME_DENSITY
    if 1.0 <= alpha < 2.0 and beta < 1.0 / alpha:
        return RegionLabel.REGION_B
    if beta <= 0.5:
        return RegionLabel.PAINLESS
    if beta <= 2.0 / (2.0 + alpha):
        return RegionLabel.REGION_C
    if beta <= 4.0 / (2.0 + 3.0 * alpha):
        return RegionLabel.REGION_D
    if alpha < 0.5 and beta <= 2.0 / (1.0 + alpha):
        return RegionLabel.REGION_E
    if 0.5 <= alpha <= 0.8 and beta <= 6.0 / (2.0 + 5.0 * alpha) and beta > 1.0:
        return RegionLabel.REGION_F
    if 2.0 / 3.0 <= alpha <= 1.0 and beta < 1.0:
        return RegionLabel.REGION_G
    return RegionLabel.UNKNOWN


def _around(x):
    """x and its float neighbours one and two ulps away."""
    down, up = np.nextafter(x, 0.0), np.nextafter(x, np.inf)
    return [np.nextafter(down, 0.0), down, x, up, np.nextafter(up, np.inf)]


def _boundary_points(rng):
    """Points on and next to every rule boundary of the g_2 classifier."""
    alphas = rng.uniform(0.01, 2.5, 200)
    curves = [1.0 / alphas, 2.0 / (2.0 + alphas), 4.0 / (2.0 + 3.0 * alphas),
              2.0 / (1.0 + alphas), 6.0 / (2.0 + 5.0 * alphas)]
    pts = [(a, b) for curve in curves for a, c in zip(alphas, curve) for b in _around(c)]
    betas = rng.uniform(0.01, 4.0, 200)
    for a in (0.5, 2.0 / 3.0, 0.8, 1.0, 2.0):  # vertical edges
        pts += [(x, b) for x in _around(a) for b in betas]
    for b in (0.5, 1.0, *range(2, 7)):  # horizontal edges and integer red lines
        near = [b + d for d in (-2e-9, -1e-9, -5e-10, 5e-10, 1e-9, 2e-9)] + _around(float(b))
        pts += [(a, y) for y in near for a in (*alphas[:40], 1.0 / b, *_around(1.0 / b))]
    return np.array(pts)


def test_g2_rule_matches_scalar_chain(rng):
    random = np.column_stack([rng.uniform(1e-3, 3.0, 4000), rng.uniform(1e-3, 5.0, 4000)])
    pts = np.concatenate([random, _boundary_points(rng)])
    expected = [_classify_reference(float(a), float(b)) for a, b in pts]
    labels = list(RegionLabel)
    assert [labels[k] for k in _g2_rule(pts[:, 0], pts[:, 1])] == expected
    assert [classify_point_g2(float(a), float(b)) for a, b in pts[::37]] == expected[::37]
    # broadcast over a grid, [i_beta, j_alpha] as the scan lays it out
    a, b = random[:60, 0], random[:50, 1]
    grid = _g2_rule(a, b[:, None])
    assert grid.shape == (50, 60)
    assert all(labels[grid[i, j]] == _classify_reference(a[j], b[i]) for i, j in np.ndindex(50, 60))


@pytest.mark.parametrize("alpha, beta", [(np.nan, 1.0), (1.0, np.nan), (0.0, 1.0), (1.0, -0.5)])
def test_classify_rejects_nan_and_non_positive_targets(alpha, beta):
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        classify_point_g2(alpha, beta)
    with pytest.raises(ValueError, match="alpha and beta must be positive"):
        _g2_rule(np.array([0.5, alpha]), np.array([0.5, beta]))


def test_solver_point_outside_proven_regions_still_works():
    # (0.4, 1.5) sits outside the known inequality ranges (beta > 2/(1+alpha))
    # yet the m = 3 system is invertible and produces a genuine dual
    assert classify_point_g2(0.4, 1.5) is RegionLabel.UNKNOWN
    h = bspline_compact_dual(2, 0.4, 1.5)
    g2 = compact_window(WindowSpec("bspline", 2))
    assert janssen_residual(g2, h, 0.4, 1.5) < 1e-8


def test_region_expectations():
    assert region_expects_frame(RegionLabel.PAINLESS) is True
    assert region_expects_frame(RegionLabel.REGION_G) is True
    assert region_expects_frame(RegionLabel.NOT_FRAME_RED_LINE) is False
    assert region_expects_frame(RegionLabel.UNKNOWN) is None
