"""Lattice frames: operators, bounds, duals, tight windows, least norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab import (
    Lattice,
    NotAFrameError,
    SampleGrid,
    Signal,
    WindowSpec,
    analysis,
    canonical_dual,
    canonical_tight,
    frame_apply,
    frame_bounds,
    frame_matrix,
    gabor_atom,
    inner,
    least_norm_check,
    make_lattice,
    sample_window,
    synthesis,
)

from conftest import random_signal

SMALL = SampleGrid(128, 1 / 8)


def test_make_lattice_snapping(grid):
    lat, ae, be = make_lattice(grid, 1.0, 1.0)
    assert (lat.a, lat.b) == (32, 32) and ae == 0.0 and be == 0.0
    assert lat.redundancy == 1.0
    lat2, _, _ = make_lattice(grid, 1.0, 0.5)
    assert (lat2.a, lat2.b) == (32, 16) and lat2.redundancy == 2.0
    # irrational target snaps to the nearest divisor with a reported error
    lat3, ae3, be3 = make_lattice(grid, 2**0.5 - 0.01, 1.0, snap_tol=0.5)
    assert lat3.a in (32, 64)
    assert ae3 == abs(lat3.alpha - (2**0.5 - 0.01))
    from gaborlab import SnapError

    with pytest.raises(SnapError):
        make_lattice(grid, 2**0.5 - 0.01, 1.0, snap_tol=1e-3)


def test_analysis_matches_direct_inner_products(rng):
    lat = Lattice(16, 16, SMALL)
    g = sample_window(WindowSpec("gaussian"), SMALL)
    f = random_signal(SMALL, rng)
    c = analysis(g, lat, f)
    for n in range(lat.n_time):
        for k in range(lat.n_freq):
            assert c[n, k] == pytest.approx(inner(f, gabor_atom(g, lat, n, k)), abs=1e-12)


# a = b = 1 (the STFT lattice), and a = 12 that does not divide P = 30
@pytest.mark.parametrize(
    "grid_, a, b", [(SampleGrid(24, 1 / 4), 1, 1), (SampleGrid(120, 1 / 10), 12, 4)]
)
def test_analysis_and_synthesis_match_atom_sums(rng, grid_, a, b):
    lat = Lattice(a, b, grid_)
    g = random_signal(grid_, rng)
    f = random_signal(grid_, rng)
    shape = (lat.n_time, lat.n_freq)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    atoms = np.array(
        [[gabor_atom(g, lat, n, k).values for k in range(lat.n_freq)] for n in range(lat.n_time)]
    )
    direct = grid_.delta * np.einsum("j,nkj->nk", f.values, np.conj(atoms))
    assert np.max(np.abs(analysis(g, lat, f) - direct)) < 1e-12 * np.max(np.abs(direct))
    direct = np.einsum("nk,nkj->j", c, atoms)
    assert np.max(np.abs(synthesis(g, lat, c).values - direct)) < 1e-12 * np.max(np.abs(direct))


def test_rolled_windows_is_a_read_only_view(rng):
    from gaborlab.frames import _rolled_windows

    lat = Lattice(12, 4, SampleGrid(120, 1 / 10))
    g = random_signal(lat.grid, rng).values
    G = _rolled_windows(g, lat)
    n, j = np.meshgrid(np.arange(lat.n_time), np.arange(lat.grid.L), indexing="ij")
    assert np.array_equal(G, g[(j - n * lat.a) % lat.grid.L])
    assert G.base is not None and G.strides[0] < 0  # a strided view, not a gathered copy
    with pytest.raises(ValueError, match="read-only"):
        G[1, 0] = 0.0


def test_analysis_onb_single_coefficient(grid):
    lat = Lattice(32, 32, grid)
    g = sample_window(WindowSpec("indicator", 1.0), grid)
    atom = gabor_atom(g, lat, 3, 7)
    c = analysis(g, lat, atom)
    assert abs(c[3, 7] - 1.0) < 1e-12
    c[3, 7] = 0.0
    assert np.max(np.abs(c)) < 1e-12


def test_synthesis_delta_gives_atom(grid, gaussian):
    lat = Lattice(32, 16, grid)
    c = np.zeros((lat.n_time, lat.n_freq), dtype=complex)
    c[0, 0] = 1.0
    out = synthesis(gaussian, lat, c)
    assert np.max(np.abs(out.values - gaussian.values)) < 1e-14


def test_adjoint_pairing(rng, gaussian, grid):
    lat = Lattice(32, 16, grid)
    f = random_signal(grid, rng)
    c = rng.normal(size=(lat.n_time, lat.n_freq)) + 1j * rng.normal(
        size=(lat.n_time, lat.n_freq)
    )
    lhs = inner(synthesis(gaussian, lat, c), f)
    rhs = np.sum(c * np.conj(analysis(gaussian, lat, f)))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_frame_apply_positivity_and_energy(rng, gaussian, grid):
    lat = Lattice(32, 16, grid)
    f = random_signal(grid, rng)
    sf = frame_apply(gaussian, lat, f)
    quad = inner(sf, f).real
    coeff_energy = float(np.sum(np.abs(analysis(gaussian, lat, f)) ** 2))
    assert quad >= 0.0
    assert quad == pytest.approx(coeff_energy, rel=1e-12)


def test_frame_apply_matches_dense_matrix(rng):
    # brute-force equivalence of the operator and its assembled matrix
    lat = Lattice(16, 8, SMALL)
    g = sample_window(WindowSpec("gaussian"), SMALL)
    S = frame_matrix(g, lat)
    assert np.max(np.abs(S - S.conj().T)) < 1e-12
    for _ in range(3):
        f = random_signal(SMALL, rng)
        assert np.max(np.abs(S @ f.values - frame_apply(g, lat, f).values)) < 1e-12


def test_frame_matrix_matches_atom_outer_products(rng):
    # independent dense assembly: S = delta * sum over atoms of phi phi^H
    lat = Lattice(16, 16, SMALL)
    g = sample_window(WindowSpec("gaussian"), SMALL)
    atoms = np.array(
        [
            gabor_atom(g, lat, n, k).values
            for n in range(lat.n_time)
            for k in range(lat.n_freq)
        ]
    )
    S_direct = SMALL.delta * (atoms.T @ np.conj(atoms))
    assert np.max(np.abs(frame_matrix(g, lat) - S_direct)) < 1e-12


def test_onb_bounds(grid):
    lat = Lattice(32, 32, grid)
    g = sample_window(WindowSpec("indicator", 1.0), grid)
    rep = frame_bounds(g, lat)
    assert abs(rep.A - 1.0) < 1e-10 and abs(rep.B - 1.0) < 1e-10
    assert rep.is_frame
    sf = frame_apply(g, lat, g)
    assert np.max(np.abs(sf.values - g.values)) < 1e-10


def test_gaussian_half_critical_bounds(grid, gaussian):
    lat = Lattice(32, 16, grid)
    rep = frame_bounds(gaussian, lat)
    # frozen oracle values from the dense eigensolver
    assert rep.A == pytest.approx(0.8284155687504852, rel=1e-9)
    assert rep.B == pytest.approx(2.0149674406901696, rel=1e-9)
    assert rep.A > 0.05 and rep.B < 4 and rep.is_frame


def test_undersampled_is_rank_deficient(grid, gaussian):
    lat = Lattice(64, 32, grid)  # a b = 2048 > L
    rep = frame_bounds(gaussian, lat)
    assert rep.A < 1e-12
    assert not rep.is_frame


def test_commutation_with_lattice_shifts(rng, gaussian, grid):
    from gaborlab import modulate, translate

    lat = Lattice(32, 16, grid)
    f = random_signal(grid, rng)
    shifted = modulate(translate(f, 3 * lat.alpha), 2 * lat.beta)
    lhs = frame_apply(gaussian, lat, shifted)
    rhs = modulate(translate(frame_apply(gaussian, lat, f), 3 * lat.alpha), 2 * lat.beta)
    assert Signal(grid, lhs.values - rhs.values).norm / rhs.norm < 1e-10


def test_canonical_dual_reconstruction(rng, gaussian, grid):
    lat = Lattice(32, 16, grid)
    gd = canonical_dual(gaussian, lat)
    f = random_signal(grid, rng)
    rec = synthesis(gaussian, lat, analysis(gd, lat, f))
    assert Signal(grid, rec.values - f.values).norm / f.norm < 1e-8
    rec2 = synthesis(gd, lat, analysis(gaussian, lat, f))
    assert Signal(grid, rec2.values - f.values).norm / f.norm < 1e-8


def test_dual_of_onb_is_self(grid):
    lat = Lattice(32, 32, grid)
    g = sample_window(WindowSpec("indicator", 1.0), grid)
    gd = canonical_dual(g, lat)
    assert np.max(np.abs(gd.values - g.values)) < 1e-10


def test_dual_of_tight_is_scaled(grid, gaussian):
    lat = Lattice(32, 16, grid)
    gt = canonical_tight(gaussian, lat)
    gtd = canonical_dual(gt, lat)
    rep = frame_bounds(gt, lat)
    assert np.max(np.abs(gtd.values - gt.values / rep.A)) < 1e-10


def test_dual_bounds_are_reciprocals(grid, gaussian):
    lat = Lattice(32, 16, grid)
    rep = frame_bounds(gaussian, lat)
    repd = frame_bounds(canonical_dual(gaussian, lat), lat)
    assert repd.A == pytest.approx(1.0 / rep.B, rel=1e-8)
    assert repd.B == pytest.approx(1.0 / rep.A, rel=1e-8)


def test_canonical_tight_is_parseval(grid, gaussian):
    lat = Lattice(32, 16, grid)
    gt = canonical_tight(gaussian, lat)
    rep = frame_bounds(gt, lat)
    assert abs(rep.A - 1.0) < 1e-8 and abs(rep.B - 1.0) < 1e-8
    # Parseval identity applied to f = g_tight
    coeffs = analysis(gt, lat, gt)
    assert float(np.sum(np.abs(coeffs) ** 2)) == pytest.approx(gt.norm**2, rel=1e-8)


def test_not_a_frame_raises(grid, gaussian):
    lat = Lattice(64, 32, grid)
    with pytest.raises(NotAFrameError):
        canonical_dual(gaussian, lat)
    with pytest.raises(NotAFrameError):
        canonical_tight(gaussian, lat)


def test_least_norm_strict(rng, gaussian, grid):
    lat = Lattice(32, 16, grid)
    f = random_signal(grid, rng)
    rep = least_norm_check(f, gaussian, lat, trials=100, rng=rng)
    assert not rep.degenerate
    assert rep.min_gap > 0.0
    assert rep.max_identity_residual < 1e-10
    assert rep.max_reconstruction_error < 1e-10


def test_least_norm_degenerate_at_critical(rng, grid):
    lat = Lattice(32, 32, grid)
    g = sample_window(WindowSpec("indicator", 1.0), grid)
    rep = least_norm_check(random_signal(grid, rng), g, lat, trials=5)
    assert rep.degenerate


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 3), st.integers(0, 7))
def test_frame_operator_commutes_blockwise(n, k):
    grid = SampleGrid(128, 1 / 8)
    lat = Lattice(16, 16, grid)
    g = sample_window(WindowSpec("gaussian"), grid)
    atom = gabor_atom(g, lat, n, k)
    sa = frame_apply(g, lat, atom)
    # S of an atom stays in the modulation structure: <S atom, atom> real
    assert abs(inner(sa, atom).imag) < 1e-10


def test_gaussian_bounds_converged_under_grid_refinement():
    # halving delta at fixed period and (alpha, beta) leaves gaussian bounds unchanged
    grid, fine = SampleGrid(512, 1 / 16), SampleGrid(1024, 1 / 32)
    lat, fine_lat = Lattice(16, 8, grid), Lattice(32, 8, fine)
    assert (fine_lat.alpha, fine_lat.beta) == (lat.alpha, lat.beta)
    coarse = frame_bounds(sample_window(WindowSpec("gaussian"), grid), lat)
    refined = frame_bounds(sample_window(WindowSpec("gaussian"), fine), fine_lat)
    assert abs(refined.A - coarse.A) / coarse.A < 1e-10


@pytest.mark.parametrize("a", [8, 16, 32, 64])
@pytest.mark.parametrize("b", [2, 4, 8, 16])
def test_painless_bounds_closed_form(grid, a, b):
    # bspline:2 lives on (-1, 1), 64 samples; with 1/beta >= 2 (P >= 64) the
    # frame operator is diagonal, (1/beta) sum_n g[i + n a]^2
    g = sample_window(WindowSpec("bspline", 2), grid)
    lat = Lattice(a, b, grid)
    assert 1 / lat.beta >= 2
    diag = (1 / lat.beta) * np.sum(np.abs(g.values.reshape(-1, a)) ** 2, axis=0)
    rep = frame_bounds(g, lat)
    assert rep.method == "block-dense"
    assert rep.A == pytest.approx(diag.min(), abs=1e-13)
    assert rep.B == pytest.approx(diag.max(), abs=1e-13)
    if (lat.alpha, lat.beta) == (1.0, 0.5):
        assert rep.A == pytest.approx(1.0, abs=1e-13)
        assert rep.B == pytest.approx(2.0, abs=1e-13)


def test_wide_block_goes_to_lanczos():
    # b = L = 4096 > DENSE_BLOCK_MAX: one block, rank 64 (one frequency)
    grid = SampleGrid(4096, 1 / 64)
    g = sample_window(WindowSpec("gaussian"), grid)
    rep = frame_bounds(g, Lattice(64, 4096, grid))
    assert rep.method == "iterative-lanczos"
    assert rep.A <= 1e-12
    # the nonzero spectrum is that of the Gram matrix delta <T_na g, T_ma g>
    shifted = np.stack([np.roll(g.values, 64 * n) for n in range(64)])
    gram = grid.delta * (np.conj(shifted) @ shifted.T)
    assert rep.B == pytest.approx(np.linalg.eigvalsh(gram)[-1], rel=1e-8)


def test_lanczos_matches_dense(monkeypatch):
    from gaborlab import frames

    g = sample_window(WindowSpec("gaussian"), SMALL)
    lat = Lattice(8, 8, SMALL)
    dense = frame_bounds(g, lat)
    monkeypatch.setattr(frames, "DENSE_BLOCK_MAX", 0)
    lanczos = frame_bounds(g, lat)
    assert (dense.method, lanczos.method) == ("block-dense", "iterative-lanczos")
    assert lanczos.A == pytest.approx(dense.A, rel=1e-10)
    assert lanczos.B == pytest.approx(dense.B, rel=1e-10)


@pytest.mark.parametrize("solve", [canonical_dual, canonical_tight])
def test_window_solve_builds_blocks_once(monkeypatch, grid, gaussian, solve):
    from gaborlab import frames

    calls = []
    build = frames.frame_operator_blocks
    monkeypatch.setattr(
        frames, "frame_operator_blocks", lambda *args: calls.append(1) or build(*args)
    )
    solve(gaussian, Lattice(32, 16, grid))
    assert len(calls) == 1
    with pytest.raises(NotAFrameError):
        solve(gaussian, Lattice(64, 32, grid))  # alpha * beta = 2
    assert len(calls) == 2


# Lattices with a < P = L/b, so the blocks repeat (block r of S is
# blocks[r % a]).  In the first and the last, a does not divide P and only
# gcd(a, P) < a blocks are eigensolved for the bounds.
REDUCED = [
    (SampleGrid(120, 1 / 10), 12, 4),  # P = 30, gcd = 6
    (SampleGrid(120, 1 / 10), 8, 3),  # P = 40
    (SampleGrid(120, 1 / 10), 15, 2),  # P = 60
    (SampleGrid(360, 1 / 12), 24, 10),  # P = 36, gcd = 12
]


@pytest.mark.parametrize("spec", [WindowSpec("gaussian"), WindowSpec("bspline", 3)])
@pytest.mark.parametrize("grid_, a, b", REDUCED)
def test_reduced_blocks_match_atom_sum(grid_, a, b, spec):
    from gaborlab import frame_operator_blocks

    lat = Lattice(a, b, grid_)
    g = sample_window(spec, grid_)
    atoms = np.array(
        [gabor_atom(g, lat, n, k).values for n in range(lat.n_time) for k in range(lat.n_freq)]
    )
    S_direct = grid_.delta * (atoms.T @ np.conj(atoms))
    assert np.max(np.abs(frame_matrix(g, lat) - S_direct)) < 1e-12
    eigs = np.linalg.eigvalsh(S_direct)
    rep = frame_bounds(g, lat)
    assert abs(rep.A - max(eigs[0], 0.0)) < 1e-13 * rep.B
    assert abs(rep.B - eigs[-1]) < 1e-13 * rep.B
    assert len(frame_operator_blocks(g, lat)) == min(a, lat.n_freq)


@pytest.mark.parametrize("spec", [WindowSpec("gaussian"), WindowSpec("bspline", 3)])
@pytest.mark.parametrize("grid_, a, b", REDUCED)
def test_reduced_blocks_tight_and_dual(grid_, a, b, spec):
    lat = Lattice(a, b, grid_)
    assert a < lat.n_freq
    g = sample_window(spec, grid_)
    rep = frame_bounds(canonical_tight(g, lat), lat)
    assert abs(rep.A - 1.0) < 1e-10 and abs(rep.B - 1.0) < 1e-10
    expected = np.linalg.solve(frame_matrix(g, lat), g.values)
    gd = canonical_dual(g, lat).values
    assert np.linalg.norm(gd - expected) < 1e-10 * np.linalg.norm(expected)


def test_frame_check_sees_every_block_spectrum():
    # g covers the sample residues 0, 1, 2 mod a = 4 but never 3.  With
    # gcd(a, P) = 2, block 0 (residues 0, 2) is well conditioned and block 1
    # (residues 1, 3) is singular, so the frame check must look past block 0.
    grid_ = SampleGrid(120, 1 / 10)
    v = np.zeros(grid_.L)
    v[:3] = 1.0
    g = Signal(grid_, v)
    lat = Lattice(4, 4, grid_)
    assert frame_bounds(g, lat).A < 1e-12
    for solve in (canonical_dual, canonical_tight):
        with pytest.raises(NotAFrameError):
            solve(g, lat)
