"""Phase-space transform: oracle match, isometry, inversion, covariance."""

import tracemalloc

import numpy as np
import pytest

from gaborlab import (
    GridMismatchError,
    NearOrthogonalPairError,
    PhaseSpaceField,
    SampleGrid,
    Signal,
    WindowSpec,
    inner,
    parse_window,
    sample_window,
    stft,
    stft_energy,
    stft_diagnostics,
    stft_invert,
    tf_shift,
)

from gaborlab.cli import run
from gaborlab.serialize import write_pgm_bytes

from conftest import random_signal

GRID = SampleGrid(256, 1 / 16)


@pytest.fixture(scope="module")
def g():
    return sample_window(WindowSpec("gaussian"), GRID).unit()


@pytest.fixture(scope="module")
def f(g):
    rng = np.random.default_rng(3)
    return random_signal(GRID, rng)


def test_values_match_direct_inner_products(f, g):
    # oracle: V[n, k] = <f, M_{xi_k} T_{x_n} g> via the shift operators
    V = stft(f, g)
    x, xi = GRID.x(), GRID.dual().x()
    for n in (0, 17, 128, 255):
        for k in (0, 40, 128, 230):
            direct = inner(f, tf_shift(g, (x[n], xi[k])))
            assert V.values[n, k] == pytest.approx(direct, abs=1e-12)


def test_peak_is_window_energy(g):
    V = stft(g, g)
    assert V.values[GRID.origin, GRID.origin].real == pytest.approx(1.0, abs=1e-12)


def test_zero_signal(g):
    z = Signal(GRID, np.zeros(GRID.L))
    assert np.all(stft(z, g).values == 0.0)
    assert stft_energy(stft(z, g)) == 0.0


def test_gaussian_ambiguity_law():
    g0 = sample_window(WindowSpec("gaussian"), GRID)  # e^{-pi x^2}, norm 2^{-1/4}
    V = stft(g0, g0)
    X = GRID.x()[:, None]
    XI = GRID.dual().x()[None, :]
    ref = (1 / np.sqrt(2)) * np.exp(-np.pi * (X**2 + XI**2) / 2)
    assert np.max(np.abs(np.abs(V.values) - ref)) < 1e-8


def test_isometry(f, g):
    V = stft(f, g)
    assert abs(stft_energy(V) - f.norm**2) / f.norm**2 < 1e-6
    # direct double-sum oracle: cell area times |V|^2 summed entrywise
    total = V.cell_area * np.sum(np.abs(V.values) ** 2)
    assert total == pytest.approx(f.norm**2, rel=1e-10)


def test_isometry_default_grid(unit_gaussian):
    V = stft(unit_gaussian, unit_gaussian)
    assert abs(stft_energy(V) - 1.0) < 1e-8


def test_inversion_same_window(f, g):
    V = stft(f, g)
    rec = stft_invert(V, g, g)
    err = Signal(GRID, rec.values - f.values).norm / f.norm
    assert err < 1e-6


def test_inversion_sech_pair():
    grid = SampleGrid(2048, 1 / 32)
    g = sample_window(WindowSpec("gaussian"), grid).unit()
    h = sample_window(WindowSpec("sech"), grid)
    rng = np.random.default_rng(5)
    f = random_signal(grid, rng)
    rec = stft_invert(stft(f, g), g, h)
    assert Signal(grid, rec.values - f.values).norm / f.norm < 1e-5


def test_inversion_zero(g):
    z = Signal(GRID, np.zeros(GRID.L))
    rec = stft_invert(stft(z, g), g, g)
    assert rec.norm == 0.0


def test_near_orthogonal_pair_rejected(f, g):
    V = stft(f, g)
    odd = Signal(GRID, GRID.x() * g.values)  # odd function: <g, odd> = 0
    with pytest.raises(NearOrthogonalPairError):
        stft_invert(V, g, odd)


@pytest.mark.parametrize(
    "grid", [SampleGrid(256, 1 / 8), SampleGrid(128, 1 / 16)], ids=["same-L", "other-L"]
)
def test_window_on_another_grid_rejected(f, grid):
    with pytest.raises(GridMismatchError):
        stft(f, sample_window(WindowSpec("gaussian"), grid))


def test_covariance_on_lattice_points(f, g):
    # shifting f by a whole number of phase-space cells shifts |V| circularly
    n_shift, k_shift = 24, 40
    a = n_shift * GRID.delta
    b = k_shift / GRID.T
    V0 = stft(f, g)
    V1 = stft(tf_shift(f, (a, b)), g)
    rolled = np.roll(np.roll(np.abs(V0.values), n_shift, axis=0), k_shift, axis=1)
    assert np.max(np.abs(np.abs(V1.values) - rolled)) < 1e-8


def test_indicator_window_inversion_relaxed():
    # discontinuous windows reconstruct too (exact synthesis), looser contract
    grid = SampleGrid(256, 1 / 16)
    g = sample_window(WindowSpec("indicator", 1.0), grid).unit()
    rng = np.random.default_rng(9)
    f = random_signal(grid, rng)
    rec = stft_invert(stft(f, g), g, g)
    assert Signal(grid, rec.values - f.values).norm / f.norm < 1e-3


def test_inversion_of_arbitrary_field():
    # V need not be an STFT: the inverse is the weighted sum of shifted atoms
    grid = SampleGrid(32, 1 / 4)
    g = sample_window(WindowSpec("gaussian"), grid).unit()
    h = sample_window(WindowSpec("sech"), grid, wrap_tol=1.0)
    rng = np.random.default_rng(11)
    V = PhaseSpaceField(grid, rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    x, xi = grid.x(), grid.dual().x()
    direct = sum(
        V.values[n, k] * tf_shift(h, (x[n], xi[k])).values for n in range(32) for k in range(32)
    )
    direct = (grid.delta / grid.T / inner(h, g)) * direct
    rec = stft_invert(V, g, h)
    assert np.max(np.abs(rec.values - direct)) < 1e-12


# j0 = L/2 is odd on these grids, so the centering signs (-1)^(j - j0) are
# not (-1)^j: a sign taken from the wrong origin fails here.
ODD_ORIGIN = [SampleGrid(54, 1 / 6), SampleGrid(18, 1 / 3)]


@pytest.mark.parametrize("grid", ODD_ORIGIN, ids=lambda gr: f"L{gr.L}")
def test_values_match_direct_inner_products_odd_origin(grid):
    g = sample_window(WindowSpec("gaussian"), grid, wrap_tol=1.0).unit()
    f = random_signal(grid, np.random.default_rng(13))
    V = stft(f, g)
    x, xi = grid.x(), grid.dual().x()
    direct = np.array(
        [[inner(f, tf_shift(g, (x[n], xi[k]))) for k in range(grid.L)] for n in range(grid.L)]
    )
    assert np.max(np.abs(V.values - direct)) < 1e-12


@pytest.mark.parametrize("grid", ODD_ORIGIN, ids=lambda gr: f"L{gr.L}")
def test_inversion_of_arbitrary_field_odd_origin(grid):
    L = grid.L
    g = sample_window(WindowSpec("gaussian"), grid, wrap_tol=1.0).unit()
    h = sample_window(WindowSpec("sech"), grid, wrap_tol=10.0)
    rng = np.random.default_rng(17)
    V = PhaseSpaceField(grid, rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)))
    x, xi = grid.x(), grid.dual().x()
    direct = sum(
        V.values[n, k] * tf_shift(h, (x[n], xi[k])).values for n in range(L) for k in range(L)
    )
    direct = (grid.delta / grid.T / inner(h, g)) * direct
    rec = stft_invert(V, g, h)
    assert np.max(np.abs(rec.values - direct)) < 1e-12


def test_transform_and_inversion_hold_one_field_copy():
    # peak traced memory in units of one L x L complex field
    grid = SampleGrid(512, 1 / 16)
    unit = grid.L**2 * 16
    g = sample_window(WindowSpec("gaussian"), grid).unit()
    f = random_signal(grid, np.random.default_rng(19))
    tracemalloc.start()
    try:
        V = stft(f, g)
        _, stft_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        stft_invert(V, g, g)
        _, invert_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stft_peak <= 1.25 * unit
    assert invert_peak - held <= 1.25 * unit


# L = 54 has an odd origin; L = 864 is not a power of two and ends in a partial block.
DIAGNOSTIC_GRIDS = [SampleGrid(2, 1 / 2), SampleGrid(54, 1 / 6), GRID, SampleGrid(864, 1 / 24)]


@pytest.mark.parametrize("grid", DIAGNOSTIC_GRIDS, ids=lambda gr: f"L{gr.L}")
@pytest.mark.parametrize("window", ["gaussian", "sech"])
def test_diagnostics_match_the_complex_field(grid, window):
    g = sample_window(WindowSpec(window), grid, wrap_tol=10.0).unit()
    f = random_signal(grid, np.random.default_rng(23), complex_values=False)
    energy, mag, rec = stft_diagnostics(f, g)
    V = stft(f, g)
    ref = np.abs(V.values)
    assert abs(energy - stft_energy(V)) <= 1e-14 * stft_energy(V)
    assert mag.shape == (grid.L, grid.L // 2 + 1)
    assert np.max(np.abs(mag - ref[:, : grid.L // 2 + 1])) <= 1e-14 * ref.max()
    assert np.linalg.norm(rec.values - stft_invert(V, g, g).values) <= 1e-14 * np.linalg.norm(
        f.values
    )
    assert mag[::-1].flags.c_contiguous  # the PGM row order is the memory order


@pytest.mark.parametrize("grid", DIAGNOSTIC_GRIDS, ids=lambda gr: f"L{gr.L}")
@pytest.mark.parametrize("window", ["gaussian", "sech"])
def test_magnitude_image_matches_the_full_plane(tmp_path, capsys, grid, window):
    # the half spectrum, quantized once and mirrored as pixels, against |V| on all L columns
    signal = "indicator:0.4"
    argv = ["stft", "--L", str(grid.L), "--delta", repr(grid.delta), "--window", window,
            "--signal-window", signal, "--wrap-tol", "10", "--no-cache", "--outdir", str(tmp_path)]
    assert run(argv) == 0
    capsys.readouterr()
    g = sample_window(WindowSpec(window), grid, wrap_tol=10.0).unit()
    f = sample_window(parse_window(signal), grid, wrap_tol=10.0)
    full = np.abs(stft(f, g).values)[::-1]
    expected = write_pgm_bytes(full, float(full.max()))
    assert (tmp_path / "stft_magnitude.pgm").read_bytes() == expected


def test_diagnostics_reject_complex_signals(f, g):
    real_f = Signal(GRID, f.values.real)
    with pytest.raises(ValueError):
        stft_diagnostics(f, g)
    with pytest.raises(ValueError):
        stft_diagnostics(real_f, Signal(GRID, g.values * np.exp(0.1j)))
    with pytest.raises(GridMismatchError):
        stft_diagnostics(real_f, sample_window(WindowSpec("gaussian"), SampleGrid(128, 1 / 16)))


def test_diagnostics_of_the_zero_window_rejected(f):
    with pytest.raises(NearOrthogonalPairError):
        stft_diagnostics(Signal(GRID, f.values.real), Signal(GRID, np.zeros(GRID.L)))


def test_diagnostics_hold_less_than_one_complex_field():
    # |V| is 8 L^2 bytes; stft + stft_invert hold about two 16 L^2 fields
    grid = SampleGrid(512, 1 / 16)
    g = sample_window(WindowSpec("gaussian"), grid).unit()
    f = random_signal(grid, np.random.default_rng(29), complex_values=False)
    tracemalloc.start()
    try:
        stft_diagnostics(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 16 * grid.L**2


def test_diagnostics_hold_the_half_spectrum():
    # the float64 columns k <= L/2 are about 4 L^2 bytes; the full plane was 8 L^2
    grid = SampleGrid(2048, 1 / 32)
    g = sample_window(WindowSpec("sech"), grid).unit()
    f = sample_window(WindowSpec("indicator", 1.5), grid)
    tracemalloc.start()
    try:
        stft_diagnostics(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 8 * grid.L**2
