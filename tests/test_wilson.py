"""Wilson systems: ONB at half redundancy, Parseval beyond, Zak criteria."""

import dataclasses

import numpy as np
import pytest

from gaborlab import (
    Lattice,
    SampleGrid,
    Signal,
    WindowSpec,
    build_wilson_classical,
    build_wilson_general,
    frame_bounds,
    make_wilson_window,
    sample_window,
    taper_wilson_window,
    wilson_onb_report,
    wilson_parseval_residual,
    zak_onb_criterion,
)
from gaborlab.wilson import _translation_period

GRID = SampleGrid(256, 1 / 16)


@pytest.fixture(scope="module")
def tight_half(grid):
    # unit-norm canonical tight window at (time 1/2, frequency 1), L = 1024
    return make_wilson_window(WindowSpec("gaussian"), 0.5, grid)


@pytest.fixture(scope="module")
def tight_half_small():
    return make_wilson_window(WindowSpec("gaussian"), 0.5, GRID)


def test_wilson_window_is_unit_and_tight(tight_half, grid):
    assert tight_half.norm == pytest.approx(1.0, abs=1e-12)
    lat = Lattice(16, 32, grid)  # time step 1/2, frequency step 1
    rep = frame_bounds(tight_half, lat)
    assert rep.B / rep.A - 1 < 1e-8
    assert rep.A == pytest.approx(2.0, rel=1e-8)  # redundancy 2, unit norm
    # the sqrt(beta)-scaled window generates a Parseval frame
    scaled = Signal(grid, np.sqrt(0.5) * tight_half.values)
    rep2 = frame_bounds(scaled, lat)
    assert abs(rep2.A - 1.0) < 1e-8 and abs(rep2.B - 1.0) < 1e-8


def test_already_tight_returned_up_to_scale(grid):
    t = taper_wilson_window(0.25, grid)
    again = make_wilson_window(t, 0.25, grid)
    ratio = again.values[np.abs(t.values) > 1e-9] / t.values[np.abs(t.values) > 1e-9]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10


def test_wilson_window_beta_quarter_parseval(grid):
    w = make_wilson_window(WindowSpec("gaussian"), 0.25, grid)
    lat = Lattice(8, 32, grid)
    scaled = Signal(grid, np.sqrt(0.25) * w.values)
    rep = frame_bounds(scaled, lat)
    assert abs(rep.A - 1.0) < 1e-8 and abs(rep.B - 1.0) < 1e-8


def test_classical_atoms_cos_sin_forms(tight_half_small):
    W = build_wilson_classical(tight_half_small)
    x = GRID.x()
    gv = tight_half_small.values
    by_index = {W.index[i]: W.atoms[i] for i in range(W.n_atoms)}
    for j, m in [(0, 1), (1, 1), (2, 3), (5, 2)]:
        shifted = np.roll(gv, (j * int(1 / (2 * GRID.delta))) % GRID.L)
        if (j + m) % 2 == 0:
            ref = np.sqrt(2) * np.cos(2 * np.pi * m * x) * shifted
        else:
            ref = np.sqrt(2) * np.sin(2 * np.pi * m * x) * shifted
        assert np.max(np.abs(by_index[(j, m)] - ref)) < 1e-12


def test_classical_atoms_are_two_gabor_combinations(tight_half_small):
    # each cos/sin atom is an explicit 2-term combination of M_{+-m} T_{j/2} g
    W = build_wilson_classical(tight_half_small)
    x = GRID.x()
    gv = tight_half_small.values
    by_index = {W.index[i]: W.atoms[i] for i in range(W.n_atoms)}
    for j, m in [(0, 2), (3, 1)]:
        shifted = np.roll(gv, (j * int(1 / (2 * GRID.delta))) % GRID.L)
        plus = np.exp(2j * np.pi * m * x) * shifted
        minus = np.exp(-2j * np.pi * m * x) * shifted
        if (j + m) % 2 == 0:
            combo = (plus + minus) / np.sqrt(2)
        else:
            combo = (plus - minus) / (1j * np.sqrt(2))
        assert np.max(np.abs(by_index[(j, m)] - combo)) < 1e-12


def test_classical_realness(tight_half_small):
    W = build_wilson_classical(tight_half_small)
    assert np.max(np.abs(W.atoms.imag)) < 1e-12


def test_classical_completeness_count(tight_half_small):
    W = build_wilson_classical(tight_half_small)
    assert W.n_atoms == GRID.L


def test_classical_onb(tight_half_small):
    W = build_wilson_classical(tight_half_small)
    rep = wilson_onb_report(W)
    assert rep.is_onb
    assert rep.max_gram_deviation < 1e-8
    assert wilson_parseval_residual(W) < 1e-8


def test_atom_norm_expansion(tight_half_small):
    # ||psi_{j,m}||^2 = ||g||^2 + (-1)^{j+m} Re <M_{2m} g, g> for the
    # normalized two-term combination
    from gaborlab import inner, modulate

    g = tight_half_small
    W = build_wilson_classical(g)
    by_index = {W.index[i]: W.atoms[i] for i in range(W.n_atoms)}
    for j, m in [(0, 1), (1, 2), (4, 3)]:
        atom = Signal(GRID, by_index[(j, m)])
        sign = 1.0 if (j + m) % 2 == 0 else -1.0
        pred = g.norm**2 + sign * inner(modulate(g, 2 * m), g).real
        assert atom.norm**2 == pytest.approx(pred, abs=1e-12)


def test_scaled_window_breaks_onb(tight_half_small):
    doubled = Signal(GRID, 2.0 * tight_half_small.values)
    W = build_wilson_classical(doubled)
    rep = wilson_onb_report(W)
    assert not rep.is_onb
    assert rep.max_unit_norm_defect == pytest.approx(3.0, rel=1e-10)  # norms scale by 4
    # rescaling the atoms by 1/2 restores Parseval
    Whalf = build_wilson_classical(tight_half_small)
    assert wilson_parseval_residual(Whalf) < 1e-8


def test_general_beta_half_matches_classical_magnitudes(tight_half_small):
    Wc = build_wilson_classical(tight_half_small)
    Wg = build_wilson_general(tight_half_small, 0.5)
    assert Wg.n_atoms == Wc.n_atoms
    mc = {Wc.index[i]: Wc.atoms[i] for i in range(Wc.n_atoms)}
    mg = {Wg.index[i]: Wg.atoms[i] for i in range(Wg.n_atoms)}
    worst = 0.0
    nyq = max(m for _, m in Wc.index)
    for (j, m), atom in mc.items():
        if 1 <= m < nyq:  # middle rows share the (j, m) indexing
            worst = max(worst, float(np.max(np.abs(np.abs(atom) - np.abs(mg[(j, m)])))))
    assert worst < 1e-10
    assert wilson_parseval_residual(Wg) < 1e-8


def test_general_m0_atoms_are_plain_translates(tight_half_small):
    W = build_wilson_general(tight_half_small, 0.25)
    gv = tight_half_small.values
    first = W.atoms[0]
    assert np.max(np.abs(first - np.sqrt(0.5) * gv)) < 1e-14
    atom_norm = Signal(GRID, first).norm
    assert atom_norm == pytest.approx(np.sqrt(2 * 0.25) * tight_half_small.norm, abs=1e-12)


@pytest.mark.parametrize(
    "beta,L,delta_inv",
    [(0.25, 256, 16), (1 / 3, 1152, 36), (0.25, 1024, 32)],
)
def test_taper_windows_realize_general_parseval(beta, L, delta_inv):
    grid = SampleGrid(L, 1.0 / delta_inv)
    t = taper_wilson_window(beta, grid)
    # the taper's Gabor system is exactly Parseval before normalization
    lat = Lattice(int(round(beta / grid.delta)), int(round(grid.T)), grid)
    rep = frame_bounds(t, lat)
    assert abs(rep.A - 1.0) < 1e-12 and abs(rep.B - 1.0) < 1e-12
    W = build_wilson_general(t.unit(), beta)
    assert wilson_parseval_residual(W) < 1e-8
    assert W.n_atoms == round(L / (2 * beta))


def test_taper_parseval_without_onb():
    grid = SampleGrid(256, 1 / 16)
    W = build_wilson_general(taper_wilson_window(0.25, grid).unit(), 0.25)
    rep = wilson_onb_report(W)
    assert wilson_parseval_residual(W) < 1e-8
    assert rep.max_unit_norm_defect > 0.1  # Parseval but not orthonormal


def test_tightness_alone_insufficient_below_half():
    # the generalized equivalence is an existence statement: a canonical
    # tight window without the quarter-support structure fails Parseval
    w = make_wilson_window(WindowSpec("gaussian"), 0.25, GRID)
    lat = Lattice(4, 16, GRID)
    rep = frame_bounds(Signal(GRID, np.sqrt(0.25) * w.values), lat)
    assert abs(rep.A - 1.0) < 1e-8  # the Gabor side is Parseval
    W = build_wilson_general(w, 0.25)
    assert wilson_parseval_residual(W) > 1e-3  # the Wilson side is not


def test_non_tight_input_fails_both(grid):
    graw = sample_window(WindowSpec("gaussian"), grid).unit()
    Wc = build_wilson_classical(graw)
    assert wilson_parseval_residual(Wc) > 0.01
    assert not wilson_onb_report(Wc).is_onb


def test_zak_onb_criterion(tight_half, grid):
    rep = zak_onb_criterion(tight_half)
    assert rep.deviation < 1e-6
    raw = sample_window(WindowSpec("gaussian"), grid).unit()
    assert zak_onb_criterion(raw).deviation > 0.01


def test_zak_onb_modulation_invariance(tight_half, grid):
    from gaborlab import modulate

    rep = zak_onb_criterion(tight_half)
    rep2 = zak_onb_criterion(modulate(tight_half, 1.0))
    assert rep2.value_min == pytest.approx(rep.value_min, abs=1e-12)
    assert rep2.value_max == pytest.approx(rep.value_max, abs=1e-12)


def test_gabor_wilson_equivalence_both_directions(grid):
    # tight <=> Wilson-Parseval, tested with tight and non-tight inputs
    for window, tight in [
        (make_wilson_window(WindowSpec("gaussian"), 0.5, grid), True),
        (sample_window(WindowSpec("gaussian"), grid).unit(), False),
    ]:
        lat = Lattice(16, 32, grid)
        scaled = Signal(grid, np.sqrt(0.5) * window.values)
        rep = frame_bounds(scaled, lat)
        gabor_parseval = abs(rep.A - 1) < 1e-8 and abs(rep.B - 1) < 1e-8
        wilson_parseval = wilson_parseval_residual(build_wilson_classical(window)) < 1e-8
        assert gabor_parseval == tight
        assert wilson_parseval == tight


def test_tight_window_exponential_decay(grid):
    # canonical tight windows of the gaussian decay exponentially (rate
    # about 1.6 per unit), far slower than the gaussian itself
    w = make_wilson_window(WindowSpec("gaussian"), 0.5, grid)
    x = grid.x()
    env = [float(np.max(np.abs(w.values[np.abs(x) > R]))) for R in (4, 6, 8, 10, 12, 14)]
    assert all(a > b for a, b in zip(env, env[1:]))  # strictly decaying envelope
    ratios = [env[i] / env[i + 1] for i in range(len(env) - 1)]
    assert min(ratios) > 5.0  # at least geometric decay per 2 units
    assert env[-1] < 1e-10  # below 1e-10 outside |x| > 14


def test_unrepresentable_beta_rejected(grid):
    with pytest.raises(ValueError):
        build_wilson_general(make_wilson_window(WindowSpec("gaussian"), 0.5, grid), 11 / 32)
    with pytest.raises(ValueError):
        make_wilson_window(WindowSpec("gaussian"), 1 / 3, grid)  # 1/3 not on this grid


# Per-atom reference builders: one np.roll and one append per atom.


def _classical_per_atom(g):
    grid = g.grid
    half = int(round(1.0 / (2.0 * grid.delta)))
    T = int(round(grid.T))
    x, gv = grid.x(), g.values
    atoms, index = [], []
    for j in range(T):
        atoms.append(np.roll(gv, (j * 2 * half) % grid.L))
        index.append((j, 0))
    for m in range(1, half):
        cosm = np.sqrt(2.0) * np.cos(2 * np.pi * m * x)
        sinm = np.sqrt(2.0) * np.sin(2 * np.pi * m * x)
        for j in range(2 * T):
            carrier = cosm if (j + m) % 2 == 0 else sinm
            atoms.append(carrier * np.roll(gv, (j * half) % grid.L))
            index.append((j, m))
    nyq_carrier = np.cos(2 * np.pi * half * x)
    for j in range(half % 2, 2 * T, 2):
        atoms.append(nyq_carrier * np.roll(gv, (j * half) % grid.L))
        index.append((j, half))
    return np.asarray(atoms), tuple(index)


def _general_per_atom(g, beta):
    grid = g.grid
    s = int(round(beta / grid.delta))
    J = int(round(grid.T / beta))
    nyq = int(round(1.0 / (2.0 * grid.delta)))
    x, gv = grid.x(), g.values
    atoms, index = [], []
    for j in range(J // 2):
        atoms.append(np.sqrt(2 * beta) * np.roll(gv, (2 * j * s) % grid.L))
        index.append((j, 0))
    for m in range(1, nyq):
        plus = np.exp(2j * np.pi * m * x)
        for j in range(J):
            w = np.exp(-2j * np.pi * beta * j * m)
            sgn = 1.0 if (j + m) % 2 == 0 else -1.0
            shifted = np.roll(gv, (j * s) % grid.L)
            atoms.append(np.sqrt(beta) * (w * plus + sgn * np.conj(w) * np.conj(plus)) * shifted)
            index.append((j, m))
    nyq_carrier = np.exp(2j * np.pi * nyq * x)
    for j in range(nyq % 2, J, 2):
        atoms.append(np.sqrt(2 * beta) * nyq_carrier * np.roll(gv, (j * s) % grid.L))
        index.append((j, nyq))
    return np.asarray(atoms), tuple(index)


def test_classical_blocks_equal_per_atom_build(tight_half_small):
    W = build_wilson_classical(tight_half_small)
    atoms, index = _classical_per_atom(tight_half_small)
    assert W.atoms.dtype == atoms.dtype
    assert np.array_equal(W.atoms, atoms)
    assert W.index == index


@pytest.mark.parametrize("beta,L,delta_inv", [(0.25, 256, 16), (0.375, 768, 16), (0.5, 256, 16)])
def test_general_blocks_equal_per_atom_build(beta, L, delta_inv):
    grid = SampleGrid(L, 1.0 / delta_inv)
    w = make_wilson_window(WindowSpec("gaussian"), beta, grid)
    W = build_wilson_general(w, beta)
    atoms, index = _general_per_atom(w, beta)
    assert W.atoms.dtype == atoms.dtype
    assert np.array_equal(W.atoms, atoms)
    assert W.index == index


# Dense references: the L x L frame operator and the n x n Gram matrix.


def _dense_parseval_residual(W):
    Psi = W.atoms
    M = W.grid.delta * (Psi.T @ np.conj(Psi))
    M[np.diag_indices_from(M)] -= 1.0
    return float(np.max(np.abs(np.linalg.eigvalsh((M + M.conj().T) / 2.0))))


def _dense_onb(W):
    gram = W.grid.delta * (W.atoms @ np.conj(W.atoms.T))
    deviation = float(np.max(np.abs(gram - np.eye(W.n_atoms))))
    return deviation, float(np.max(np.abs(np.diagonal(gram) - 1.0)))


def _window(kind, beta, grid):
    if kind == "tight":
        return make_wilson_window(WindowSpec("gaussian"), beta, grid)
    if kind == "taper":
        return taper_wilson_window(beta, grid).unit()
    return sample_window(WindowSpec("gaussian"), grid).unit()


# (variant, beta, L, 1/delta): translation periods s of 8, 8, 8, 24 and 48 samples
PERIODIC_CASES = [
    ("classical", 0.5, 128, 8),
    ("general", 0.5, 128, 8),
    ("general", 0.25, 128, 8),
    ("general", 1 / 3, 96, 12),
    ("general", 0.375, 192, 16),
]


@pytest.mark.parametrize(
    "variant,beta,L,delta_inv,kind",
    [(*case, kind) for case in PERIODIC_CASES for kind in ("tight", "taper", "raw")
     if kind != "taper" or case[1] < 0.5],  # the taper window needs beta < 1/2
)
def test_residuals_match_dense_references(variant, beta, L, delta_inv, kind):
    grid = SampleGrid(L, 1.0 / delta_inv)
    w = _window(kind, beta, grid)
    W = build_wilson_classical(w) if variant == "classical" else build_wilson_general(w, beta)
    assert _translation_period(W)[1] < L  # more than one block
    assert abs(wilson_parseval_residual(W) - _dense_parseval_residual(W)) < 1e-12
    rep = wilson_onb_report(W)
    gram_dev, unit_defect = _dense_onb(W)
    assert abs(rep.max_gram_deviation - gram_dev) < 1e-12
    assert abs(rep.max_unit_norm_defect - unit_defect) < 1e-12
    norms2 = grid.delta * np.linalg.norm(W.atoms, axis=1) ** 2
    assert rep.max_unit_norm_defect == pytest.approx(np.max(np.abs(norms2 - 1.0)), abs=1e-14)


def test_unit_norm_defect_reads_every_atom(tight_half_small):
    # the Gram rows cover only atoms with j < k; a far atom off unit norm must still show
    W = build_wilson_classical(tight_half_small)
    atoms = W.atoms.copy()
    atoms[-1] *= 1.01
    rep = wilson_onb_report(dataclasses.replace(W, atoms=atoms))
    norms2 = GRID.delta * np.linalg.norm(atoms, axis=1) ** 2
    assert rep.max_unit_norm_defect == pytest.approx(np.max(np.abs(norms2 - 1.0)), abs=1e-14)
    assert rep.max_gram_deviation >= rep.max_unit_norm_defect > 0.02


@pytest.mark.parametrize("variant,beta,L,delta_inv", PERIODIC_CASES)
def test_translation_by_s_samples_moves_atoms_k_translates_on(variant, beta, L, delta_inv):
    # k is the smallest even k with beta k an integer, and s = k beta / delta samples
    grid = SampleGrid(L, 1.0 / delta_inv)
    w = _window("raw", beta, grid)
    W = build_wilson_classical(w) if variant == "classical" else build_wilson_general(w, beta)
    k, s = _translation_period(W)
    assert k % 2 == 0 and abs(beta * k - round(beta * k)) < 1e-12
    assert all(kk % 2 or abs(beta * kk - round(beta * kk)) > 1e-12 for kk in range(1, k))
    assert s == round(k * beta * delta_inv)
    J = round(grid.T / beta)
    row = {jm: i for i, jm in enumerate(W.index)}
    moved = np.roll(W.atoms, s, axis=1)
    for i, (j, m) in enumerate(W.index):
        # the m = 0 block sits at translates 2 j beta
        target = ((j + k // 2) % (J // 2), 0) if m == 0 else ((j + k) % J, m)
        assert np.max(np.abs(moved[i] - W.atoms[row[target]])) < 1e-12


def test_non_integer_period_takes_one_block():
    # T = 4.5: the carriers are not covariant across the wrap, so s = L
    grid = SampleGrid(72, 1 / 16)
    W = build_wilson_general(sample_window(WindowSpec("gaussian"), grid, wrap_tol=1e-6), 0.25)
    assert _translation_period(W) == (18, 72)
    assert abs(wilson_parseval_residual(W) - _dense_parseval_residual(W)) < 1e-12
    rep = wilson_onb_report(W)
    gram_dev, unit_defect = _dense_onb(W)
    assert abs(rep.max_gram_deviation - gram_dev) < 1e-12
    assert abs(rep.max_unit_norm_defect - unit_defect) < 1e-12
