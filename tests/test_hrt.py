"""Time-frequency independence experiments: Gramians and the extension field."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborlab import (
    Configuration,
    SampleGrid,
    Signal,
    WindowSpec,
    classify_configuration,
    extension_field,
    extension_integral,
    far_field_radius,
    gramian,
    independence_probe,
    normalize_configuration,
    sample_window,
    schur_identity_check,
    tf_shift,
    translate,
)
from gaborlab import hrt
from gaborlab.hrt import InsufficientCoverageError

GRID = SampleGrid(1024, 1 / 32)


@pytest.fixture(scope="module")
def g():
    return sample_window(WindowSpec("gaussian"), GRID).unit()


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        Configuration(((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError):
        Configuration(((0.0, 0.0), (1e-15, 0.0)))  # identical after rounding


def test_single_point_gramian(g):
    rep = gramian(g, Configuration(((0.3, -0.7),)))
    assert rep.G.shape == (1, 1)
    assert rep.G[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_gramian_matches_ambiguity_oracle(g):
    # oracle: |<g, M_1 g>| = e^{-pi/2} for the unit gaussian
    rep = gramian(g, Configuration(((0.0, 0.0), (0.0, 1.0))))
    assert abs(rep.G[0, 1]) == pytest.approx(math.exp(-math.pi / 2), abs=1e-12)
    assert rep.G[0, 0].real == pytest.approx(1.0, abs=1e-12)


def _gaussian_gram(p, q):
    """Closed form <pi(p_k) g, pi(q_l) g> for the unit Gaussian g(x) = 2^(1/4) e^(-pi x^2).

    With pi(a, b) = M_b T_a it is e^(pi i db (a_k + a_l)) e^(-pi (da^2 + db^2) / 2),
    where (da, db) = p_k - q_l.
    """
    p, q = np.asarray(p, dtype=float)[:, None, :], np.asarray(q, dtype=float)[None, :, :]
    da, db = np.moveaxis(p - q, -1, 0)
    return np.exp(1j * np.pi * db * (p[..., 0] + q[..., 0]) - np.pi * (da**2 + db**2) / 2.0)


def _random_sets(rng, count=20, size=5):
    return [Configuration(tuple(map(tuple, rng.uniform(-2, 2, size=(size, 2)))))
            for _ in range(count)]


def test_gramian_matches_closed_form_gaussian(g, rng):
    for cfg in _random_sets(rng):
        G = _gaussian_gram(cfg.points, cfg.points)
        rep = gramian(g, cfg)
        assert np.max(np.abs(rep.G - G)) <= 1e-13
        assert np.max(np.abs(rep.eigenvalues - np.linalg.eigvalsh(G))) <= 1e-13


def test_independence_probe_matches_closed_form_gaussian(g, rng):
    for cfg in _random_sets(rng):
        G = _gaussian_gram(cfg.points, cfg.points)
        probe = independence_probe(g, cfg)
        assert np.max(np.abs(probe.gram.G - G)) <= 1e-13
        # || sum_k c_k pi(p_k) g ||^2 = c^H conj(G) c, the smallest eigenvalue of G
        c = probe.witness
        energy = float(np.real(np.conj(c) @ np.conj(G) @ c))
        assert abs(probe.residual**2 - energy) <= 1e-13
        assert abs(energy - np.linalg.eigvalsh(G)[0]) <= 1e-13


def test_schur_identity_matches_closed_form_gaussian(g, rng):
    for cfg in _random_sets(rng, size=4):
        base, point = Configuration(cfg.points[:3]), cfg.points[3]
        G = _gaussian_gram(cfg.points, cfg.points)
        A, u = G[:3, :3], G[:3, 3]
        F = float(np.real(np.conj(u) @ np.linalg.solve(A, u)))
        detG, detA = np.linalg.det(G).real, np.linalg.det(A).real
        closed = abs(detG - (1.0 - F) * detA) / abs(detA)
        assert abs(schur_identity_check(g, base, point) - closed) <= 1e-13


@pytest.mark.parametrize(
    "base", [((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)), ((1.0, 1.0), (1.0, 2.5), (2.3, 0.6))]
)
def test_extension_field_matches_closed_form_gaussian(g, base):
    ext = extension_field(g, Configuration(base), domain=(-6.0, 6.0), resolution=64)
    A = _gaussian_gram(ext.base.points, ext.base.points)
    assert np.max(np.abs(ext.base_gram - A)) <= 1e-13
    # u[k, (i, j)] = <pi(p_k) g, pi(a_j, b_i) g>, and F = u^H A^(-1) u
    a, b = np.meshgrid(ext.a_grid, ext.b_grid)
    u = _gaussian_gram(ext.base.points, np.column_stack([a.ravel(), b.ravel()]))
    F = np.einsum("kn,kl,ln->n", np.conj(u), np.linalg.inv(A), u).real.reshape(a.shape)
    assert np.max(np.abs(ext.F - F)) <= 1e-13


def test_three_point_independent(g):
    rep = gramian(g, Configuration(((0, 0), (0, 1), (1, 0))))
    assert rep.eigenvalues[0] > 0.2
    assert rep.independent


def test_gramian_psd_and_diagonal(g, rng):
    for _ in range(5):
        pts = tuple(map(tuple, rng.uniform(-2, 2, size=(4, 2))))
        rep = gramian(g, Configuration(pts))
        assert rep.eigenvalues[0] > -1e-10 * abs(rep.eigenvalues[-1])
        assert np.allclose(np.diagonal(rep.G).real, 1.0, atol=1e-12)


def test_phase_invariance(g):
    cfg = Configuration(((0, 0), (0.4, 0.9), (1.2, -0.3)))
    rep = gramian(g, cfg)
    rotated = Signal(GRID, np.exp(1j * 0.77) * g.values)
    rep2 = gramian(rotated, cfg)
    assert np.max(np.abs(rep.G - rep2.G)) < 1e-12
    assert np.max(np.abs(rep.eigenvalues - rep2.eigenvalues)) < 1e-12


def test_rayleigh_witness_identity(g, rng):
    for _ in range(5):
        pts = tuple(map(tuple, rng.uniform(-1.5, 1.5, size=(5, 2))))
        probe = independence_probe(g, Configuration(pts))
        assert probe.rayleigh_gap < 1e-10


def test_question_sets_well_conditioned(g):
    s2 = math.sqrt(2)
    s3 = math.sqrt(3)
    for last in ((s2, s2), (s2, s3)):
        cfg = Configuration(((0, 0), (0, 1), (1, 0), last))
        rep = gramian(g, cfg)
        assert rep.eigenvalues[0] > 1e-3


def test_question_sets_refinement_drift(g):
    fine = SampleGrid(2048, 1 / 64)
    gf = sample_window(WindowSpec("gaussian"), fine).unit()
    s2 = math.sqrt(2)
    cfg = Configuration(((0, 0), (0, 1), (1, 0), (s2, s2)))
    coarse_eig = gramian(g, cfg).eigenvalues[0]
    fine_eig = gramian(gf, cfg).eigenvalues[0]
    assert abs(fine_eig - coarse_eig) / coarse_eig < 0.10


def test_hermite_window_independent(rng):
    # polynomial times gaussian: a classical independence family
    x = GRID.x()
    h = Signal(GRID, (x**3 - 1.5 * x) * np.exp(-np.pi * x**2)).unit()
    pts = tuple(map(tuple, rng.uniform(-1.5, 1.5, size=(6, 2))))
    rep = gramian(h, Configuration(pts))
    assert rep.independent


def test_classify_two_two_and_lattice():
    cfg = Configuration(((0, 0), (0, 1), (1, 0), (1, 1)))
    labels = classify_configuration(cfg, lattice_matrix=np.eye(2))
    assert "two_two" in labels
    assert "lattice_subset" in labels
    assert "one_three" not in labels


def test_classify_translated_lattice_subset():
    # the lattice translate is taken through the first point
    cfg = Configuration(((0.5, 0.25), (0.5, 1.25), (2.5, 0.25), (-0.5, 3.25)))
    assert "lattice_subset" in classify_configuration(cfg, lattice_matrix=np.eye(2))
    off = Configuration(((0.5, 0.25), (0.5, 1.25), (2.5, 0.5)))
    assert "lattice_subset" not in classify_configuration(off, lattice_matrix=np.eye(2))


def test_classify_one_three_with_equispaced_part():
    cfg = Configuration(((0, 0), (1, 0), (2, 0), (0.5, 1)))
    labels = classify_configuration(cfg)
    assert "one_three" in labels
    assert "collinear_equispaced_plus_one" in labels
    assert "two_two" not in labels


def test_classify_symmetric_three_two():
    for a, b in [(1.0, 1.0), (0.8, 0.35)]:
        cfg = Configuration(((0, 0), (0, 1), (0, -1), (a, b), (a, -b)))
        assert "symmetric_three_two" in classify_configuration(cfg)


def test_classify_collinear():
    cfg = Configuration(((0, 0), (1, 0.5), (2, 1.0), (4, 2.0)))
    assert "collinear" in classify_configuration(cfg)


LABELLED_SHAPES = [
    (((0, 0), (0, 1), (1, 0), (1, 1)), True, ["two_two", "lattice_subset"]),
    (((0.5, 0.25), (0.5, 1.25), (2.5, 0.25), (-0.5, 3.25)), True, ["lattice_subset"]),
    (((0, 0), (1, 0), (2, 0), (0.5, 1)), False, ["collinear_equispaced_plus_one", "one_three"]),
    (((0, 0), (1, 0), (2, 0), (3, 0), (1.5, 2)), False, ["collinear_equispaced_plus_one"]),
    (((0, 0), (0, 1), (0, -1), (0.8, 0.35), (0.8, -0.35)), False, ["symmetric_three_two"]),
    (((0, 0), (1, 0.5), (2, 1.0), (4, 2.0)), False, ["collinear"]),
]


@pytest.mark.parametrize("k", [-30, -24, -16, 0, 8])
@pytest.mark.parametrize("points, with_lattice, labels", LABELLED_SHAPES)
def test_labels_survive_quarter_turn_and_binary_scaling(points, with_lattice, labels, k):
    # a quarter turn and a power of two keep every coordinate exact
    M = 2.0**k * np.array([[0.0, -1.0], [1.0, 0.0]])
    cfg = Configuration(tuple(map(tuple, np.asarray(points, dtype=float) @ M.T)))
    assert classify_configuration(cfg, lattice_matrix=M if with_lattice else None) == labels


def test_labels_of_a_tiny_shape_are_its_unit_labels():
    # the label tolerance is relative: a point 1e-9 off the line of a shape
    # 1e-7 across is as far off it as 0.02 is at unit size
    unit = Configuration(((0, 0), (1, 0), (2, 0), (1, 0.02)))
    tiny = Configuration(tuple((5e-8 * a, 5e-8 * b) for a, b in unit.points))
    labels = ["collinear_equispaced_plus_one", "one_three"]
    assert classify_configuration(unit) == labels
    assert classify_configuration(tiny) == labels


def test_normalize_identity_when_already_normal():
    cfg = Configuration(((0, 0), (0, 1), (2.5, 0), (3, 4)))
    out, rec = normalize_configuration(cfg)
    assert out.points == cfg.points
    assert rec.scale == 1.0
    assert np.array_equal(rec.matrix, np.eye(2))


def test_normalize_pure_translation():
    out, rec = normalize_configuration(Configuration(((1, 1), (1, 2), (2, 1))))
    assert set(out.points) == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)}
    assert rec.offset == (1.0, 1.0) and rec.scale == 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([-24, -16, 0, 8]))
def test_normalize_random_triples(seed, k):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(3, 2)) * 2.0
    v = pts[1] - pts[0]
    w = pts[2] - pts[0]
    if abs(v[0] * w[1] - v[1] * w[0]) < 1e-6:
        return  # skip near-degenerate draws
    pts = pts * 2.0**k
    cfg = Configuration(tuple(map(tuple, pts)))
    out, rec = normalize_configuration(cfg)
    arr = out.array()
    assert abs(np.linalg.det(rec.matrix) - 1.0) < 1e-10
    assert np.max(np.abs(rec.apply(pts) - arr)) < 1e-12
    has_origin = np.any(np.all(np.abs(arr) < 1e-9, axis=1))
    has_01 = np.any((np.abs(arr[:, 0]) < 1e-9) & (np.abs(arr[:, 1] - 1) < 1e-9))
    has_a0 = np.any((np.abs(arr[:, 1]) < 1e-9) & (np.abs(arr[:, 0]) > 1e-9))
    assert has_origin and has_01 and has_a0


def test_normalize_collinear_rejected():
    with pytest.raises(ValueError):
        normalize_configuration(Configuration(((0, 0), (1, 1), (2, 2))))


BASE = Configuration(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))


@pytest.fixture(scope="module")
def field(g):
    return extension_field(g, BASE, domain=(-6, 6), resolution=120)


def test_extension_field_range(field):
    assert field.F.min() >= 0.0
    assert field.F.max() <= 1.0 + 1e-10


def test_extension_field_one_at_base_points(g):
    # exact evaluation at the base points via the bordered Gramian route
    for p in BASE.points:
        res = schur_identity_check(g, BASE, p)
        assert res < 1e-10  # det G = 0 and F = 1 consistently
    small = extension_field(g, BASE, domain=(-2.0, 2.0), resolution=8)
    # the Schur identity is the sharper statement; grid values near base
    # points approach 1 from below
    assert small.F.max() <= 1.0 + 1e-10


def test_extension_integral_is_base_size(field):
    val = extension_integral(field)
    assert abs(val - 3.0) / 3.0 < 0.02


def test_extension_integral_domain_stability(g, field):
    bigger = extension_field(g, BASE, domain=(-12, 12), resolution=240)
    v1 = extension_integral(field)
    v2 = extension_integral(bigger)
    assert abs(v2 - v1) / v1 < 0.005


def test_extension_coverage_guard(g):
    tiny = extension_field(g, BASE, domain=(-1.5, 1.5), resolution=24)
    with pytest.raises(InsufficientCoverageError):
        extension_integral(tiny)


@pytest.mark.parametrize("domain", [(10.0, 10.0), (2.0, -2.0)])
def test_extension_field_rejects_empty_domain(g, domain):
    # an empty domain would give a field of cell area 0 and an integral of 0, not 3
    with pytest.raises(ValueError, match="domain needs lo < hi"):
        extension_field(g, BASE, domain=domain, resolution=8)


# GRID has T/2 = 16 and 1/(2 delta) = 16: shifts that far apart alias on it
@pytest.mark.parametrize(
    "points",
    [((0.0, 0.0), (0.0, 32.0)), ((0.0, 0.0), (32.0, 0.0)), ((-8.0, 0.0), (1.0, 1.0), (8.0, 2.0))],
)
def test_points_the_grid_aliases_are_rejected(g, points):
    config = Configuration(points)
    for probe in (gramian, independence_probe):
        with pytest.raises(ValueError, match="alias"):
            probe(g, config)


def test_points_just_inside_the_alias_bounds_stay_independent(g):
    rep = gramian(g, Configuration(((0.0, 0.0), (15.9, 0.0), (0.0, 15.9))))
    assert rep.independent
    assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)


def test_extension_domain_reaching_the_alias_bound_is_rejected(g):
    with pytest.raises(ValueError, match="alias"):
        extension_field(g, BASE, domain=(-40.0, 40.0), resolution=160)
    with pytest.raises(ValueError, match="alias"):
        extension_field(g, BASE, domain=(0.0, 32.1), resolution=2)  # centres 8.025 and 24.075
    # the existing checks still come first, with their messages
    with pytest.raises(ValueError, match="resolution must be at least 2"):
        extension_field(g, BASE, domain=(-40.0, 40.0), resolution=1)
    collinear = Configuration(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
    with pytest.raises(ValueError, match="collinear"):
        extension_field(g, collinear, domain=(-40.0, 40.0), resolution=8)


def test_far_field_decay(field):
    # envelope of F over growing radii decreases toward zero
    radii = [2.0, 3.0, 4.0, 5.0]
    A, B = np.meshgrid(field.a_grid, field.b_grid)
    R = np.hypot(A, B)
    env = [float(field.F[R > r].max()) for r in radii]
    assert all(a > b for a, b in zip(env, env[1:]))
    assert env[-1] < 1e-4
    assert far_field_radius(field, 1e-4) < 5.0


def test_extension_field_normalizes_base(g, field):
    shifted_base = Configuration(((1.0, 1.0), (1.0, 2.0), (2.0, 1.0)))
    f2 = extension_field(g, shifted_base, domain=(-4, 4), resolution=48)
    assert f2.normalization.offset == (1.0, 1.0)
    assert set(f2.base.points) == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)}
    # an already normal base keeps its points under the identity record
    assert field.base == BASE
    assert np.array_equal(field.normalization.matrix, np.eye(2))
    assert field.normalization.scale == 1.0 and field.normalization.offset == (0.0, 0.0)


def _extension_per_column(g, base, domain, resolution):
    """F and the base Gramian with one (n_b x L) matrix-vector product per (column, point)."""
    g = g.unit()
    fam = np.asarray([tf_shift(g, p).values for p in base.points])
    A = g.grid.delta * (fam @ np.conj(fam.T))
    A = (A + A.conj().T) / 2.0
    a_grid = domain[0] + (domain[1] - domain[0]) * (np.arange(resolution) + 0.5) / resolution
    E = np.exp(-2j * np.pi * np.outer(a_grid, g.grid.x()))
    U = np.empty((3, resolution, resolution), dtype=np.complex128)
    for ja, a in enumerate(a_grid):
        shifted = translate(g, a).values
        for k in range(3):
            U[k, :, ja] = g.grid.delta * (E @ (fam[k] * np.conj(shifted)))
    F = np.einsum("kij,kl,lij->ij", np.conj(U), np.linalg.inv(A), U).real
    return F, A


@pytest.mark.parametrize("base", [BASE, Configuration(((0.0, 0.0), (0.0, 1.0), (0.37, 0.0)))])
def test_extension_field_matches_per_column_build(g, base):
    # fractional a-shifts (0.37 and most grid columns) take the DFT-ramp path of translate
    F, A = _extension_per_column(g, base, (-6.0, 6.0), 60)
    ext = extension_field(g, base, domain=(-6.0, 6.0), resolution=60)
    assert np.array_equal(ext.base_gram, A)
    assert np.max(np.abs(ext.F - F)) <= 1e-13


@pytest.mark.parametrize("a0", [1.0, 1.1, 0.37])
def test_extension_field_flush_changes_no_value(g, a0):
    # the raw exp(-pi x^2) holds subnormal samples near |x| = 15; the flushed window and
    # the flushed operands must give the same F as the old product on the raw window
    raw = Signal(GRID, np.exp(-np.pi * GRID.x() ** 2))
    assert np.any((raw.values.real > 0) & (raw.values.real < np.finfo(np.float64).tiny))
    ext = extension_field(g, Configuration(((0.0, 0.0), (0.0, 1.0), (a0, 0.0))), (-6.0, 6.0), 120)
    u = raw.unit()
    fam, A = hrt._family_gram(u, ext.base.points)
    E = np.exp(-2j * np.pi * np.outer(ext.b_grid, GRID.x()))
    conj_shifted = np.conj([translate(u, a).values for a in ext.a_grid])
    U = np.stack([GRID.delta * (E @ (fam[k] * conj_shifted).T) for k in range(3)])
    F = np.einsum("kij,kl,lij->ij", np.conj(U), np.linalg.inv(A), U).real
    assert np.array_equal(ext.F, F)


def test_independence_probe_shifts_each_point_once(g, monkeypatch):
    calls = []

    def counting(f, point):
        calls.append(point)
        return tf_shift(f, point)

    monkeypatch.setattr(hrt, "tf_shift", counting)
    cfg = Configuration(((0, 0), (0.4, 0.9), (1.2, -0.3), (-0.5, 0.2)))
    probe = independence_probe(g, cfg)
    assert calls == list(cfg.points)
    assert probe.rayleigh_gap < 1e-10


def test_schur_identity_random_windows(rng):
    for _ in range(5):
        gr = Signal(GRID, rng.normal(size=GRID.L) + 1j * rng.normal(size=GRID.L)).unit()
        p = tuple(rng.uniform(-2, 2, size=2))
        assert schur_identity_check(gr, BASE, p) < 1e-12


def test_schur_identity_all_window_families():
    wide = SampleGrid(2048, 1 / 32)
    for fam, param in [
        ("gaussian", None),
        ("sech", None),
        ("exp_two_sided", None),
        ("exp_one_sided", None),
        ("indicator", 1.0),
        ("bspline", 2),
    ]:
        g = sample_window(WindowSpec(fam, param), wide).unit()
        assert schur_identity_check(g, BASE, (0.6, -0.8)) < 1e-12


def test_restriction_principle_consistency():
    # when the symmetric five-point Gramian is well conditioned, the related
    # four-point Gramians stay nonsingular at grid scale (numeric suite)
    wide = SampleGrid(2048, 1 / 32)
    for fam, param in [("gaussian", None), ("sech", None), ("bspline", 2)]:
        g = sample_window(WindowSpec(fam, param), wide).unit()
        for a, b in [(1.0, 1.0), (0.7, 0.3)]:
            five = Configuration(((0, 0), (0, 1), (0, -1), (a, b), (a, -b)))
            if gramian(g, five).eigenvalues[0] <= 1e-3:
                continue
            for c in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
                four = Configuration(((0, 0), (0, 1), (c, 0), (a, b)))
                rep = gramian(g, four)
                assert rep.eigenvalues[0] > rep.independence_threshold


def test_refinement_drift_helper():
    from gaborlab import refinement_drift

    grid = SampleGrid(512, 1 / 16)
    cfg = Configuration(((0, 0), (0, 1), (1, 0)))
    coarse, fine, drift = refinement_drift(WindowSpec("gaussian"), cfg, grid)
    assert coarse > 0.2 and fine > 0.2
    assert drift < 1e-10
