"""Frame-set scans: agreement with theory, artifacts, determinism."""

import itertools

import numpy as np
import pytest

from gaborlab import SampleGrid, WindowSpec, scan_frame_set
from gaborlab.duality import RegionLabel, classify_point_g2, region_expects_frame
from gaborlab.frames import FRAME_RATIO
from gaborlab.serialize import fmt_float, framemap_csv, framemap_pgm

GRID = SampleGrid(256, 1 / 16)


@pytest.fixture(scope="module")
def small_scan():
    return scan_frame_set(WindowSpec("gaussian"), (0, 2), (0, 2), 8, GRID)


def test_scan_shapes_and_snap(small_scan):
    m = small_scan
    assert m.A.shape == (8, 8)
    assert np.all(np.isfinite(m.A))
    # snapped values are exact lattice parameters
    prod = m.alpha_snapped * m.beta_snapped
    assert np.all(prod > 0)


def test_gaussian_density_law(small_scan):
    prod = small_scan.alpha_snapped * small_scan.beta_snapped
    is_frame = small_scan.A > FRAME_RATIO * small_scan.B
    assert np.all(is_frame[prod <= 0.9])
    assert not np.any(is_frame[prod >= 1.1])


def test_g2_labels_attached():
    m = scan_frame_set(WindowSpec("bspline", 2), (0, 2), (0, 2), 4, GRID)
    assert m.labels[0, 0] == classify_point_g2(m.alpha_targets[0], m.beta_targets[0]).value
    vals = {str(v) for v in m.labels.ravel()}
    assert vals <= {label.value for label in RegionLabel}


def test_g2_red_line_cells():
    # beta exactly 2 with alpha beta < 1: lower bound collapses
    m = scan_frame_set(WindowSpec("bspline", 2), (0.0625, 0.4375), (1.875, 2.125), 2, GRID)
    # cell centers at beta = 1.9375, 2.0625: neither is the line; use a direct lattice
    from gaborlab import Lattice, frame_bounds, sample_window

    g2 = sample_window(WindowSpec("bspline", 2), GRID)
    lat = Lattice(4, 32, GRID)  # alpha = 0.25, beta = 2
    rep = frame_bounds(g2, lat)
    assert rep.A < 1e-4


def test_unsnappable_cells_marked():
    m = scan_frame_set(WindowSpec("gaussian"), (0, 2), (0, 2), 8, GRID, snap_tol=1e-6)
    flat = m.labels.ravel()
    assert "unsnappable" in set(map(str, flat))
    bad = m.labels == "unsnappable"
    assert np.all(np.isnan(m.A[bad]))


def test_thread_determinism():
    m1 = scan_frame_set(WindowSpec("gaussian"), (0, 2), (0, 2), 6, GRID, threads=1)
    m4 = scan_frame_set(WindowSpec("gaussian"), (0, 2), (0, 2), 6, GRID, threads=4)
    assert framemap_csv(m1) == framemap_csv(m4)
    assert framemap_pgm(m1) == framemap_pgm(m4)


@pytest.mark.parametrize(
    "threads, res, cpus, workers",
    [(10000, 2, 8, 4), (10000, 4, 8, 8), (3, 4, 8, 3), (10000, 4, 1, None), (1, 4, 8, None)],
)
def test_thread_pool_is_clamped(monkeypatch, threads, res, cpus, workers):
    """The pool never gets more workers than cells or CPUs (no real threads start)."""
    import gaborlab.frameset as frameset

    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(frameset, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(frameset.os, "cpu_count", lambda: cpus)
    m = scan_frame_set(WindowSpec("gaussian"), (0.5, 1.5), (0.5, 1.5), res, GRID, threads=threads)
    assert started == ([] if workers is None else [workers])
    assert np.all(np.isfinite(m.A))


def test_csv_and_pgm_shapes(small_scan):
    csv = framemap_csv(small_scan)
    lines = csv.strip().split("\n")
    assert lines[0] == "alpha_target,beta_target,alpha_snap,beta_snap,A,B,label"
    assert len(lines) == 1 + 64
    pgm = framemap_pgm(small_scan)
    assert pgm.startswith(b"P5\n8 8\n255\n")
    assert len(pgm) == len(b"P5\n8 8\n255\n") + 64


def test_scanner_classifier_agreement_at_snapped_points():
    # classification evaluated at the snapped lattice point (the system the
    # numerics actually measure) matches the numeric frame flag away from
    # region boundaries
    m = scan_frame_set(WindowSpec("bspline", 2), (0, 2), (0, 2), 8, GRID)
    cw = m.alpha_targets[1] - m.alpha_targets[0]
    ch = m.beta_targets[1] - m.beta_targets[0]
    mismatches = 0
    for i in range(8):
        for j in range(8):
            a_s, b_s = m.alpha_snapped[i, j], m.beta_snapped[i, j]
            expect = region_expects_frame(classify_point_g2(a_s, b_s))
            if expect is None:
                continue
            neighbors = [
                region_expects_frame(classify_point_g2(max(a_s + da, 1e-6), max(b_s + db, 1e-6)))
                for da in (-cw, 0, cw)
                for db in (-ch, 0, ch)
            ]
            if any(nb != expect for nb in neighbors):
                continue  # within one cell of a region boundary
            numeric = bool(m.A[i, j] > FRAME_RATIO * m.B[i, j])
            if numeric != expect:
                mismatches += 1
    assert mismatches == 0


def test_scan_solves_each_lattice_once(monkeypatch):
    """One frame_bounds call per distinct snapped lattice, same bounds as per cell."""
    import gaborlab.frameset as frameset
    from gaborlab import Lattice, frame_bounds, sample_window

    class InlineExecutor:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    solved = []

    def counting(g, lat):
        solved.append((lat.a, lat.b))
        return frame_bounds(g, lat)

    monkeypatch.setattr(frameset, "frame_bounds", counting)
    monkeypatch.setattr(frameset, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(frameset.os, "cpu_count", lambda: 2)
    spec = WindowSpec("gaussian")
    g = sample_window(spec, GRID)
    for threads in (1, 2):
        solved.clear()
        m = scan_frame_set(spec, (0, 2), (0, 2), 8, GRID, threads=threads)
        a = np.rint(m.alpha_snapped / GRID.delta).astype(int)
        b = np.rint(m.beta_snapped * GRID.T).astype(int)
        assert sorted(solved) == sorted(set(zip(a.ravel(), b.ravel())))
        assert len(solved) < m.A.size
        for i in range(8):
            for j in range(8):
                rep = frame_bounds(g, Lattice(a[i, j], b[i, j], GRID))
                assert (m.A[i, j], m.B[i, j]) == (rep.A, rep.B)


def reference_scan(spec, alpha_range, beta_range, res, grid, snap_tol):
    """Per-cell scan: one make_lattice and one frame_bounds for every cell."""
    from gaborlab import SnapError, frame_bounds, make_lattice, sample_window

    g = sample_window(spec, grid)
    alphas = alpha_range[0] + (alpha_range[1] - alpha_range[0]) * (np.arange(res) + 0.5) / res
    betas = beta_range[0] + (beta_range[1] - beta_range[0]) * (np.arange(res) + 0.5) / res
    out = {k: np.full((res, res), np.nan) for k in ("alpha_snapped", "beta_snapped", "A", "B")}
    labels = np.full((res, res), "", dtype=object)
    for i, beta in enumerate(betas):
        for j, alpha in enumerate(alphas):
            if spec == WindowSpec("bspline", 2):
                labels[i, j] = classify_point_g2(alpha, beta).value
            try:
                lat, _, _ = make_lattice(grid, alpha, beta, snap_tol=snap_tol)
            except SnapError:
                labels[i, j] = "unsnappable"
                continue
            rep = frame_bounds(g, lat)
            for key, value in zip(out, (lat.alpha, lat.beta, rep.A, rep.B)):
                out[key][i, j] = value
    return out, labels


@pytest.mark.parametrize("L, delta", [(64, 0.125), (256, 1 / 16), (864, 1 / 32)])
@pytest.mark.parametrize(
    "spec", [WindowSpec("gaussian"), WindowSpec("bspline", 2)], ids=["gaussian", "bspline2"]
)
def test_scan_matches_per_cell_reference(L, delta, spec):
    grid = SampleGrid(L, delta)
    rng = np.random.default_rng(L)
    seen_unsnappable = False
    for res, snap_tol in itertools.product((2, 3, 7, 16), (None, 0, 0.01, 0.05)):
        lo = rng.uniform(0, 1.5, 2)
        # (0, 2) puts centres on exact lattice points and midway between divisors
        for alpha_range, beta_range in [((0, 2), (0, 2)), zip(lo, lo + rng.uniform(0.05, 1.5, 2))]:
            m = scan_frame_set(spec, alpha_range, beta_range, res, grid, snap_tol=snap_tol)
            ref, labels = reference_scan(spec, alpha_range, beta_range, res, grid, snap_tol)
            for key, expected in ref.items():
                same = np.array_equal(getattr(m, key), expected, equal_nan=True)
                assert same, (key, res, snap_tol)
            assert m.labels.tolist() == labels.tolist()
            seen_unsnappable |= "unsnappable" in labels
    assert seen_unsnappable


def test_framemap_csv_matches_reference_loop():
    from gaborlab.frameset import FrameSetMap

    special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 0.1, -1e300]
    grid = SampleGrid(16, 0.25)
    alphas, betas = np.array([0.1, 1 / 3, 2.0]), np.array([1e-300, 0.5, -0.0])
    cells = [np.roll(special, k).reshape(3, 3) for k in range(4)]
    labels = np.array([["", "unsnappable", "painless"]] * 3, dtype=object)
    fmap = FrameSetMap(WindowSpec("gaussian"), grid, alphas, betas, *cells, labels)
    lines = ["alpha_target,beta_target,alpha_snap,beta_snap,A,B,label"]
    for i in range(3):
        for j in range(3):
            floats = [alphas[j], betas[i]] + [c[i, j] for c in cells]
            lines.append(",".join([*map(fmt_float, floats), str(labels[i, j])]))
    assert framemap_csv(fmap) == "\n".join(lines) + "\n"
