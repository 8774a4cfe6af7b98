"""Frame-set scans over a grid of (alpha, beta) targets.

Each cell snaps its target to the nearest representable lattice and (for the
order-2 B-spline window) carries the analytic region label.  Frame bounds on
the periodic model are computed once per distinct snapped lattice, since many
cells of a fine map snap to the same one.  Those solves are independent and
may run on a thread pool; results are written by index, so output is
deterministic regardless of schedule.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import SampleGrid, Signal
from .duality import RegionLabel, classify_point_g2
from .frames import frame_bounds
from .lattices import Lattice, SnapError, make_lattice
from .windows import WindowSpec, sample_window

__all__ = ["FrameSetMap", "scan_frame_set", "RED_LINE_A_THRESHOLD"]

# Red-line detection in scans uses an absolute lower-bound threshold because
# the upper bound B also shrinks near degeneracy.
RED_LINE_A_THRESHOLD = 1e-4


@dataclass(frozen=True)
class FrameSetMap:
    """Per-cell frame bounds over an (alpha, beta) rectangle.

    Arrays are indexed [i_beta, i_alpha] with cell centers in
    ``alpha_targets`` / ``beta_targets``.  ``labels`` holds region names for
    the order-2 B-spline window, empty strings otherwise; unsnappable cells
    carry label "unsnappable" and NaN bounds.
    """

    window: WindowSpec
    grid: SampleGrid
    alpha_targets: np.ndarray
    beta_targets: np.ndarray
    alpha_snapped: np.ndarray = field(repr=False)
    beta_snapped: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    @property
    def resolution(self) -> int:
        return len(self.alpha_targets)


def _cell_centers(lo: float, hi: float, resolution: int) -> np.ndarray:
    return lo + (hi - lo) * (np.arange(resolution) + 0.5) / resolution


def scan_frame_set(
    spec: WindowSpec,
    alpha_range: tuple[float, float],
    beta_range: tuple[float, float],
    resolution: int,
    grid: SampleGrid,
    snap_tol: float | None = None,
    threads: int = 1,
    wrap_tol: float = 1e-12,
) -> FrameSetMap:
    """Scan frame bounds over a resolution x resolution grid of targets.

    Frame bounds are solved once per distinct snapped lattice.  ``threads``
    asks for a pool for those solves; it never gets more workers than there
    are cells or CPUs.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not (alpha_range[0] >= 0 and beta_range[0] >= 0):
        raise ValueError("ranges must be non-negative")
    alphas = _cell_centers(*alpha_range, resolution)
    betas = _cell_centers(*beta_range, resolution)
    g = sample_window(spec, grid, wrap_tol=wrap_tol)
    is_g2 = spec.family == "bspline" and int(spec.param) == 2

    a_snap = np.full((resolution, resolution), np.nan)
    b_snap = np.full((resolution, resolution), np.nan)
    A = np.full((resolution, resolution), np.nan)
    B = np.full((resolution, resolution), np.nan)
    labels = np.full((resolution, resolution), "", dtype=object)

    cells: dict[Lattice, list[tuple[int, int]]] = {}  # i indexes beta, j alpha
    for i in range(resolution):
        for j in range(resolution):
            if is_g2:
                labels[i, j] = classify_point_g2(alphas[j], betas[i]).value
            try:
                lat, _, _ = make_lattice(grid, alphas[j], betas[i], snap_tol=snap_tol)
            except SnapError:
                labels[i, j] = "unsnappable"
                continue
            cells.setdefault(lat, []).append((i, j))

    solve = partial(frame_bounds, g)
    workers = min(threads, resolution * resolution, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            reports = list(ex.map(solve, cells))
    else:
        reports = list(map(solve, cells))
    for (lat, ij), rep in zip(cells.items(), reports):
        ix = tuple(np.array(ij).T)
        a_snap[ix] = lat.alpha
        b_snap[ix] = lat.beta
        A[ix] = rep.A
        B[ix] = rep.B

    return FrameSetMap(
        window=spec,
        grid=grid,
        alpha_targets=alphas,
        beta_targets=betas,
        alpha_snapped=a_snap,
        beta_snapped=b_snap,
        A=A,
        B=B,
        labels=np.asarray(labels, dtype=object),
    )
