"""Frame-set scans over a grid of (alpha, beta) targets.

Snapping is separable, so the alpha centres and the beta centres are each
snapped once, and a cell is unsnappable when its column or its row misses
the tolerance.  Frame bounds on the periodic model are solved once per
distinct snapped lattice (distinct column step times distinct row step) and
broadcast to the cells, and the order-2 B-spline region labels are taken on
the whole grid at once.  The solves are independent and may run on a thread
pool; results are written by index, so output is schedule-independent.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import SampleGrid, _cell_centres
from .duality import RegionLabel, _g2_rule
from .frames import frame_bounds
from .lattices import Lattice, _snap
from .windows import WindowSpec, sample_window

__all__ = ["FrameSetMap", "scan_frame_set"]


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
    if not (alpha_range[0] >= 0 and beta_range[0] >= 0):
        raise ValueError("ranges must be non-negative")
    alphas = _cell_centres(*alpha_range, resolution, "alpha")
    betas = _cell_centres(*beta_range, resolution, "beta")
    g = sample_window(spec, grid, wrap_tol=wrap_tol)
    labels = np.full((resolution, resolution), "", dtype=object)  # i indexes beta, j alpha
    if spec.family == "bspline" and int(spec.param) == 2:
        labels[:] = np.array([r.value for r in RegionLabel])[_g2_rule(alphas, betas[:, None])]
    a, b, a_err, b_err = _snap(grid, alphas, betas)
    tol = np.inf if snap_tol is None else snap_tol
    cols, rows = ~(a_err > tol), ~(b_err > tol)
    snapped = rows[:, None] & cols
    labels[~snapped] = "unsnappable"

    # the snapped cells are rows x cols: one lattice per distinct (a of a column, b of a row)
    a_set, b_set = sorted(set(a[cols].tolist())), sorted(set(b[rows].tolist()))
    lattices = [Lattice(ak, bk, grid) for bk in b_set for ak in a_set]
    solve = partial(frame_bounds, g)
    workers = min(threads, resolution * resolution, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            reports = list(ex.map(solve, lattices))
    else:
        reports = list(map(solve, lattices))
    bounds = np.full((len(b_set) + 1, len(a_set) + 1, 2), np.nan)  # last row, column: unsnappable
    bounds[:-1, :-1] = np.reshape([(rep.A, rep.B) for rep in reports], (len(b_set), len(a_set), 2))
    row = np.where(rows, np.searchsorted(b_set, b), -1)
    col = np.where(cols, np.searchsorted(a_set, a), -1)
    A, B = np.moveaxis(bounds[row[:, None], col], -1, 0)
    a_snap = np.where(snapped, a * grid.delta, np.nan)
    b_snap = np.where(snapped, (b / grid.T)[:, None], np.nan)
    return FrameSetMap(spec, grid, alphas, betas, a_snap, b_snap, A, B, labels)
