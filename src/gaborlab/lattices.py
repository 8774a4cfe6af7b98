"""Separable time-frequency lattices on the periodic grid.

A lattice is a pair of integer steps (a samples, b frequency bins), both
dividing L.  The physical parameters are alpha = a * delta and
beta = b / T, so alpha * beta = a * b / L and the redundancy is L / (a b).
Arbitrary (alpha, beta) targets are snapped to the nearest representable
divisors, with the snap errors reported.  The snap is separable (a from alpha
alone, b from beta alone): one rule snaps a vector of targets per axis, and
``make_lattice`` is its one-target case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SampleGrid

__all__ = ["Lattice", "make_lattice", "divisors", "SnapError"]


class SnapError(ValueError):
    """Snapped lattice misses the target by more than the allowed tolerance."""


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return tuple(small + large)


@dataclass(frozen=True)
class Lattice:
    """Separable lattice with steps a (time samples) and b (frequency bins)."""

    a: int
    b: int
    grid: SampleGrid

    def __post_init__(self) -> None:
        L = self.grid.L
        if not (1 <= self.a <= L and L % self.a == 0):
            raise ValueError(f"a={self.a} must divide L={L}")
        if not (1 <= self.b <= L and L % self.b == 0):
            raise ValueError(f"b={self.b} must divide L={L}")

    @property
    def alpha(self) -> float:
        return self.a * self.grid.delta

    @property
    def beta(self) -> float:
        return self.b / self.grid.T

    @property
    def n_time(self) -> int:
        """Number of time shifts, L/a."""
        return self.grid.L // self.a

    @property
    def n_freq(self) -> int:
        """Number of frequency shifts, L/b."""
        return self.grid.L // self.b

    @property
    def redundancy(self) -> float:
        return self.grid.L / (self.a * self.b)


def _snap(grid: SampleGrid, alpha_targets, beta_targets) -> tuple[np.ndarray, ...]:
    """The nearest divisor steps a and b per alpha and per beta target, and the errors.

    The smaller divisor wins a tie; the errors are |a delta - alpha| and |b / T - beta|.
    """
    alphas, betas = np.asarray(alpha_targets, dtype=float), np.asarray(beta_targets, dtype=float)
    if not ((alphas > 0).all() and (betas > 0).all()):
        raise ValueError("alpha and beta targets must be positive")
    with np.errstate(over="ignore"):
        steps = (alphas / grid.delta, betas * grid.T)
    if not (np.isfinite(steps[0]).all() and np.isfinite(steps[1]).all()):
        raise ValueError("alpha / delta or beta * T overflows for these targets")
    divs = np.array(divisors(grid.L))
    a, b = (divs[np.abs(divs - x[:, None]).argmin(axis=1)] for x in steps)  # argmin: first of a tie
    return a, b, np.abs(a * grid.delta - alphas), np.abs(b / grid.T - betas)


def make_lattice(
    grid: SampleGrid,
    alpha_target: float,
    beta_target: float,
    snap_tol: float | None = None,
) -> tuple[Lattice, float, float]:
    """Snap (alpha, beta) targets to the nearest representable lattice.

    Returns (lattice, alpha_error, beta_error) where the errors are
    |alpha - alpha_target| and |beta - beta_target|.  If ``snap_tol`` is
    given, either error above it raises :class:`SnapError`.
    """
    a, b, a_err, b_err = (x.item() for x in _snap(grid, [alpha_target], [beta_target]))
    lat = Lattice(a, b, grid)
    if snap_tol is not None and (a_err > snap_tol or b_err > snap_tol):
        raise SnapError(
            f"snapped ({lat.alpha:g}, {lat.beta:g}) misses target "
            f"({alpha_target:g}, {beta_target:g}) beyond tolerance {snap_tol:g}"
        )
    return lat, a_err, b_err
