"""Window families and their sampling onto periodic grids.

Families: gaussian e^{-pi x^2}, sech 1/cosh(x), two-sided exponential
e^{-|x|}, one-sided exponential e^{-x} on [0, inf), the indicator of [0, c),
and the B-splines (iterated box convolutions of the unit indicator).

Sampling onto a periodic grid silently periodizes an unbounded window, so
construction checks a wraparound budget: the l1 mass outside [-T/2, T/2]
must stay below a tolerance, and compact supports must fit inside T/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SampleGrid, Signal

__all__ = [
    "WindowSpec",
    "WraparoundError",
    "window_values",
    "sample_window",
    "wraparound_error",
    "bspline_values",
    "bspline_closed_form",
    "bspline_support",
    "parse_window",
]

_FAMILIES = ("gaussian", "sech", "exp_two_sided", "exp_one_sided", "indicator", "bspline")
_MAX_BSPLINE_ORDER = 64  # bspline_values costs about N^2 n / 2 multiply-adds for n points


class WraparoundError(ValueError):
    """Window does not fit the periodic grid within the wraparound budget."""


@dataclass(frozen=True)
class WindowSpec:
    """A window family plus its parameter.

    ``param`` is the indicator width c > 0 or the B-spline order
    1 <= N <= 64; it is None for the parameter-free families.
    """

    family: str
    param: float | int | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown window family {self.family!r}")
        if self.family == "indicator":
            if self.param is None or not (float(self.param) > 0):
                raise ValueError("indicator requires a width c > 0")
        elif self.family == "bspline":
            if self.param is None or int(self.param) != self.param or int(self.param) < 1:
                raise ValueError("bspline requires an integer order N >= 1")
            if int(self.param) > _MAX_BSPLINE_ORDER:
                raise ValueError(f"bspline order must be at most 64, got {self.param}")
        elif self.param is not None:
            raise ValueError(f"{self.family} takes no parameter")

    def label(self) -> str:
        if self.param is None:
            return self.family
        p = self.param
        return f"{self.family}:{int(p) if float(p).is_integer() else p}"


def parse_window(text: str) -> WindowSpec:
    """Parse ``family`` or ``family:param`` strings, e.g. ``bspline:2``."""
    name, _, par = text.partition(":")
    name = name.strip()
    if not par:
        return WindowSpec(name)
    if name == "bspline":
        return WindowSpec(name, int(par))
    return WindowSpec(name, float(par))


# ---------------------------------------------------------------------------
# B-splines by the Cox-de Boor recursion.
#
# The cardinal B-spline M_k(t) = g_k(t - k/2) on [0, k) satisfies
# M_k(t) = (t M_{k-1}(t) + (k - t) M_{k-1}(t - 1)) / (k - 1), starting from
# the indicator M_1 of [0, 1).  Each step combines nonnegative values with
# nonnegative weights, so the error stays at rounding level for every order.
# ---------------------------------------------------------------------------


def bspline_support(N: int) -> tuple[float, float]:
    return (-N / 2.0, N / 2.0)


def bspline_values(N: int, x: np.ndarray) -> np.ndarray:
    """Evaluate g_N, the N-fold box convolution power, at arbitrary points.

    g_1 is the indicator of [-1/2, 1/2); for N >= 2 the function is
    continuous and the convention is invisible.  t = x + N/2 is rounded
    once, so every column of the recursion sees the same breakpoint side.
    """
    N = int(N)
    t = np.asarray(x, dtype=float) + N / 2.0
    shifts = np.arange(N).reshape((N,) + (1,) * t.ndim)
    s = t - shifts  # s[j] = t - j
    M = (np.floor(t) == shifts).astype(float)  # M_1(t - j), one-hot at floor(t)
    for k in range(2, N + 1):
        sk = s[: N - k + 1]
        M = (sk * M[:-1] + (k - sk) * M[1:]) / (k - 1)
    return M[0]


def bspline_closed_form(N: int, x: np.ndarray) -> np.ndarray:
    """Hand-written piecewise formulas for N <= 4 (cross-check route)."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros_like(x)
    if N == 1:
        out[(x >= -0.5) & (x < 0.5)] = 1.0
    elif N == 2:
        out = np.maximum(1.0 - ax, 0.0)
    elif N == 3:
        m0 = ax < 0.5
        out[m0] = 0.75 - ax[m0] ** 2
        m1 = (ax >= 0.5) & (ax < 1.5)
        out[m1] = 0.5 * (ax[m1] - 1.5) ** 2
    elif N == 4:
        m0 = ax < 1.0
        out[m0] = 2.0 / 3.0 - ax[m0] ** 2 + 0.5 * ax[m0] ** 3
        m1 = (ax >= 1.0) & (ax < 2.0)
        out[m1] = (2.0 - ax[m1]) ** 3 / 6.0
    else:
        raise ValueError("closed forms are provided for N <= 4 only")
    return out


# ---------------------------------------------------------------------------
# Pointwise evaluation and periodic sampling.
# ---------------------------------------------------------------------------


def window_values(spec: WindowSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate the window at arbitrary physical points (real values)."""
    x = np.asarray(x, dtype=float)
    if spec.family == "gaussian":
        v = np.exp(-np.pi * x**2)
        return np.where(v < 1e-300, 0.0, v)  # subnormal tails slow every BLAS product behind them
    if spec.family == "sech":
        ax = np.abs(x)
        e = np.exp(-ax)
        return 2.0 * e / (1.0 + e * e)
    if spec.family == "exp_two_sided":
        return np.exp(-np.abs(x))
    if spec.family == "exp_one_sided":
        return np.where(x >= 0, np.exp(-np.minimum(np.abs(x), 700.0)), 0.0)
    if spec.family == "indicator":
        c = float(spec.param)
        return ((x >= 0) & (x < c)).astype(float)
    if spec.family == "bspline":
        return bspline_values(int(spec.param), x)
    raise AssertionError(spec.family)


def support_interval(spec: WindowSpec) -> tuple[float, float] | None:
    """Exact support for compact families, None for unbounded ones."""
    if spec.family == "indicator":
        return (0.0, float(spec.param))
    if spec.family == "bspline":
        return bspline_support(int(spec.param))
    return None


def wraparound_error(spec: WindowSpec, grid: SampleGrid) -> float:
    """Upper bound on the l1 mass of the window outside [-T/2, T/2].

    This bounds the total periodization error of sampling the window onto
    the grid; compact windows that fit return 0.
    """
    half = grid.T / 2.0
    # analytic tail integrals, padded by 1.5x so the discrete sum delta *
    # sum_{|x_j| > T/2} |g(x_j)| is dominated as well
    if spec.family == "gaussian":
        return 1.5 * math.erfc(math.sqrt(math.pi) * half)
    if spec.family == "sech":
        # sech x <= 2 e^{-x} for x >= 0: tail integral < 4 e^{-half}
        return 1.5 * 4.0 * math.exp(-half)
    if spec.family == "exp_two_sided":
        return 1.5 * 2.0 * math.exp(-half)
    if spec.family == "exp_one_sided":
        return 1.5 * math.exp(-half)
    lo, hi = support_interval(spec)
    if lo < -half or hi > half:
        return math.inf
    return 0.0


def sample_window(spec: WindowSpec, grid: SampleGrid, wrap_tol: float = 1e-12) -> Signal:
    """Sample the window at the grid points x_j.

    Raises :class:`WraparoundError` if the effective support exceeds the
    period budget: compact windows must fit in [-T/2, T/2], unbounded ones
    must have tail mass below ``wrap_tol``.  The slowly decaying families
    (sech, exponentials) need T >= ~60 to meet the default tolerance.
    """
    err = wraparound_error(spec, grid)
    if err > wrap_tol:
        raise WraparoundError(
            f"{spec.label()} does not fit period T={grid.T:g}: "
            f"wraparound bound {err:.3g} exceeds tolerance {wrap_tol:g}"
        )
    return Signal(grid, window_values(spec, grid.x()))
