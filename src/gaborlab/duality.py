"""Compactly supported dual windows via the finite slice systems.

Everything here works on the real line (no periodization): windows are
piecewise-evaluable or finely sampled compact signals, and duality is tested
through the bi-infinite sum condition

    sum_k conj(g(x - n/beta - k alpha)) h(x - k alpha) = beta * delta_{n,0}

restricted to the finitely many rows n where supports overlap.  For B-spline
windows the dual supported in [-(2m-1) alpha/2, (2m-1) alpha/2] is obtained
by solving a (2m-1) x (2m-1) linear system per point of a fine grid in
[-alpha/2, alpha/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .core import NumericalError
from .windows import WindowSpec, bspline_values, support_interval, window_values

__all__ = [
    "CompactSignal",
    "RegionLabel",
    "SingularSliceError",
    "BeyondProvenRegionsError",
    "compact_window",
    "janssen_residual",
    "required_slice_order",
    "bspline_compact_dual",
    "classify_point_g2",
    "region_expects_frame",
]

SLICE_COND_LIMIT = 1e10  # bspline_compact_dual: slice matrices at or above this are singular
COMPACT_STEP = 1.0 / 256.0  # compact_window: sample spacing


class SingularSliceError(NumericalError):
    """Some slice matrix G_m(x) is numerically singular."""


class BeyondProvenRegionsError(NumericalError):
    """The support rule needs m > 3, outside the proven subregions."""


@dataclass(frozen=True)
class CompactSignal:
    """Samples of a compactly supported function on a fine uniform grid.

    ``samples[i]`` sits at x = x_lo + i * step; the function is zero outside
    [x_lo, x_hi].  ``evaluator`` (optional) is the underlying closed form,
    which ``janssen_residual`` reads for the window g; ``eval_at`` reads the
    samples only, and solver outputs carry samples only.
    """

    x_lo: float
    x_hi: float
    step: float
    samples: np.ndarray = field(repr=False)
    provenance: str = ""
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi):
            raise ValueError("x_lo must be below x_hi")
        s = np.array(self.samples)
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    def positions(self) -> np.ndarray:
        return self.x_lo + self.step * np.arange(len(self.samples))

    def eval_at(self, x: np.ndarray) -> np.ndarray:
        """Exact sample lookup; points inside [x_lo, x_hi) must sit on the sample grid."""
        x = np.asarray(x, dtype=float)
        pos = (x - self.x_lo) / self.step
        idx = np.rint(pos).astype(int)
        if np.any((np.abs(pos - idx) > 1e-8) & (x >= self.x_lo) & (x < self.x_hi)):
            raise ValueError("compact signal evaluated off its sample grid")
        inside = (idx >= 0) & (idx < len(self.samples))
        out = np.zeros_like(x, dtype=self.samples.dtype)
        out[inside] = self.samples[idx[inside]]
        return out


def compact_window(spec: WindowSpec) -> CompactSignal:
    """Compact window family as a CompactSignal with exact evaluator."""
    supp = support_interval(spec)
    if supp is None:
        raise ValueError(f"{spec.label()} is not compactly supported")
    lo, hi = supp
    n = int(round((hi - lo) / COMPACT_STEP))
    x = lo + COMPACT_STEP * np.arange(n)
    return CompactSignal(
        x_lo=lo,
        x_hi=hi,
        step=COMPACT_STEP,
        samples=window_values(spec, x),
        provenance=spec.label(),
        evaluator=lambda t: window_values(spec, t),
    )


def _fold_grid(h: CompactSignal, alpha: float) -> np.ndarray:
    """Residues of h's sample positions modulo alpha, ascending (uniform by construction)."""
    n = int(round(alpha / h.step))
    return np.sort(np.mod(h.x_lo % alpha + h.step * np.arange(n), alpha))


def janssen_residual(g: CompactSignal, h: CompactSignal, alpha: float, beta: float) -> float:
    """Max deviation of the duality sum from beta * delta_{n,0}.

    The maximum runs over all rows n where the supports can overlap and over
    h's own sample residues in [0, alpha), so every lookup of h is exact;
    alpha must be a whole number of h's steps (a solver dual's step is
    alpha / n_x), else the lookup raises.  g is read through its closed
    form, zero outside [x_lo, x_hi].  Each translate of h is added into
    every row at once.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if g.evaluator is None:
        raise ValueError("g must carry an evaluator (window closed form)")
    x = _fold_grid(h, alpha)
    k_lo = int(math.floor((x.min() - h.x_hi) / alpha)) - 1
    k_hi = int(math.ceil((x.max() - h.x_lo) / alpha)) + 1
    n_lo = int(math.floor(beta * (h.x_lo - g.x_hi))) - 1
    n_hi = int(math.ceil(beta * (h.x_hi - g.x_lo))) + 1
    n = np.arange(n_lo, n_hi + 1)
    rows = x - (n / beta)[:, None]  # rows[n, i] = x_i - n / beta
    acc = np.zeros(rows.shape, dtype=complex)
    for k in range(k_lo, k_hi + 1):
        hv = h.eval_at(x - k * alpha)
        if not np.any(hv):
            continue
        t = rows - k * alpha
        gv = np.where((t >= g.x_lo) & (t <= g.x_hi), g.evaluator(t), 0.0)
        acc += np.conj(gv) * hv
    acc[n == 0] -= beta
    return float(np.max(np.abs(acc)))


def required_slice_order(N: int, alpha: float, beta: float) -> int:
    """Smallest m so the truncated (2m-1)-row system captures every active row.

    Rows |n| >= m vanish automatically exactly when
    m / beta >= N/2 + (2m-1) alpha / 2, i.e. m >= beta (N - alpha) / (2 (1 - alpha beta)).
    """
    if not (0 < alpha * beta < 1):
        raise ValueError(f"need 0 < alpha*beta < 1, got {alpha * beta:g}")
    val = beta * (N - alpha) / (2.0 * (1.0 - alpha * beta))
    return max(1, int(math.ceil(val - 1e-12)))


def bspline_compact_dual(
    N: int,
    alpha: float,
    beta: float,
    m: int | str = "auto",
    n_x: int = 1024,
) -> CompactSignal:
    """Compactly supported dual of the order-N B-spline at (alpha, beta).

    For each x on a fine grid in [-alpha/2, alpha/2) the (2m-1) x (2m-1)
    matrix with entries g_N(x + k alpha - l / beta) is solved against
    beta * e_0, yielding the stacked dual values h(x + k alpha).  With
    m = "auto" the support-counting rule picks m; values above 3 are
    rejected as beyond the proven subregions.  Explicit m below the support
    rule is rejected because the omitted rows would break duality.
    """
    if N < 2:
        raise ValueError("need N >= 2 (the order-1 spline has its trivial dual)")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    m_req = required_slice_order(N, alpha, beta)
    if m == "auto":
        if m_req > 3:
            raise BeyondProvenRegionsError(
                f"support rule needs m={m_req} > 3 at (alpha, beta)=({alpha:g}, {beta:g}); "
                "only m <= 3 slice systems are solved"
            )
        m_use = m_req
    else:
        m_use = int(m)
        if m_use < m_req:
            raise ValueError(
                f"m={m_use} omits active duality rows (support rule needs m >= {m_req})"
            )
    q = 2 * m_use - 1
    x = -alpha / 2.0 + alpha * np.arange(n_x) / n_x
    offs = np.arange(1 - m_use, m_use)  # shared by rows l and columns k
    # G[i, l, k] = g_N(x_i + k alpha - l / beta)
    args = x[:, None, None] + offs[None, None, :] * alpha - offs[None, :, None] / beta
    G = bspline_values(N, args.reshape(-1)).reshape(n_x, q, q)
    conds = np.linalg.cond(G)
    bad = np.where(~(conds < SLICE_COND_LIMIT))[0]
    if bad.size:
        i = int(bad[0])
        raise SingularSliceError(
            f"slice matrix at x={x[i]:.6g} is singular or ill-conditioned "
            f"(cond={conds[i]:.3g}) for m={m_use}"
        )
    rhs = np.zeros(q)
    rhs[m_use - 1] = beta
    H = np.linalg.solve(G, np.broadcast_to(rhs, (n_x, q))[..., None])[..., 0]
    # h(x_i + k alpha) = H[i, k]; columns k concatenate into one fine grid
    samples = H.T.reshape(-1)
    x_lo = -q * alpha / 2.0
    return CompactSignal(
        x_lo=x_lo,
        x_hi=q * alpha / 2.0,
        step=alpha / n_x,
        samples=samples,
        provenance=f"dual of bspline:{N} at alpha={alpha:g} beta={beta:g} (m={m_use})",
    )


class RegionLabel(str, Enum):
    """Known frame-set regions for the order-2 B-spline window, in ``_g2_rule``'s order."""

    NOT_FRAME_RED_LINE = "not_frame_red_line"
    NOT_FRAME_DENSITY = "not_frame_density"
    REGION_B = "region_b"
    PAINLESS = "painless"
    REGION_C = "region_c"
    REGION_D = "region_d"
    REGION_E = "region_e"
    REGION_F = "region_f"
    REGION_G = "region_g"
    UNKNOWN = "unknown"


def _g2_rule(alpha, beta) -> np.ndarray:
    """Index into ``RegionLabel`` of the first rule each broadcast (alpha, beta) meets.

    Order: integer-beta obstruction lines first, then the necessary density
    conditions, then the known frame regions by their inequality ranges;
    points matching none are labeled unknown.  The obstruction-line
    test accepts alpha * beta = 1 (both labels mean "not a frame" there).
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    if not ((alpha > 0) & (beta > 0)).all():
        raise ValueError("alpha and beta must be positive")
    near_int = (np.abs(beta - np.round(beta)) < 1e-9) & (np.round(beta) >= 2)
    with np.errstate(over="ignore"):  # a product that overflows to inf still compares right
        rules = (
            near_int & (alpha * beta <= 1.0 + 1e-12) & (alpha < 2.0),
            (alpha * beta >= 1.0) | (alpha >= 2.0),
            (1.0 <= alpha) & (alpha < 2.0) & (beta < 1.0 / alpha),
            beta <= 0.5,
            beta <= 2.0 / (2.0 + alpha),
            beta <= 4.0 / (2.0 + 3.0 * alpha),
            (alpha < 0.5) & (beta <= 2.0 / (1.0 + alpha)),
            (0.5 <= alpha) & (alpha <= 0.8) & (beta <= 6.0 / (2.0 + 5.0 * alpha)) & (beta > 1.0),
            (2.0 / 3.0 <= alpha) & (alpha <= 1.0) & (beta < 1.0),
            np.ones_like(near_int),  # unknown
        )
    return np.argmax(rules, axis=0)


def classify_point_g2(alpha: float, beta: float) -> RegionLabel:
    """Classify (alpha, beta) against the known g_2 frame-set regions (see ``_g2_rule``)."""
    return list(RegionLabel)[int(_g2_rule(alpha, beta))]


_FRAME_REGIONS = {
    RegionLabel.PAINLESS,
    RegionLabel.REGION_B,
    RegionLabel.REGION_C,
    RegionLabel.REGION_D,
    RegionLabel.REGION_E,
    RegionLabel.REGION_F,
    RegionLabel.REGION_G,
}


def region_expects_frame(label: RegionLabel) -> bool | None:
    """True/False when the label decides frame membership, None for unknown."""
    if label in _FRAME_REGIONS:
        return True
    if label in (RegionLabel.NOT_FRAME_DENSITY, RegionLabel.NOT_FRAME_RED_LINE):
        return False
    return None
