"""Lattice Gabor systems: analysis, synthesis, frame operator and windows.

The frame operator of a separable lattice couples only grid indices that
agree modulo P = L/b, so the full L x L operator splits into P Hermitian
blocks of size b x b; block r acts on the indices {r + s P : s < b}.  The
entries come from the a x b Walnut table

    W[i, d] = sum_n g[i + n a] conj(g[i + d P + n a]),  i < a, d < b,

as S[i, i + d P] = delta * P * W[i mod a, d], which costs O(L b) to build.
Since an entry depends on its row only modulo a, blocks r and r + a are
equal: :func:`frame_operator_blocks` returns the min(a, P) distinct blocks,
and block r of S is ``blocks[r % a]``.  Block (r + P) mod a is block r with
its rows and columns cyclically shifted by one, so all spectra are among
those of the first gcd(a, P) blocks; bounds and the frame check solve only
those.  All spectral work (bounds, inverse, square root) happens per block,
and each dual or tight window builds the blocks once.

:func:`analysis` and :func:`synthesis` are the one time-frequency core of
the package: the full phase-space STFT of :mod:`gaborlab.stft` is the
finest lattice, a = b = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .core import GridMismatchError, Signal
from .lattices import Lattice

__all__ = [
    "FrameReport",
    "NotAFrameError",
    "gabor_atom",
    "analysis",
    "synthesis",
    "frame_apply",
    "frame_operator_blocks",
    "frame_matrix",
    "frame_bounds",
    "canonical_dual",
    "canonical_tight",
    "least_norm_check",
    "LeastNormReport",
]

FRAME_RATIO = 1e-6  # is_frame threshold: A > FRAME_RATIO * B
DENSE_BLOCK_MAX = 2048  # frame_bounds: wider blocks go to Lanczos


class NotAFrameError(ValueError):
    """Operation requires a frame but the smallest eigenvalue is too small."""


@dataclass(frozen=True)
class FrameReport:
    """Extremal eigenvalues of the frame operator and the classification.

    ``is_frame`` uses the conditioning threshold A > 1e-6 * B: finite models
    are generically full-rank even when the continuum system is not a frame,
    so classification is by conditioning.
    """

    A: float
    B: float
    lattice: Lattice
    method: str

    @property
    def condition(self) -> float:
        return self.B / self.A if self.A > 0 else np.inf

    @property
    def is_frame(self) -> bool:
        return self.A > FRAME_RATIO * self.B


def _check(g: Signal, lat: Lattice) -> None:
    if g.grid != lat.grid:
        raise GridMismatchError("window grid does not match lattice grid")


def gabor_atom(g: Signal, lat: Lattice, n: int, k: int) -> Signal:
    """The atom M_{k beta} T_{n alpha} g (integer-sample operations)."""
    _check(g, lat)
    L = lat.grid.L
    shifted = np.roll(g.values, (n * lat.a) % L)
    phase = np.exp(2j * np.pi * k * lat.beta * lat.grid.x())
    return Signal(lat.grid, phase * shifted)


def _rolled_windows(g: np.ndarray, lat: Lattice) -> np.ndarray:
    """Read-only view G[n, j] = g[(j - n a) mod L] for n = 0..L/a-1.

    Row n of G starts n a samples before the second copy of ``[g, g]``, so
    G is a strided view with row stride -a: no (L/a) x L index array and no
    gather.
    """
    L = lat.grid.L
    gg = np.concatenate([g, g])
    step = gg.strides[0]
    return np.lib.stride_tricks.as_strided(
        gg[L:], shape=(lat.n_time, L), strides=(-lat.a * step, step), writeable=False
    )


def analysis(g: Signal, lat: Lattice, f: Signal) -> np.ndarray:
    """Coefficients c[n, k] = <f, M_{k beta} T_{n alpha} g>, via folded FFTs."""
    _check(g, lat)
    if f.grid != lat.grid:
        raise GridMismatchError("signal grid does not match lattice grid")
    b, P = lat.b, lat.n_freq  # P = L / b
    U = f.values[None, :] * _rolled_windows(np.conj(g.values), lat)
    folded = U if b == 1 else U.reshape(lat.n_time, b, P).sum(axis=1)
    k = np.arange(P)
    sign = np.where((k * b) % 2 == 0, 1.0, -1.0)  # exp(2 pi i k j0 / P)
    c = np.fft.fft(folded, axis=1)
    c *= lat.grid.delta * sign
    return c


def synthesis(g: Signal, lat: Lattice, c: np.ndarray) -> Signal:
    """Adjoint of :func:`analysis`: sum_{n,k} c[n,k] M_{k beta} T_{n alpha} g."""
    _check(g, lat)
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (lat.n_time, lat.n_freq):
        raise ValueError(f"coefficients must be {(lat.n_time, lat.n_freq)}, got {c.shape}")
    L, b = lat.grid.L, lat.b
    P = lat.n_freq
    k = np.arange(P)
    sign = np.where((k * b) % 2 == 0, 1.0, -1.0)
    w = np.fft.ifft(c * sign[None, :], axis=1)  # w[n, r], period P in j
    w *= P
    G = _rolled_windows(g.values, lat).reshape(lat.n_time, b, P)  # j = s P + r
    out = np.sum(w[:, None, :] * G, axis=0)
    return Signal(lat.grid, out.reshape(L))


def frame_apply(g: Signal, lat: Lattice, f: Signal) -> Signal:
    """Frame operator S f = synthesis(analysis(f))."""
    return synthesis(g, lat, analysis(g, lat, f))


def _walnut_table(g: np.ndarray, lat: Lattice) -> np.ndarray:
    """W[i, d] = sum_n g[i + n a] conj(g[i + d P + n a]) for i < a, d < b."""
    a, P = lat.a, lat.n_freq
    gc = np.conj(g)
    W = np.empty((a, lat.b), dtype=np.complex128)
    for d in range(lat.b):  # one O(L) pass per column, no (b, L) temporary
        W[:, d] = (g * np.roll(gc, -d * P)).reshape(lat.n_time, a).sum(axis=0)
    return W


def frame_operator_blocks(g: Signal, lat: Lattice) -> np.ndarray:
    """The min(a, P) distinct Hermitian b x b blocks of the frame operator.

    Block r of S, for r < P, is ``blocks[r % a]``; it holds S restricted to
    the indices {r + s P : s = 0..b-1}, with entries
    S[r + s P, r + t P] = delta * P * W[(r + s P) mod a, (t - s) mod b]
    from the Walnut table W of the module docstring.
    """
    _check(g, lat)
    a, b, P = lat.a, lat.b, lat.n_freq
    W = lat.grid.delta * P * _walnut_table(g.values, lat)
    # rolled[i, k, t] = W[i, (k + t) mod b]; row s of a block needs k = -s mod b
    rolled = np.lib.stride_tricks.sliding_window_view(np.concatenate([W, W], axis=1), b, axis=1)
    s = np.arange(b)
    rows = (np.arange(min(a, P))[:, None] + s[None, :] * P) % a
    return rolled[rows, (-s % b)[None, :]]


def frame_matrix(g: Signal, lat: Lattice) -> np.ndarray:
    """Assemble the dense L x L frame operator matrix (small L only)."""
    L, P = lat.grid.L, lat.n_freq
    blocks = frame_operator_blocks(g, lat)
    S = np.zeros((L, L), dtype=np.complex128)
    for r in range(P):
        ix = np.arange(r, L, P)
        S[np.ix_(ix, ix)] = blocks[r % lat.a]
    return S


def _frame_report(eigs: np.ndarray, lat: Lattice) -> FrameReport:
    """Bounds from the ascending eigenvalues of frame-operator blocks, one row per block."""
    A = float(eigs[:, 0].min())
    B = float(eigs[:, -1].max())
    return FrameReport(A=max(A, 0.0), B=B, lattice=lat, method="block-dense")


def frame_bounds(g: Signal, lat: Lattice) -> FrameReport:
    """Optimal frame bounds A, B as extremal eigenvalues of the frame operator.

    The size rule: blocks up to DENSE_BLOCK_MAX = 2048 wide are solved
    densely ("block-dense"); wider blocks go to Lanczos on the matrix-free
    operator ("iterative-lanczos"), which needs only a few frame-operator
    applications where one dense b x b eigensolve costs O(b^3) time and
    O(b^2) memory.  ``FrameReport.method`` says which one ran.
    """
    _check(g, lat)
    if lat.b <= DENSE_BLOCK_MAX:
        blocks = frame_operator_blocks(g, lat)[: gcd(lat.a, lat.n_freq)]
        return _frame_report(np.linalg.eigvalsh(blocks), lat)
    from scipy.sparse.linalg import LinearOperator, eigsh

    L = lat.grid.L

    def mv(v):
        return frame_apply(g, lat, Signal(lat.grid, v)).values

    op = LinearOperator((L, L), matvec=mv, dtype=np.complex128)
    B = float(eigsh(op, k=1, which="LA", return_eigenvectors=False)[0])
    A = float(eigsh(op, k=1, which="SA", return_eigenvectors=False)[0])
    return FrameReport(A=max(A, 0.0), B=B, lattice=lat, method="iterative-lanczos")


def _blockwise(v: np.ndarray, lat: Lattice) -> np.ndarray:
    """The (P, b) view x[r, s] = v[r + s P] matching the frame-operator blocks."""
    return v.reshape(lat.b, lat.n_freq).T


def _require_frame(eigs: np.ndarray, lat: Lattice) -> None:
    rep = _frame_report(eigs, lat)
    if not rep.is_frame:
        raise NotAFrameError(
            f"system is not a frame: A={rep.A:.3e}, B={rep.B:.3e} "
            f"(threshold A > {FRAME_RATIO:g} B)"
        )


def canonical_dual(g: Signal, lat: Lattice) -> Signal:
    """Dual window solving S g_dual = g, blockwise."""
    blocks = frame_operator_blocks(g, lat)
    _require_frame(np.linalg.eigvalsh(blocks[: gcd(lat.a, lat.n_freq)]), lat)
    rhs = _blockwise(g.values, lat)
    sol = np.linalg.solve(blocks[np.arange(lat.n_freq) % lat.a], rhs[..., None])[..., 0]
    return Signal(lat.grid, sol.T.reshape(-1))


def canonical_tight(g: Signal, lat: Lattice) -> Signal:
    """Tight window S^{-1/2} g via blockwise Hermitian eigendecomposition."""
    w, U = np.linalg.eigh(frame_operator_blocks(g, lat))
    _require_frame(w, lat)
    r = np.arange(lat.n_freq) % lat.a
    w, U = w[r], U[r]
    gb = _blockwise(g.values, lat)
    coeff = np.einsum("rbs,rb->rs", np.conj(U), gb)  # U^H g per block
    coeff = coeff / np.sqrt(w)
    sol = np.einsum("rsb,rb->rs", U, coeff)
    return Signal(lat.grid, sol.T.reshape(-1))


@dataclass(frozen=True)
class LeastNormReport:
    """Outcome of comparing canonical coefficients against perturbed ones."""

    trials: int
    min_gap: float  # min over trials of ||c||^2 - ||c_canonical||^2
    max_identity_residual: float  # | (||c||^2-||ct||^2) - ||c-ct||^2 |
    max_reconstruction_error: float
    degenerate: bool = False


def least_norm_check(
    f: Signal,
    g: Signal,
    lat: Lattice,
    trials: int = 100,
    rng: np.random.Generator | None = None,
) -> LeastNormReport:
    """Check that canonical coefficients have the least norm.

    Each trial adds a random kernel vector of the synthesis operator (a
    random coefficient array projected onto the null space) to the canonical
    coefficients, verifies the perturbed coefficients still synthesize f,
    and compares squared norms.  For redundancy 1 the kernel is trivial and
    a degenerate report is returned.
    """
    if lat.redundancy <= 1.0 + 1e-12:
        return LeastNormReport(0, 0.0, 0.0, 0.0, degenerate=True)
    rng = rng or np.random.default_rng(0)
    gd = canonical_dual(g, lat)
    ct = analysis(gd, lat, f)
    nt2 = float(np.sum(np.abs(ct) ** 2))
    shape = ct.shape
    min_gap = np.inf
    max_idres = 0.0
    max_rec = 0.0
    fn = f.norm
    for _ in range(trials):
        d = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        d_ker = d - analysis(gd, lat, synthesis(g, lat, d))
        if np.linalg.norm(d_ker) < 1e-8:
            continue
        c = ct + d_ker
        rec = synthesis(g, lat, c)
        rec_err = Signal(f.grid, rec.values - f.values).norm / fn
        max_rec = max(max_rec, rec_err)
        n2 = float(np.sum(np.abs(c) ** 2))
        gap = n2 - nt2
        min_gap = min(min_gap, gap)
        idres = abs(gap - float(np.sum(np.abs(c - ct) ** 2)))
        max_idres = max(max_idres, idres)
    return LeastNormReport(trials, float(min_gap), max_idres, max_rec)
