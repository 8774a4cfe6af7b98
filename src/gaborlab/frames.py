"""Lattice Gabor systems: analysis, synthesis, frame operator and windows.

Frame bounds, dual and tight windows come from the discrete Zibulski-Zeevi
symbol (Zibulski & Zeevi, ACHA 1997), built from one Zak transform of g.  A
lattice with steps (a, b) has P = L/b, p = a / gcd(a, P) and q = b / p; p
divides b, since a divides L = b P and a / gcd(a, P) is prime to
P / gcd(a, P).  With K = lcm(a, P) = p P, the Zak transform
Zg[n, l] = sum_m g[n + m K] e^{2 pi i m l / q} fills a K x q grid, and S
acts on the p values Zf[r + u P, l], u < p, of each row r < P and
frequency l < q as the Hermitian p x p matrix

    C_l[u, v] = delta P sum_{n < K/a} Zg[r + u P - n a, l] conj(Zg[r + v P - n a, l]),

with Zg[n - K, l] = e^{2 pi i l / q} Zg[n, l] for negative arguments.
C depends on r only modulo a, so rows r < min(a, P) hold every matrix that
acts on the rows r < P; row r + P is row r with u shifted cyclically, so
rows r < gcd(a, P) carry every eigenvalue of S.  The bounds eigensolve
those rows, on the adjoint lattice when a b > L (see :func:`frame_bounds`);
dual and tight windows build rows r < min(a, P) once and solve, or take
the inverse square root of, the p x p matrices.

When a divides P, p = 1 and each matrix is the real scalar C_l[0, 0]: the
bounds are its extremes, the dual window divides by it and the tight window
by its square root, with no LAPACK call.  Every frame lattice (a b <= L) on
a power-of-two L is such a lattice, since a and P = L/b >= a are powers of
two.  The bounds and the tight window are what LAPACK's n = 1 quick
return gives: the real part of the entry (eigvalsh, and eigh with the
eigenvector 1).  The dual window matched the batched solve bit for bit on
x86-64 with numpy's bundled OpenBLAS, whose 1 x 1 solve multiplies by the
reciprocal of the entry, as numpy's complex division does when the entry's
imaginary part is 0.  Another BLAS, or fused multiply-adds that leave that
imaginary part a rounding residue, may differ in the last bit.  At
(alpha, beta) = (1, 1/2), P = 2a: the symbol is the scalar delta P
(|Zg[r, l]|^2 + |Zg[r + a, l]|^2), whose flatness
:func:`gaborlab.zak.zak_tightness` checks.

For b > 1, :func:`analysis` and its adjoint :func:`synthesis` use the same
windows.  With n = n1 + n2 K/a, n1 < K/a, n2 < q, the coefficient c[n, k] is
delta e^{2 pi i k b j0 / L} / q times the FFT over l -> n2 and r -> k of
H[l, n1, r] = sum_u Zf[r + u P, l] conj(Zg[r + u P - n1 a, l]): about p
multiply-adds per coefficient.  At b = 1 both take the rolled windows g[j - n a].

:func:`analysis` and :func:`synthesis` serve :func:`least_norm_check`, and
:func:`gaborlab.stft.stft` and :func:`gaborlab.stft.stft_invert`, which run
them on the finest lattice, a = b = 1.  The ``stft`` command does not: it
takes the row-blocked real pass of :func:`gaborlab.stft.stft_diagnostics`,
which shares only the rolled window rows with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .core import GridMismatchError, Signal, _parity_signs, _unzak, _zak
from .lattices import Lattice

__all__ = [
    "FrameReport",
    "NotAFrameError",
    "analysis",
    "synthesis",
    "frame_bounds",
    "canonical_dual",
    "canonical_tight",
    "least_norm_check",
    "LeastNormReport",
]

FRAME_RATIO = 1e-6  # is_frame threshold: A > FRAME_RATIO * B


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

    @property
    def condition(self) -> float:
        return self.B / self.A if self.A > 0 else np.inf

    @property
    def is_frame(self) -> bool:
        return self.A > FRAME_RATIO * self.B


def _check(g: Signal, lat: Lattice) -> None:
    if g.grid != lat.grid:
        raise GridMismatchError("window grid does not match lattice grid")


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
    """Coefficients c[n, k] = <f, M_{k beta} T_{n alpha} g> (see the module docstring)."""
    _check(g, lat)
    if f.grid != lat.grid:
        raise GridMismatchError("signal grid does not match lattice grid")
    b, P, p = lat.b, lat.n_freq, _order(lat)  # P = L / b; p = 1 when b = 1
    q = b // p
    if b == 1:
        c = f.values[None, :] * _rolled_windows(np.conj(g.values), lat)
        np.fft.fft(c, axis=1, out=c)
    else:
        Zf = _zak(f.values, p * P).reshape(p, P, q)
        c = np.einsum("unrl,url->lnr", _zak_windows(g.values, lat), np.conj(Zf))  # conj(H)
        c = np.fft.fftn(np.conj(c, out=c), axes=(0, 2), out=c).reshape(lat.n_time, P)
    c *= lat.grid.delta / q * _parity_signs(np.arange(P) * b)  # exp(2 pi i k b j0 / L)
    return c


def synthesis(g: Signal, lat: Lattice, c: np.ndarray) -> Signal:
    """Adjoint of :func:`analysis`: sum_{n,k} c[n,k] M_{k beta} T_{n alpha} g."""
    _check(g, lat)
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (lat.n_time, lat.n_freq):
        raise ValueError(f"coefficients must be {(lat.n_time, lat.n_freq)}, got {c.shape}")
    b, P, p = lat.b, lat.n_freq, _order(lat)
    sign = _parity_signs(np.arange(P) * b)
    if b == 1:
        w = c * (P * sign)  # one pass; the inverse FFT below scales by 1/P
        np.fft.ifft(w, axis=1, out=w)  # w[n, j]
        w *= _rolled_windows(g.values, lat)
        return Signal(lat.grid, w.sum(axis=0))
    V = c.reshape(b // p, -1, P) * sign  # V[n2, n1, k], n = n1 + n2 K/a
    np.fft.ifftn(V, axes=(0, 2), norm="forward", out=V)  # V[l, n1, r]
    Zs = np.einsum("unrl,lnr->url", _zak_windows(g.values, lat), V)  # the Zak transform of the sum
    return Signal(lat.grid, _unzak(Zs.reshape(p * P, -1)))


def _order(lat: Lattice) -> int:
    """p = a / gcd(a, P), the size of the symbol matrices."""
    return lat.a // gcd(lat.a, lat.n_freq)


def _zak_windows(g: np.ndarray, lat: Lattice) -> np.ndarray:
    """Read-only view W[u, n, r, l] = Zg[r + u P - n a, l], u < p, n < K/a, r < P.

    A strided view over the doubled array Zx below, as :func:`_rolled_windows` is over [g, g].
    """
    a, P, p = lat.a, lat.n_freq, _order(lat)
    K = p * P
    Z = _zak(g, K)
    q = Z.shape[1]
    Zx = np.concatenate([Z * np.exp(2j * np.pi * np.arange(q) / q), Z])  # Zx[y + K] = Zg[y], |y| < K
    row, col = Zx.strides
    return np.lib.stride_tricks.as_strided(
        Zx[K:], shape=(p, K // a, P, q), strides=(P * row, -a * row, row, col), writeable=False
    )


def _symbol(g: np.ndarray, lat: Lattice, rows: int) -> np.ndarray:
    """The symbol of rows r < ``rows``: shape (rows, q, p, p), one p x p matrix per (r, l)."""
    W = _zak_windows(g, lat)[:, :, :rows]
    return lat.grid.delta * lat.n_freq * np.einsum("unrl,vnrl->rluv", W, np.conj(W))


def _symbol_layout(v: np.ndarray, lat: Lattice) -> np.ndarray:
    """x[r, l, u] = Zv[r + u P, l] for r < P: the vectors the symbol acts on."""
    p, P = _order(lat), lat.n_freq
    return _zak(v, p * P).reshape(p, P, -1).transpose(1, 2, 0)


def _signal_layout(x: np.ndarray, lat: Lattice) -> Signal:
    """Inverse of :func:`_symbol_layout`."""
    return Signal(lat.grid, _unzak(x.transpose(2, 0, 1).reshape(-1, x.shape[1])))


def _frame_report(eigs: np.ndarray) -> FrameReport:
    return FrameReport(A=max(float(eigs.min()), 0.0), B=float(eigs.max()))


def frame_bounds(g: Signal, lat: Lattice) -> FrameReport:
    """Optimal frame bounds A, B: the extreme eigenvalues of the symbol rows r < gcd(a, P).

    When a b > L the system has L^2 / (a b) < L atoms, so S is singular and
    A = 0.  By Ron-Shen duality the nonzero spectrum of S is then that of the
    adjoint lattice (L/b, L/a), scaled by L / (a b); that lattice has a b < L.
    So the bounds never build a symbol of more than a b <= L entries.
    """
    _check(g, lat)
    if lat.redundancy < 1:  # a b > L; the adjoint lattice is (L/b, L/a) = (P, L/a)
        adjoint = frame_bounds(g, Lattice(lat.n_freq, lat.n_time, lat.grid))
        return FrameReport(A=0.0, B=lat.redundancy * adjoint.B)
    return _frame_report(_eigvalsh(_symbol(g.values, lat, gcd(lat.a, lat.n_freq))))


def _require_frame(rep: FrameReport) -> None:
    if not rep.is_frame:
        bounds = f"A={rep.A:.3e}, B={rep.B:.3e} (threshold A > {FRAME_RATIO:g} B)"
        raise NotAFrameError(f"system is not a frame: {bounds}")


def _frame_symbol(g: Signal, lat: Lattice) -> np.ndarray:
    """The symbol of rows r < min(a, P), once (g, lat) is known to be a frame."""
    _check(g, lat)
    if lat.redundancy < 1:
        _require_frame(frame_bounds(g, lat))  # raises: A = 0
    sym = _symbol(g.values, lat, min(lat.a, lat.n_freq))
    _require_frame(_frame_report(_eigvalsh(sym[: gcd(lat.a, lat.n_freq)])))
    return sym


def _eigvalsh(sym: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symbol matrices, shape (..., p).

    At p = 1 each matrix is the real scalar sym[..., 0, 0], which is also
    what LAPACK's n = 1 quick return gives, so no batched call is made.
    """
    return sym.real[..., 0] if sym.shape[-1] == 1 else np.linalg.eigvalsh(sym)


def _divide_rows(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x[r, l, 0] / d[r mod a, l, 0] for the p = 1 layout x of rows r < P and d of rows r < a."""
    return (x.reshape(-1, *d.shape) / d).reshape(x.shape)


def canonical_dual(g: Signal, lat: Lattice) -> Signal:
    """Dual window solving S g_dual = g, one p x p system per (r, l)."""
    sym = _frame_symbol(g, lat)
    x = _symbol_layout(g.values, lat)
    if sym.shape[-1] == 1:  # p = 1: each system is a division
        return _signal_layout(_divide_rows(x, sym[..., 0]), lat)
    sol = np.linalg.solve(sym[np.arange(lat.n_freq) % lat.a], x[..., None])[..., 0]
    return _signal_layout(sol, lat)


def canonical_tight(g: Signal, lat: Lattice) -> Signal:
    """Tight window S^{-1/2} g via the Hermitian eigendecomposition of the symbol."""
    sym = _frame_symbol(g, lat)
    x = _symbol_layout(g.values, lat)
    if sym.shape[-1] == 1:  # p = 1: S^{-1/2} divides by the square root of the scalar
        return _signal_layout(_divide_rows(x, np.sqrt(_eigvalsh(sym))), lat)
    w, U = np.linalg.eigh(sym)
    r = np.arange(lat.n_freq) % lat.a
    w, U = w[r], U[r]
    coeff = np.einsum("rlvu,rlv->rlu", np.conj(U), x)  # U^H g
    coeff /= np.sqrt(w)
    return _signal_layout(np.einsum("rlvu,rlu->rlv", U, coeff), lat)


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
