"""Numerical experiments on linear independence of time-frequency shifts.

Finite configurations of time-frequency points are probed through Gramians
of their shifted-window families: the smallest eigenvalue is a quantitative
independence margin, its eigenvector a near-dependence witness.  For a base
triple, the extension function F(a, b) = <A^{-1} u, u> (A the base Gramian,
u the correlation column of one more shift) measures how close the extra
shift comes to the span of the base; its integral over the plane equals the
base size and 1 - F is the determinant ratio of the bordered Gramian.

Nothing here proves or refutes independence; grids cannot certify the
continuum statement.  Reports carry raw eigenvalues and refinement deltas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import SampleGrid, Signal, inner, tf_shift, translate

__all__ = [
    "Configuration",
    "GramianReport",
    "gramian",
    "independence_probe",
    "IndependenceReport",
    "classify_configuration",
    "normalize_configuration",
    "NormalizationRecord",
    "ExtensionField",
    "extension_field",
    "extension_integral",
    "far_field_radius",
    "schur_identity_check",
    "InsufficientCoverageError",
]

IND_RATIO = 1e-8  # independence threshold: lambda_min > IND_RATIO * trace/N


class InsufficientCoverageError(ValueError):
    """Field domain does not cover the effective support of F."""


@dataclass(frozen=True)
class Configuration:
    """A finite set of distinct time-frequency points."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(a), float(b)) for a, b in self.points)
        try:
            rounded = {(round(a / 1e-12), round(b / 1e-12)) for a, b in pts}
        except (OverflowError, ValueError):  # nan, inf, or too large for the 1e-12 grid
            raise ValueError(
                "configuration point coordinates must be finite and small enough "
                "to compare at 1e-12 resolution"
            ) from None
        if len(rounded) != len(pts):
            raise ValueError("configuration points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


@dataclass(frozen=True)
class GramianReport:
    """Gramian of the shifted-window family and its spectral summary."""

    G: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray  # ascending
    det: float
    smallest_singular_value: float
    condition: float
    independence_threshold: float

    @property
    def independent(self) -> bool:
        return float(self.eigenvalues[0]) > self.independence_threshold


def _shifted_family(g: Signal, config: Configuration) -> np.ndarray:
    return np.asarray([tf_shift(g, p).values for p in config.points])


def gramian(g: Signal, config: Configuration) -> GramianReport:
    """Gramian G[k, l] = <pi(p_k) g, pi(p_l) g> with spectral summary."""
    if g.norm == 0.0:
        raise ValueError("window must be nonzero")
    fam = _shifted_family(g, config)
    G = g.grid.delta * (fam @ np.conj(fam.T))
    G = (G + G.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(G)
    n = len(config)
    thr = IND_RATIO * float(np.trace(G).real) / n
    sigma_min = float(max(eigs[0], 0.0))
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else math.inf
    return GramianReport(
        G=G,
        eigenvalues=eigs,
        det=float(np.linalg.det(G).real),
        smallest_singular_value=sigma_min,
        condition=cond,
        independence_threshold=thr,
    )


@dataclass(frozen=True)
class IndependenceReport:
    """Gramian report plus the minimizing-coefficient witness."""

    gram: GramianReport
    witness: np.ndarray  # unit coefficient vector of the smallest eigenvalue
    residual: float  # || sum_k c_k pi(p_k) g ||

    @property
    def rayleigh_gap(self) -> float:
        """| residual^2 - lambda_min |, an internal consistency check."""
        return abs(self.residual**2 - float(self.gram.eigenvalues[0]))


def refinement_drift(window_spec, config: Configuration, grid: SampleGrid, factor: int = 2):
    """Smallest Gramian eigenvalue at the given grid and a refined one.

    Grids cannot certify independence; the drift of the smallest eigenvalue
    under refinement (same period, delta / factor) exposes how much of the
    reported margin is discretization.  Returns (coarse, fine, drift).
    """
    from .windows import sample_window

    fine_grid = SampleGrid(grid.L * factor, grid.delta / factor)
    coarse = float(gramian(sample_window(window_spec, grid).unit(), config).eigenvalues[0])
    fine = float(gramian(sample_window(window_spec, fine_grid).unit(), config).eigenvalues[0])
    drift = abs(fine - coarse) / coarse if coarse > 0 else math.inf
    return coarse, fine, drift


def independence_probe(g: Signal, config: Configuration) -> IndependenceReport:
    """Smallest-eigenvalue witness of near-dependence for the shift family."""
    fam = _shifted_family(g, config)
    rep = gramian(g, config)
    w, U = np.linalg.eigh(rep.G)
    # || sum_k c_k phi_k ||^2 = c^H conj(G) c, so the minimizing coefficients
    # are the conjugate of the smallest eigenvector of G
    c = np.conj(U[:, 0])
    combo = Signal(g.grid, c @ fam)
    return IndependenceReport(gram=rep, witness=c, residual=combo.norm)


# ---------------------------------------------------------------------------
# Configuration geometry.
# ---------------------------------------------------------------------------


def _collinear(pts: np.ndarray, tol: float) -> bool:
    if len(pts) <= 2:
        return True
    p0 = pts[0]
    d = pts[1:] - p0
    # direction of largest spread
    i = int(np.argmax(np.hypot(d[:, 0], d[:, 1])))
    u = d[i]
    nu = math.hypot(u[0], u[1])
    if nu == 0:
        return True
    cross = np.abs(d[:, 0] * u[1] - d[:, 1] * u[0]) / nu
    return bool(np.all(cross <= tol))


def _equispaced_on_line(pts: np.ndarray, tol: float) -> bool:
    if not _collinear(pts, tol):
        return False
    p0 = pts[0]
    d = pts - p0
    i = int(np.argmax(np.hypot(d[:, 0], d[:, 1])))
    u = d[i] / math.hypot(*d[i])
    t = np.sort(d @ u)
    gaps = np.diff(t)
    return bool(len(gaps) == 0 or np.all(np.abs(gaps - gaps[0]) <= tol))


def classify_configuration(
    config: Configuration,
    lattice_matrix: np.ndarray | None = None,
    lattice_offset: tuple[float, float] = (0.0, 0.0),
    tol: float = 1e-9,
) -> list[str]:
    """All applicable geometric labels of a configuration.

    Labels: "collinear"; "collinear_equispaced_plus_one" (all but one point
    collinear and equispaced, N >= 4); "one_three" (four points, three
    collinear); "two_two" (four points, two per parallel line);
    "symmetric_three_two" (five points: an equispaced symmetric collinear
    triple plus a mirror pair on a parallel line); "lattice_subset" when a
    full-rank ``lattice_matrix`` A (and offset z) is supplied and every
    point lies in A Z^2 + z.
    """
    pts = config.array()
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    scale = max(1.0, float(np.max(np.abs(pts))))
    tol = tol * scale
    labels: list[str] = []

    if _collinear(pts, tol):
        labels.append("collinear")

    if n >= 4 and "collinear" not in labels:
        for off in range(n):
            rest = np.delete(pts, off, axis=0)
            if _collinear(rest, tol) and _equispaced_on_line(rest, tol):
                labels.append("collinear_equispaced_plus_one")
                break

    if n == 4 and "collinear" not in labels:
        for off in range(4):
            rest = np.delete(pts, off, axis=0)
            if _collinear(rest, tol):
                labels.append("one_three")
                break
        for split in ((0, 1), (0, 2), (0, 3)):
            a = pts[list(split)]
            b = np.delete(pts, list(split), axis=0)
            ua = a[1] - a[0]
            ub = b[1] - b[0]
            cross = abs(ua[0] * ub[1] - ua[1] * ub[0])
            if cross <= tol * max(1.0, np.linalg.norm(ua) * np.linalg.norm(ub)):
                # parallel directions; lines must be distinct
                w = b[0] - a[0]
                if abs(w[0] * ua[1] - w[1] * ua[0]) > tol * max(1.0, np.linalg.norm(ua)):
                    labels.append("two_two")
                    break

    if n == 5 and "collinear" not in labels:
        if _is_symmetric_three_two(pts, tol):
            labels.append("symmetric_three_two")

    if lattice_matrix is not None:
        A = np.asarray(lattice_matrix, dtype=float)
        z = np.asarray(lattice_offset, dtype=float)
        coords = np.linalg.solve(A, (pts - z).T).T
        if np.all(np.abs(coords - np.rint(coords)) <= 1e-9):
            labels.append("lattice_subset")

    return labels


def _is_symmetric_three_two(pts: np.ndarray, tol: float) -> bool:
    for triple_idx in itertools.combinations(range(5), 3):
        triple = pts[list(triple_idx)]
        pair = np.delete(pts, list(triple_idx), axis=0)
        if not _collinear(triple, tol):
            continue
        d = triple - triple[0]
        i = int(np.argmax(np.hypot(d[:, 0], d[:, 1])))
        nu = math.hypot(*d[i])
        if nu == 0:
            continue
        u = d[i] / nu
        t = np.sort(triple @ u)
        if abs((t[1] - t[0]) - (t[2] - t[1])) > tol:
            continue  # not equispaced-symmetric about the middle point
        q = triple[np.argsort(triple @ u)][1]  # middle point
        # pair must be q_perp +- c u with the connecting vector orthogonal to u
        r = (pair[0] + pair[1]) / 2.0
        if abs((r - q) @ u) > tol:
            continue
        diff = pair[1] - pair[0]
        if abs(diff[0] * u[1] - diff[1] * u[0]) <= tol * max(1.0, np.linalg.norm(diff)):
            return True
    return False


@dataclass(frozen=True)
class NormalizationRecord:
    """Affine map p -> scale * B (p - offset) with det B = 1."""

    matrix: np.ndarray  # 2x2, det 1 (rotation composed with shear)
    scale: float
    offset: tuple[float, float]

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(pts, dtype=float) - self.offset) @ self.matrix.T


def _contains_normal_triple(pts: np.ndarray, tol: float = 1e-12) -> bool:
    has_origin = np.any(np.all(np.abs(pts) <= tol, axis=1))
    has_01 = np.any((np.abs(pts[:, 0]) <= tol) & (np.abs(pts[:, 1] - 1.0) <= tol))
    has_a0 = np.any((np.abs(pts[:, 1]) <= tol) & (np.abs(pts[:, 0]) > tol))
    return bool(has_origin and has_01 and has_a0)


def normalize_configuration(config: Configuration) -> tuple[Configuration, NormalizationRecord]:
    """Map the configuration so it contains (0,0), (0,1) and some (a,0), a != 0.

    Composes a translation, a rotation with scaling, and a shear; the record
    keeps the determinant-1 matrix, the scale and the offset.  This is a
    pure coordinate operation; window samples are not transformed.
    """
    pts = config.array()
    if len(pts) < 3:
        raise ValueError("need at least three points")
    if _collinear(pts, 1e-12 * max(1.0, float(np.max(np.abs(pts))))):
        raise ValueError("configuration is collinear; normal form needs a non-degenerate triple")
    if _contains_normal_triple(pts):
        record = NormalizationRecord(matrix=np.eye(2), scale=1.0, offset=(0.0, 0.0))
        return config, record

    chosen = None
    for i, j, k in itertools.permutations(range(len(pts)), 3):
        p1, p2, p3 = pts[i], pts[j], pts[k]
        v = p2 - p1
        w = p3 - p1
        if abs(v[0] * w[1] - v[1] * w[0]) > 1e-12:
            chosen = (p1, p2, p3)
            break
    p1, p2, p3 = chosen
    v = p2 - p1
    s = 1.0 / math.hypot(*v)
    # rotation taking v/|v| to (0, 1)
    c, d = v * s
    R = np.array([[d, -c], [c, d]])
    q3 = s * (R @ (p3 - p1))
    shear = np.array([[1.0, 0.0], [-q3[1] / q3[0], 1.0]])
    B = shear @ R
    record = NormalizationRecord(matrix=B, scale=s, offset=(float(p1[0]), float(p1[1])))
    mapped = record.apply(pts)
    mapped[np.abs(mapped) < 1e-14] = 0.0
    return Configuration(tuple(map(tuple, mapped))), record


# ---------------------------------------------------------------------------
# Extension function.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionField:
    """F(a, b) over a rectangular grid, with the base Gramian attached."""

    base: Configuration
    a_grid: np.ndarray
    b_grid: np.ndarray
    F: np.ndarray = field(repr=False)  # shape (len(b_grid), len(a_grid))
    base_gram: np.ndarray = field(repr=False)
    normalization: NormalizationRecord | None

    @property
    def cell_area(self) -> float:
        da = float(self.a_grid[1] - self.a_grid[0])
        db = float(self.b_grid[1] - self.b_grid[0])
        return da * db


def _ensure_normal_base(base: Configuration) -> tuple[Configuration, NormalizationRecord | None]:
    if _contains_normal_triple(base.array()):
        return base, None
    normalized, record = normalize_configuration(base)
    return normalized, record


def extension_field(
    g: Signal,
    base: Configuration,
    domain: tuple[float, float] = (-6.0, 6.0),
    resolution: int = 240,
) -> ExtensionField:
    """Evaluate F(a, b) = <A^{-1} u(a,b), u(a,b)> over the square domain^2.

    The window is normalized to unit norm; the base is brought to the
    normal form containing (0,0), (0,1), (a0,0) first (coordinates only).
    Grid points are cell centers, so the Riemann sum of F times the cell
    area approximates the plane integral.
    """
    if len(base) != 3:
        raise ValueError("base configuration must have exactly three points")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    base, record = _ensure_normal_base(base)
    g = g.unit()
    fam = _shifted_family(g, base)
    A = g.grid.delta * (fam @ np.conj(fam.T))
    A = (A + A.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 1e-12 * eigs[-1]:
        raise ValueError(f"base Gramian is not positive definite (eigs {eigs})")
    Ainv = np.linalg.inv(A)

    a_grid = domain[0] + (domain[1] - domain[0]) * (np.arange(resolution) + 0.5) / resolution
    b_grid = a_grid  # the same cell centers on both axes

    x = g.grid.x()
    E = np.exp(-2j * np.pi * np.outer(b_grid, x))  # (n_b, L)
    gq = g.values
    U = np.empty((3, len(b_grid), len(a_grid)), dtype=np.complex128)
    for ja, a in enumerate(a_grid):
        shifted = translate(g, a).values
        for k in range(3):
            w = fam[k] * np.conj(shifted)
            U[k, :, ja] = g.grid.delta * (E @ w)
    F = np.einsum("kij,kl,lij->ij", np.conj(U), Ainv, U).real
    return ExtensionField(
        base=base, a_grid=a_grid, b_grid=b_grid, F=F, base_gram=A, normalization=record
    )


def extension_integral(field: ExtensionField, coverage_threshold: float = 1e-4) -> float:
    """Riemann sum of F times cell area; requires decayed boundary values."""
    F = field.F
    boundary = np.concatenate([F[0, :], F[-1, :], F[:, 0], F[:, -1]])
    worst = float(np.max(boundary))
    if worst > coverage_threshold:
        raise InsufficientCoverageError(
            f"boundary max F = {worst:.3e} exceeds {coverage_threshold:g}; "
            "enlarge the domain to cover the effective support"
        )
    return float(np.sum(F) * field.cell_area)


def far_field_radius(field: ExtensionField, threshold: float) -> float:
    """Smallest radius beyond which all sampled F values stay below threshold."""
    A, B = np.meshgrid(field.a_grid, field.b_grid)
    R = np.hypot(A, B)
    order = np.argsort(R.ravel())[::-1]
    fvals = field.F.ravel()[order]
    radii = R.ravel()[order]
    bad = fvals >= threshold
    if not np.any(bad):
        return 0.0
    return float(radii[np.argmax(bad)])


def schur_identity_check(g: Signal, base: Configuration, point: tuple[float, float]) -> float:
    """Relative residual of det G = (1 - F) det A for the bordered Gramian."""
    if len(base) != 3:
        raise ValueError("base configuration must have exactly three points")
    g = g.unit()
    pts = base.points + (tuple(point),)
    fam = np.asarray([tf_shift(g, p).values for p in pts])
    G = g.grid.delta * (fam @ np.conj(fam.T))
    G = (G + G.conj().T) / 2.0
    A = G[:3, :3]
    u = G[:3, 3]
    F = float(np.real(np.conj(u) @ np.linalg.solve(A, u)))
    detG = complex(np.linalg.det(G)).real
    detA = complex(np.linalg.det(A)).real
    return abs(detG - (1.0 - F) * detA) / abs(detA)
