"""Numerical experiments on linear independence of time-frequency shifts.

Finite configurations of time-frequency points are probed through Gramians
of their shifted-window families: the smallest eigenvalue is a quantitative
independence margin.  For a base triple, the extension function
F(a, b) = <A^{-1} u, u> (A the base Gramian, u the correlation column of one
more shift) measures how close the extra shift comes to the span of the
base; its integral over the plane equals the base size and 1 - F is the
determinant ratio of the bordered Gramian.

Nothing here proves or refutes independence; grids cannot certify the
continuum statement.  Reports carry raw eigenvalues.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import NumericalError, Signal, _cell_centres, tf_shift, translate

__all__ = [
    "Configuration",
    "GramianReport",
    "gramian",
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
COVERAGE_THRESHOLD = 1e-4  # extension_integral: largest F allowed on the domain boundary
LABEL_TOL = 1e-9  # classify_configuration: distance tolerance, times max |coord| (scale-invariant)
NORMAL_TOL = 1e-12  # normalize_configuration: distance tolerance, times max(1, max |coord|)


class InsufficientCoverageError(NumericalError):
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
    condition: float
    independence_threshold: float

    @property
    def independent(self) -> bool:
        return float(self.eigenvalues[0]) > self.independence_threshold


def _family_gram(g: Signal, points) -> tuple[np.ndarray, np.ndarray]:
    """The family pi(p_k) g, one row per point, and its Hermitian Gramian."""
    if g.norm == 0.0:
        raise ValueError("window must be nonzero")
    dt, df = np.ptp(np.asarray(points, dtype=float), axis=0)
    if dt >= g.grid.T / 2 or df >= 0.5 / g.grid.delta:  # the periodic grid aliases such shifts
        raise ValueError(
            f"points {dt:g} apart in time and {df:g} in frequency alias on a grid with "
            f"T/2 = {g.grid.T / 2:g} and 1/(2 delta) = {0.5 / g.grid.delta:g}"
        )
    fam = np.asarray([tf_shift(g, p).values for p in points])
    G = g.grid.delta * (fam @ np.conj(fam.T))
    return fam, (G + G.conj().T) / 2.0


def gramian(g: Signal, config: Configuration) -> GramianReport:
    """Gramian G[k, l] = <pi(p_k) g, pi(p_l) g> with spectral summary."""
    G = _family_gram(g, config.points)[1]
    eigs = np.linalg.eigvalsh(G)
    return GramianReport(
        G=G,
        eigenvalues=eigs,
        det=float(np.linalg.det(G).real),
        condition=float(eigs[-1] / eigs[0]) if eigs[0] > 0 else math.inf,
        independence_threshold=IND_RATIO * float(np.trace(G).real) / len(G),
    )


# ---------------------------------------------------------------------------
# Configuration geometry.
# ---------------------------------------------------------------------------


def _line(pts: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Unit direction u from pts[0] to the farthest point, and each point's position t along u.

    None when some point lies farther than ``tol`` (a distance) from that line.
    """
    d = pts - pts[0]
    r = np.hypot(d[:, 0], d[:, 1])
    u = d[np.argmax(r)] / np.max(r)
    # d @ (-u_y, u_x): signed distances from the line, here and below
    return None if np.any(np.abs(d @ (-u[1], u[0])) > tol) else (u, d @ u)


def _equispaced(t: np.ndarray, tol: float) -> bool:
    gaps = np.diff(np.sort(t))
    return bool(np.all(np.abs(gaps - gaps[0]) <= tol))


def classify_configuration(
    config: Configuration, lattice_matrix: np.ndarray | None = None
) -> list[str]:
    """All applicable geometric labels of a configuration.

    Points are on their line when none lies farther than the distance tol =
    1e-9 * max |coord| from the line through the first and the one
    farthest from it; t is the position along it.  Labels: "collinear" (on
    their line); if not, "collinear_equispaced_plus_one" (N >= 4, some N - 1
    on their line with equal gaps in sorted t), "one_three" (N = 4, some three
    on their line), "two_two" (N = 4, a pair at equal nonzero signed distances
    from the line through the other two), "symmetric_three_two" (N = 5, three
    on their line with equal gaps, the others' midpoint projecting onto the
    middle one and their difference parallel to it); "lattice_subset" when a
    full-rank ``lattice_matrix`` A is given and all points lie in p_0 + A Z^2.
    """
    pts = config.array()
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    tol = LABEL_TOL * float(np.max(np.abs(pts)))
    labels: list[str] = []

    if _line(pts, tol) is not None:
        labels.append("collinear")
    elif n >= 4:
        lines = [_line(np.delete(pts, off, axis=0), tol) for off in range(n)]
        lines = [line for line in lines if line is not None]
        if any(_equispaced(t, tol) for _, t in lines):
            labels.append("collinear_equispaced_plus_one")
        if n == 4 and lines:
            labels.append("one_three")
        if n == 4 and any(_two_two(pts, j, tol) for j in (1, 2, 3)):
            labels.append("two_two")
        if n == 5 and any(_symmetric_three_two(pts, list(idx), tol)
                          for idx in itertools.combinations(range(5), 3)):
            labels.append("symmetric_three_two")

    if lattice_matrix is not None:
        A = np.asarray(lattice_matrix, dtype=float)
        coords = np.linalg.solve(A, (pts - pts[0]).T).T
        if np.all(np.abs(coords - np.rint(coords)) <= 1e-9):
            labels.append("lattice_subset")

    return labels


def _two_two(pts: np.ndarray, j: int, tol: float) -> bool:
    u, _ = _line(pts[[0, j]], tol)
    s = (np.delete(pts, [0, j], axis=0) - pts[0]) @ (-u[1], u[0])
    return bool(abs(s[0] - s[1]) <= tol < abs(s[0]))  # parallel lines, distinct lines


def _symmetric_three_two(pts: np.ndarray, triple: list[int], tol: float) -> bool:
    line = _line(pts[triple], tol)
    if line is None or not _equispaced(line[1], tol):
        return False
    (u, t), (p, q) = line, np.delete(pts, triple, axis=0)
    on_middle = abs(((p + q) / 2.0 - pts[triple[0]]) @ u - np.sort(t)[1]) <= tol
    return bool(on_middle and abs((q - p) @ (-u[1], u[0])) <= tol)


@dataclass(frozen=True)
class NormalizationRecord:
    """Affine map p -> scale * B (p - offset) with det B = 1."""

    matrix: np.ndarray  # 2x2, det 1 (rotation composed with shear)
    scale: float
    offset: tuple[float, float]

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return self.scale * (np.asarray(pts, dtype=float) - self.offset) @ self.matrix.T


def _contains_normal_triple(pts: np.ndarray) -> bool:
    tol = NORMAL_TOL  # the normal form's coordinates are of order one
    has_origin = np.any(np.all(np.abs(pts) <= tol, axis=1))
    has_01 = np.any((np.abs(pts[:, 0]) <= tol) & (np.abs(pts[:, 1] - 1.0) <= tol))
    has_a0 = np.any((np.abs(pts[:, 1]) <= tol) & (np.abs(pts[:, 0]) > tol))
    return bool(has_origin and has_01 and has_a0)


def normalize_configuration(config: Configuration) -> tuple[Configuration, NormalizationRecord]:
    """Map the configuration so it contains (0,0), (0,1) and some (a,0), a != 0.

    Composes a translation, a rotation with scaling, and a shear built on the
    first ordered triple not on its line (distance tolerance 1e-12 * max(1,
    max |coord|), as for the collinearity check); the record keeps the
    determinant-1 matrix, the scale and the offset.  This is a pure
    coordinate operation; window samples are not transformed.
    """
    pts = config.array()
    if len(pts) < 3:
        raise ValueError("need at least three points")
    tol = NORMAL_TOL * max(1.0, float(np.max(np.abs(pts))))
    if _line(pts, tol) is not None:
        raise ValueError("configuration is collinear; normal form needs a non-degenerate triple")
    if _contains_normal_triple(pts):
        return config, NormalizationRecord(matrix=np.eye(2), scale=1.0, offset=(0.0, 0.0))

    # one exists: pts[0], its farthest point and a point off their line
    triples = map(list, itertools.permutations(range(len(pts)), 3))
    p1, p2, p3 = pts[next(ijk for ijk in triples if _line(pts[ijk], tol) is None)]
    v = p2 - p1
    s = 1.0 / math.hypot(*v)
    # rotation taking v/|v| to (0, 1)
    c, d = v * s
    R = np.array([[d, -c], [c, d]])
    q3 = s * (R @ (p3 - p1))
    shear = np.array([[1.0, 0.0], [-q3[1] / q3[0], 1.0]])
    record = NormalizationRecord(matrix=shear @ R, scale=s, offset=(float(p1[0]), float(p1[1])))
    mapped = record.apply(pts)
    mapped[np.abs(mapped) < 1e-14] = 0.0
    return Configuration(tuple(map(tuple, mapped))), record


# ---------------------------------------------------------------------------
# Extension function.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionField:
    """F(a, b) over a rectangular grid, for the base in its normal form."""

    base: Configuration
    a_grid: np.ndarray
    b_grid: np.ndarray
    F: np.ndarray = field(repr=False)  # shape (len(b_grid), len(a_grid))

    @property
    def cell_area(self) -> float:
        da = float(self.a_grid[1] - self.a_grid[0])
        db = float(self.b_grid[1] - self.b_grid[0])
        return da * db


def _flush_subnormals(z: np.ndarray) -> np.ndarray:
    """z with its subnormal real and imaginary parts set to zero, in place.

    Products of tiny window samples with the rounding noise of the FFT
    translates underflow; subnormal operands slow the BLAS product severalfold.
    """
    parts = z.view(np.float64)
    parts[np.abs(parts) < np.finfo(np.float64).tiny] = 0.0
    return z


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
    area approximates the plane integral.  Centres must stay below
    min(T/2, 1/(2 delta)) in absolute value, where the grid aliases shifts.
    """
    if len(base) != 3:
        raise ValueError("base configuration must have exactly three points")
    a_grid = b_grid = _cell_centres(*domain, resolution, "domain")  # one grid for both axes
    # the phases 2 pi b x (|x| <= T/2) and the shifts a / delta must stay finite
    if not math.isfinite(2.0 * math.pi * max(map(abs, domain)) * max(g.grid.T, 1.0 / g.grid.delta)):
        raise ValueError(f"domain {domain[0]:g}..{domain[1]:g} overflows the phases of this grid")
    base = normalize_configuration(base)[0]
    g = g.unit()
    fam, A = _family_gram(g, base.points)
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 1e-12 * eigs[-1]:
        raise ValueError(f"base Gramian is not positive definite (eigs {eigs})")
    reach = min(g.grid.T / 2, 0.5 / g.grid.delta)
    if np.abs(a_grid).max() >= reach:
        raise ValueError(
            f"domain {domain[0]:g}..{domain[1]:g} reaches min(T/2, 1/(2 delta)) = {reach:g}, "
            "where the grid aliases shifts"
        )
    Ainv = np.linalg.inv(A)

    x = g.grid.x()
    E = np.exp(-2j * np.pi * np.outer(b_grid, x))  # (n_b, L)
    conj_shifted = np.conj([translate(g, a).values for a in a_grid])  # (n_a, L)
    # U[k, i, j] = delta * sum_x E[i, x] fam[k, x] conj(T_{a_j} g)(x): one product per base point
    operands = (_flush_subnormals(fam[k] * conj_shifted) for k in range(3))
    U = np.stack([g.grid.delta * (E @ op.T) for op in operands])
    F = np.einsum("kij,kl,lij->ij", np.conj(U), Ainv, U).real
    return ExtensionField(base=base, a_grid=a_grid, b_grid=b_grid, F=F)


def extension_integral(field: ExtensionField) -> float:
    """Riemann sum of F times cell area; requires decayed boundary values."""
    F = field.F
    boundary = np.concatenate([F[0, :], F[-1, :], F[:, 0], F[:, -1]])
    worst = float(np.max(boundary))
    if worst > COVERAGE_THRESHOLD:
        raise InsufficientCoverageError(
            f"boundary max F = {worst:.3e} exceeds {COVERAGE_THRESHOLD:g}; "
            "enlarge the domain to cover the effective support"
        )
    return float(np.sum(F) * field.cell_area)


def far_field_radius(field: ExtensionField, threshold: float) -> float:
    """Smallest radius beyond which all sampled F values stay below threshold."""
    A, B = np.meshgrid(field.a_grid, field.b_grid)
    bad = field.F >= threshold
    return float(np.max(np.hypot(A, B)[bad])) if np.any(bad) else 0.0


def schur_identity_check(g: Signal, base: Configuration, point: tuple[float, float]) -> float:
    """Relative residual of det G = (1 - F) det A for the bordered Gramian."""
    if len(base) != 3:
        raise ValueError("base configuration must have exactly three points")
    g = g.unit()
    G = _family_gram(g, base.points + (tuple(point),))[1]
    A = G[:3, :3]
    u = G[:3, 3]
    F = float(np.real(np.conj(u) @ np.linalg.solve(A, u)))
    detG = complex(np.linalg.det(G)).real
    detA = complex(np.linalg.det(A)).real
    return abs(detG - (1.0 - F) * detA) / abs(detA)
