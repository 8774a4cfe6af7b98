"""Seeded workloads, their ops and the oracles that check every op.

A workload is generated in rounds.  Each round holds the same mix of op
kinds with fresh seeded parameters, so a run of whole rounds has the same
cost structure on every seed and the figures stay comparable across seeds.
Oracles are independent closed forms evaluated with plain numpy; they run
after the op's timer stops.

* ``scan``: frame-set scan requests through ``gaborlab.cli.run``.  One round
  visits every pair of power-of-two scales in (0, 2]^2 once per window with
  a seeded sub-rectangle whose cells all snap to that lattice, each request
  with a fresh cache dir so every lookup misses.
* ``lattice-sweep``: library calls on (window, grid, lattice) triples; one
  round is the whole triple set, and a run is exactly one round, so no
  lattice repeats within a process.
* ``cli-mix``: every other CLI command, expected validation and numerical
  failures, and cache repeats.  Each round is a session with its own cache
  dir; a fixed share of its lookups repeat an earlier request of the round.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL_EXACT = 1e-13  # closed forms that hold to rounding
TOL_RESIDUAL = 1e-10  # reconstruction and isometry residuals


@dataclass
class Op:
    """One timed request: ``call`` is timed, ``check`` is not."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    prepare: Callable[[], None] | None = None


# ---------------------------------------------------------------------------
# Closed forms, written without gaborlab.
# ---------------------------------------------------------------------------


def grid_x(L: int, delta: float) -> np.ndarray:
    return (np.arange(L) - L // 2) * delta


def closed_window(name: str, x: np.ndarray) -> np.ndarray:
    if name == "gaussian":
        return np.exp(-np.pi * x**2)
    if name == "bspline:2":
        return np.maximum(1.0 - np.abs(x), 0.0)
    raise ValueError(name)


def painless_bounds(g: np.ndarray, a: int, beta: float) -> tuple[float, float]:
    """Frame bounds when the support fits in 1/beta: S is diagonal,
    S = (1/beta) sum_n |g(x - n alpha)|^2 (Daubechies-Grossmann-Meyer)."""
    s = (np.abs(g) ** 2).reshape(-1, a).sum(axis=0)
    return float(s.min() / beta), float(s.max() / beta)


def trace_bound_failures(A: float, B: float, mean: float, tag: str) -> list[str]:
    """The mean eigenvalue of S is redundancy * ||g||^2, so A <= mean <= B."""
    tol = 1e-12 * max(1.0, abs(mean))
    if not (A - tol <= mean <= B + tol):
        return [f"oracle:{tag}_trace_bound"]
    return []


def gaussian_gram(points: list[tuple[float, float]]) -> np.ndarray:
    """<pi(z_k) g, pi(z_l) g> for the unit Gaussian, pi(a, b) = M_b T_a:
    e^{-pi |z_k - z_l|^2 / 2} times the phase e^{pi i (b_k - b_l)(a_k + a_l)}."""
    p = np.asarray(points, dtype=float)
    da = p[:, 0, None] - p[None, :, 0]
    db = p[:, 1, None] - p[None, :, 1]
    sa = p[:, 0, None] + p[None, :, 0]
    return np.exp(-np.pi * (da**2 + db**2) / 2) * np.exp(1j * np.pi * db * sa)


def close(x: float, want: float, tol: float) -> bool:
    return abs(x - want) <= tol * max(1.0, abs(want))


def fmt(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# Running CLI requests in process.
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    rc: int
    report: dict | None


def call_cli(argv: list[str]) -> CliResult:
    from gaborlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    text = out.getvalue()
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = None
    return CliResult(rc, report)


def artifact_names(result: dict) -> list[str]:
    names = list(result.get("artifacts", []))
    if "artifact" in result:
        names.append(result["artifact"])
    return names


@dataclass
class Request:
    """A CLI request with the exit code and oracle it must satisfy."""

    kind: str
    argv: list[str]
    outdir: str | None = None
    expect_rc: int = 0
    oracle: Callable[[dict], list[str]] | None = None
    repeat_of: "Request | None" = None

    @property
    def writes_artifacts(self) -> bool:
        return self.outdir is not None and self.expect_rc == 0

    def full_argv(self) -> list[str]:
        return self.argv + (["--outdir", self.outdir] if self.outdir else [])


def check_request(req: Request, res: CliResult) -> list[str]:
    if res.rc != req.expect_rc:
        return [f"exit:{req.kind}:{res.rc}!={req.expect_rc}"]
    if req.expect_rc != 0:
        return []
    if res.report is None or "result" not in res.report:
        return [f"oracle:{req.kind}_report"]
    result = res.report["result"]
    fails = []
    if req.outdir is not None:
        missing = [n for n in artifact_names(result) if not os.path.exists(os.path.join(req.outdir, n))]
        if missing:
            fails.append(f"artifact_missing:{req.kind}")
    if req.oracle is not None:
        fails += req.oracle(result)
    return fails


def cli_op(req: Request, cache_dir: str) -> Op:
    def prepare():
        os.environ["GABORLAB_CACHE_DIR"] = cache_dir

    argv = req.full_argv()
    return Op(
        kind=req.kind,
        call=lambda: call_cli(argv),
        check=lambda res: check_request(req, res),
        prepare=prepare,
    )


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    max_rounds: int | None = None  # None: whole rounds until time is up

    def __init__(self, smoke: bool, root: str):
        self.root = root

    def setup(self) -> None:
        """Imports, window sampling and warm-up of the first FFT/BLAS calls."""
        import gaborlab  # noqa: F401

        np.fft.fft(np.ones(1024))
        m = np.eye(8) + 0.1
        np.linalg.eigh(m)
        np.linalg.solve(m, np.ones(8))

    def round(self, r: int, rng: np.random.Generator) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> dict[int, list[str]]:
        """Failures found only once the round is over, keyed by op position."""
        return {}

    def grids(self) -> list[dict]:
        raise NotImplementedError


class Scan(Workload):
    name = "scan"
    WINDOWS = ("gaussian", "bspline:2")

    def __init__(self, smoke, root):
        super().__init__(smoke, root)
        self.L, self.delta = (256, 1 / 16) if smoke else (1024, 1 / 32)
        # Each request is a res x res map whose cells all snap to one lattice
        # (p_alpha, p_beta); a round visits every pair of scales once per
        # window, so rounds cost the same on every seed.
        self.scales = (0.25, 1.0) if smoke else (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)
        self.res = 2

    def grids(self):
        return [{"L": self.L, "delta": self.delta, "windows": list(self.WINDOWS)}]

    def setup(self):
        super().setup()
        from gaborlab import Lattice, SampleGrid, frame_bounds, parse_window, sample_window

        grid = SampleGrid(self.L, self.delta)
        g = sample_window(parse_window("gaussian"), grid)
        frame_bounds(g, Lattice(self.L // 32, self.L // 64, grid))
        x = grid_x(self.L, self.delta)
        self.g = {w: closed_window(w, x) for w in self.WINDOWS}
        self.norm2 = {w: self.delta * float(np.sum(v**2)) for w, v in self.g.items()}

    def check_map(self, window: str, outdir: str) -> list[str]:
        path = os.path.join(outdir, "frameset.csv")
        if not os.path.exists(path):
            return []  # reported as a missing artifact
        with open(path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        fails = []
        if len(rows) != self.res**2:
            fails.append("oracle:scan_cells")
        T = self.L * self.delta
        for row in rows:
            alpha, beta, A, B = (float(v) for v in row[2:6])
            label = row[6]
            if (window == "bspline:2") != bool(label):
                fails.append("oracle:scan_label")
            a, b = round(alpha / self.delta), round(beta * T)
            red = self.L / (a * b)
            fails += trace_bound_failures(A, B, red * self.norm2[window], "scan")
            if window == "bspline:2" and beta <= 0.5:
                pa, pb = painless_bounds(self.g[window], a, beta)
                if not (close(A, pa, 1e-12) and close(B, pb, 1e-12)):
                    fails.append("oracle:scan_painless")
                if (alpha, beta) == (1.0, 0.5) and not (
                    abs(A - 1.0) <= TOL_EXACT and abs(B - 2.0) <= TOL_EXACT
                ):
                    fails.append("oracle:bspline2_half")
        return fails

    def rect(self, p: float, rng) -> str:
        """[0.7p, 1.5p], scaled by a seeded factor in [0.95, 1.05]: both cell
        centres (0.9p and 1.3p, scaled) snap to the power of two p."""
        f = rng.uniform(0.95, 1.05)
        return f"{fmt(0.7 * p * f)}..{fmt(1.5 * p * f)}"

    def round(self, r, rng):
        jobs = [(pa, pb, w) for pa in self.scales for pb in self.scales for w in self.WINDOWS]
        ops = []
        for k in rng.permutation(len(jobs)):
            pa, pb, window = jobs[k]
            base = os.path.join(self.root, f"r{r}", f"q{len(ops)}")
            req = Request(
                "scan",
                ["scan", "--L", str(self.L), "--delta", repr(self.delta), "--window", window,
                 "--alpha", self.rect(pa, rng), "--beta", self.rect(pb, rng),
                 "--res", str(self.res), "--threads", "1"],
                outdir=os.path.join(base, "out"),
            )
            req.oracle = lambda result, w=window, od=req.outdir: self.check_map(w, od)
            ops.append(cli_op(req, os.path.join(base, "cache")))
        return ops


class LatticeSweep(Workload):
    name = "lattice-sweep"
    max_rounds = 1  # each triple once per run

    def __init__(self, smoke, root):
        super().__init__(smoke, root)
        if smoke:
            self.grid_specs = [(256, 1 / 16, ("gaussian", "bspline:2"))]
        else:
            trio = ("gaussian", "bspline:2", "bspline:3")
            self.grid_specs = [
                (1024, 1 / 16, trio),
                (1024, 1 / 32, trio),
                (1024, 1 / 64, trio),
                (2048, 1 / 64, trio),
                (2048, 1 / 32, trio + ("sech",)),
            ]
        self.zak_seen: list[tuple[int, tuple, float, float]] = []
        self.half_bounds: dict[tuple, tuple[float, float]] = {}

    def grids(self):
        return [{"L": L, "delta": d, "windows": list(w)} for L, d, w in self.grid_specs]

    def triples(self):
        """Frames with redundancy in (1, 8], alpha in [1/4, 2], beta in [1/8, 1];
        a B-spline of order N needs alpha < N (its support length)."""
        from gaborlab import divisors

        out = []
        for L, delta, windows in self.grid_specs:
            T = L * delta
            for w in windows:
                for a in divisors(L):
                    for b in divisors(L):
                        alpha, beta = a * delta, b / T
                        if not (1 < L / (a * b) <= 8 and 0.25 <= alpha <= 2 and 0.125 <= beta <= 1):
                            continue
                        if w.startswith("bspline:") and alpha >= int(w.split(":")[1]):
                            continue
                        out.append((w, L, delta, a, b))
        return out

    def setup(self):
        super().setup()
        from gaborlab import Lattice, SampleGrid, canonical_tight, parse_window, sample_window

        self.windows = {}
        for L, delta, names in self.grid_specs:
            grid = SampleGrid(L, delta)
            for w in names:
                self.windows[(w, L, delta)] = sample_window(parse_window(w), grid)
        g = self.windows[("gaussian",) + self.grid_specs[0][:2]]
        canonical_tight(g, Lattice(g.grid.L // 32, g.grid.L // 64, g.grid))

    def one(self, key, a, b, f):
        # module attributes are looked up per call, so the tracer sees them
        frames = importlib.import_module("gaborlab.frames")
        zak = importlib.import_module("gaborlab.zak")  # gaborlab.zak is the function
        g = self.windows[key]
        lat = frames.Lattice(a, b, g.grid)
        rep = frames.frame_bounds(g, lat)
        gd = frames.canonical_dual(g, lat)
        gt = frames.canonical_tight(g, lat)
        rec = frames.synthesis(g, lat, frames.analysis(gd, lat, f))
        return rep, gt, rec, zak.zak_tightness(g)

    def check(self, pos, key, a, b, f, out) -> list[str]:
        rep, gt, rec, zt = out
        w, L, delta = key
        red = L / (a * b)
        fails = []
        if not rep.is_frame:
            fails.append("oracle:sweep_not_frame")
        fails += trace_bound_failures(rep.A, rep.B, red * self.windows[key].norm ** 2, "sweep")
        if not close(red * gt.norm**2, 1.0, TOL_RESIDUAL):  # a tight frame with bound 1
            fails.append("oracle:tight_norm")
        err = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
        if not err <= TOL_RESIDUAL:
            fails.append("oracle:dual_round_trip")
        if (a * delta, b / (L * delta)) == (1.0, 0.5):
            self.half_bounds[key] = (rep.A, rep.B)
            if w == "bspline:2" and not (abs(rep.A - 1) <= TOL_EXACT and abs(rep.B - 2) <= TOL_EXACT):
                fails.append("oracle:bspline2_half")
        self.zak_seen.append((pos, key, zt.symbol_min, zt.symbol_max))
        return fails

    def finish(self):
        """The Zak symbol of g equals the block solver's A/B at (1, 1/2)."""
        fails: dict[int, list[str]] = {}
        for pos, key, zmin, zmax in self.zak_seen:
            if key not in self.half_bounds:
                continue  # pass cut before the (1, 1/2) lattice of this window
            A, B = self.half_bounds[key]
            if not (close(zmin, A, TOL_EXACT) and close(zmax, B, TOL_EXACT)):
                fails.setdefault(pos, []).append("oracle:zak_vs_blocks")
        return fails

    def round(self, r, rng):
        from gaborlab import Signal

        triples = self.triples()
        ops = []
        for k in rng.permutation(len(triples)):
            w, L, delta, a, b = triples[k]
            key = (w, L, delta)
            grid = self.windows[key].grid
            f = Signal(grid, rng.standard_normal(L) + 1j * rng.standard_normal(L))
            pos = len(ops)
            ops.append(Op(
                kind="sweep",
                call=lambda key=key, a=a, b=b, f=f: self.one(key, a, b, f),
                check=lambda out, pos=pos, key=key, a=a, b=b, f=f: self.check(pos, key, a, b, f, out),
            ))
        return ops


REGION_LABELS = {
    "not_frame_density", "not_frame_red_line", "painless", "region_b", "region_c",
    "region_d", "region_e", "region_f", "region_g", "unknown",
}


class CliMix(Workload):
    name = "cli-mix"
    # Per round: 27 fresh lookups, 4 requests rejected before the cache and
    # 9 repeats (5 keep the original --outdir, 4 use a new one), so a quarter
    # of the lookups hit.  Five heavy kinds (stft at both sizes, both Wilson
    # variants, hrt-extension) among 40 ops put p90 inside the stft/hrt
    # cluster rather than on the edge between two kinds.
    REPEATS = 9
    BEFORE_CACHE = ("bad-L", "missing-parameter", "non-numeric")

    def __init__(self, smoke, root):
        super().__init__(smoke, root)
        if smoke:
            self.base = ["--L", "256", "--delta", "0.0625"]
            self.wide = ["--L", "1024", "--delta", "0.0625"]  # T = 64 for slow decay
            self.wilson = (["--L", "128", "--delta", "0.125"], ["--L", "128", "--delta", "0.125"])
            self.ext_res = 40
        else:
            self.base = ["--L", "1024", "--delta", "0.03125"]
            self.wide = ["--L", "2048", "--delta", "0.03125"]
            self.wilson = (["--L", "512", "--delta", "0.03125"], ["--L", "256", "--delta", "0.0625"])
            self.ext_res = 120
        L, delta = int(self.base[1]), float(self.base[3])
        self.gauss_norm2 = delta * float(np.sum(closed_window("gaussian", grid_x(L, delta)) ** 2))

    def grids(self):
        def grid(args):
            return {"L": int(args[1]), "delta": float(args[3])}

        return [
            dict(grid(self.base), commands="stft framebounds dual tight hrt-gram hrt-extension"),
            dict(grid(self.wide), commands="stft (slow-decay windows)"),
            dict(grid(self.wilson[0]), commands="wilson classical"),
            dict(grid(self.wilson[1]), commands="wilson general"),
        ]

    @property
    def repeat_share(self) -> float:
        """Configured share of cache lookups that repeat an earlier request."""
        lookups = sum(1 for kind in self.fresh_kinds() if kind not in self.BEFORE_CACHE) + self.REPEATS
        return self.REPEATS / lookups

    @staticmethod
    def fresh_kinds() -> list[str]:
        heavy = ["stft", "stft-wide", "wilson-classical", "wilson-general", "hrt-extension"]
        light = 3 * ["hrt-gram", "classify-ab"] + 2 * [
            "framebounds", "dual", "tight", "bspline-dual", "janssen", "classify-points"
        ] + ["framebounds-half"]
        errors = ["duplicate-points", "bspline-dual-dense", "dual-not-frame", "bad-L", "bad-L",
                  "missing-parameter", "non-numeric"]
        return heavy + light + errors

    def setup(self):
        super().setup()
        out = os.path.join(self.root, "warmup")
        call_cli(["stft", *self.base, "--no-cache", "--outdir", out])

    # -- request builders -------------------------------------------------

    @staticmethod
    def _frame_target(rng):
        """A target within 10% of (2^i, 2^j), alpha * beta <= 1/2, so it snaps
        to a lattice of redundancy 2 or more on any power-of-two grid."""
        i = int(rng.integers(-2, 1))
        j = int(rng.integers(-2, -i))
        return 2.0**i * rng.uniform(0.9, 1.1), 2.0**j * rng.uniform(0.9, 1.1)

    def make(self, kind: str, rng: np.random.Generator, outdir: str) -> Request:
        base = self.base
        if kind == "stft":
            c = rng.uniform(0.5, 4.0)
            return Request(kind, ["stft", *base, "--signal-window", f"indicator:{fmt(c)}"],
                           outdir, oracle=stft_oracle)
        if kind == "stft-wide":
            window = ("sech", "exp_two_sided")[int(rng.integers(2))]
            c = rng.uniform(0.5, 4.0)
            return Request(kind, ["stft", *self.wide, "--window", window,
                                  "--signal-window", f"indicator:{fmt(c)}"], outdir, oracle=stft_oracle)
        if kind == "wilson-classical":
            return Request(kind, ["wilson", *self.wilson[0], "--beta", "0.5"], outdir, oracle=onb_oracle)
        if kind == "wilson-general":
            return Request(kind, ["wilson", *self.wilson[1], "--beta", "0.25", "--variant", "general"], outdir)
        if kind == "hrt-gram":
            n = int(rng.integers(4, 6))
            pts = [(float(fmt(a)), float(fmt(b))) for a, b in rng.uniform(-2, 2, size=(n, 2))]
            text = ";".join(f"{fmt(a)},{fmt(b)}" for a, b in pts)
            return Request(kind, ["hrt-gram", *base, "--points", text],
                           oracle=lambda res, pts=pts: gram_oracle(res, pts))
        if kind == "hrt-extension":
            a0 = rng.uniform(0.7, 1.5)
            return Request(kind, ["hrt-extension", *base, "--base", f"0,0;0,1;{fmt(a0)},0",
                                  "--domain", "-6..6", "--res", str(self.ext_res)], outdir,
                           oracle=extension_oracle)
        if kind == "framebounds-half":
            alpha, beta = rng.uniform(0.9, 1.1), rng.uniform(0.45, 0.55)  # snaps to (1, 1/2)
            return Request(kind, ["framebounds", *base, "--window", "bspline:2",
                                  "--alpha", fmt(alpha), "--beta", fmt(beta)], oracle=half_oracle)
        if kind == "framebounds":
            alpha, beta = self._frame_target(rng)
            return Request(kind, ["framebounds", *base, "--alpha", fmt(alpha), "--beta", fmt(beta)],
                           oracle=self.bounds_oracle)
        if kind in ("dual", "tight"):
            alpha, beta = self._frame_target(rng)
            oracle = self.dual_oracle if kind == "dual" else tight_oracle
            return Request(kind, [kind, *base, "--alpha", fmt(alpha), "--beta", fmt(beta)], outdir,
                           oracle=oracle)
        if kind == "bspline-dual":
            alpha, beta = rng.uniform(0.5, 1.2), rng.uniform(0.3, 0.6)
            return Request(kind, ["bspline-dual", "--window", "bspline:2", "--alpha", fmt(alpha),
                                  "--beta", fmt(beta)], outdir, oracle=janssen_oracle)
        if kind == "janssen":
            alpha, beta = rng.uniform(0.5, 1.2), rng.uniform(0.3, 0.6)
            return Request(kind, ["janssen", "--window", "bspline:3", "--alpha", fmt(alpha),
                                  "--beta", fmt(beta)], oracle=janssen_oracle)
        if kind == "classify-ab":
            alpha, beta = float(fmt(rng.uniform(0.1, 2.5))), float(fmt(rng.uniform(0.1, 2.5)))
            return Request(kind, ["classify", "--alpha", fmt(alpha), "--beta", fmt(beta)],
                           oracle=lambda res, ab=(alpha, beta): region_oracle(res, *ab))
        if kind == "classify-points":
            collinear = bool(rng.integers(2))
            if collinear:  # exact binary fractions keep the line exact
                slope, icpt = int(rng.integers(-2, 3)), int(rng.integers(-8, 9)) / 8
                ts = rng.choice(np.arange(-16, 17), size=4, replace=False) / 8
                pts = [(float(t), float(slope * t + icpt)) for t in ts]
            else:
                pts = [(float(fmt(a)), float(fmt(b))) for a, b in rng.uniform(-2, 2, size=(4, 2))]
            text = ";".join(f"{a!r},{b!r}" for a, b in pts)
            return Request(kind, ["classify", "--points", text],
                           oracle=lambda res, c=collinear: points_oracle(res, c))
        if kind == "bad-L":
            L = (1000, 1001, 1030, 2000)[int(rng.integers(4))]
            alpha, beta = self._frame_target(rng)
            return Request(kind, ["framebounds", "--L", str(L), "--alpha", fmt(alpha),
                                  "--beta", fmt(beta)], expect_rc=2)
        if kind == "missing-parameter":
            return Request(kind, ["framebounds", *base, "--alpha", fmt(rng.uniform(0.5, 1.5))], expect_rc=2)
        if kind == "non-numeric":
            return Request(kind, ["dual", *base, "--alpha", "one", "--beta", fmt(rng.uniform(0.2, 0.5))],
                           outdir, expect_rc=2)
        if kind == "duplicate-points":
            a, b = rng.uniform(-2, 2, size=2)
            p = f"{fmt(a)},{fmt(b)}"
            return Request(kind, ["hrt-gram", *base, "--points", f"0,0;{p};1,0;{p}"], expect_rc=2)
        if kind == "bspline-dual-dense":
            alpha = rng.uniform(1.0, 1.8)
            beta = rng.uniform(1.0, 1.5) / alpha  # alpha * beta >= 1
            return Request(kind, ["bspline-dual", "--window", "bspline:2", "--alpha", fmt(alpha),
                                  "--beta", fmt(beta)], outdir, expect_rc=2)
        if kind == "dual-not-frame":
            alpha, beta = rng.uniform(2.0, 2.5), rng.uniform(0.2, 0.4)  # gaps: alpha >= support
            return Request(kind, ["dual", *base, "--window", "bspline:2", "--alpha", fmt(alpha),
                                  "--beta", fmt(beta)], outdir, expect_rc=3)
        raise ValueError(kind)

    def bounds_oracle(self, result):
        mean = result["lattice"]["redundancy"] * self.gauss_norm2
        return trace_bound_failures(result["A"], result["B"], mean, "framebounds")

    def dual_oracle(self, result):
        lat = result["lattice"]
        mean = lat["redundancy"] * result["window_norm"] ** 2
        return trace_bound_failures(result["system_A"], result["system_B"], mean, "dual")

    def round(self, r, rng):
        rdir = os.path.join(self.root, f"r{r}")
        kinds = self.fresh_kinds()
        seq = [self.make(kinds[k], rng, os.path.join(rdir, f"o{n}"))
               for n, k in enumerate(rng.permutation(len(kinds)))]
        for k in range(self.REPEATS):
            targets = [i for i, q in enumerate(seq) if q.writes_artifacts and q.repeat_of is None]
            t = int(rng.choice(targets))
            orig = seq[t]
            outdir = orig.outdir if k % 2 == 0 else os.path.join(rdir, f"repeat{k}")
            rep = Request(f"{orig.kind}-repeat", orig.argv, outdir, oracle=orig.oracle, repeat_of=orig)
            seq.insert(int(rng.integers(t + 1, len(seq) + 1)), rep)
        cache_dir = os.path.join(rdir, "cache")
        return [cli_op(q, cache_dir) for q in seq]


def stft_oracle(result):
    ok = result["isometry_residual"] <= TOL_RESIDUAL and result["inversion_residual"] <= TOL_RESIDUAL
    return [] if ok else ["oracle:stft_residual"]


def onb_oracle(result):
    return [] if result["is_onb"] else ["oracle:wilson_onb"]


def gram_oracle(result, pts):
    want = np.linalg.eigvalsh(gaussian_gram(pts))
    got = np.asarray(result["eigenvalues"])
    ok = got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12
    return [] if ok else ["oracle:hrt_gram"]


def extension_oracle(result):
    """The extension function integrates to the base size and lies in [0, 1]."""
    ok = abs(result["integral"] - 3.0) <= TOL_RESIDUAL and result["F_min"] >= -1e-12 and result["F_max"] <= 1 + 1e-12
    return [] if ok else ["oracle:hrt_extension"]


def half_oracle(result):
    lat = result["lattice"]
    if (lat["alpha"], lat["beta"]) != (1.0, 0.5):
        return ["oracle:bspline2_half_snap"]
    ok = abs(result["A"] - 1.0) <= TOL_EXACT and abs(result["B"] - 2.0) <= TOL_EXACT
    return [] if ok else ["oracle:bspline2_half"]


def tight_oracle(result):
    """The canonical tight window has bounds 1 and squared norm 1/redundancy."""
    red = result["lattice"]["redundancy"]
    ok = (
        close(result["system_A"], 1.0, TOL_RESIDUAL)
        and close(result["system_B"], 1.0, TOL_RESIDUAL)
        and close(result["window_norm"] ** 2, 1.0 / red, TOL_RESIDUAL)
    )
    return [] if ok else ["oracle:tight"]


def janssen_oracle(result):
    return [] if result["janssen_residual"] <= TOL_RESIDUAL else ["oracle:janssen"]


def region_oracle(result, alpha, beta):
    """Density theorem: alpha * beta > 1 is never a frame; alpha < 1 with
    beta <= 1/2 is painless for the order-2 B-spline."""
    label = result["label"]
    if label not in REGION_LABELS:
        return ["oracle:classify_label"]
    if alpha * beta > 1 and label != "not_frame_density":
        return ["oracle:classify_density"]
    if alpha < 1 and beta <= 0.5 and label != "painless":
        return ["oracle:classify_painless"]
    return []


def points_oracle(result, collinear):
    return [] if ("collinear" in result["labels"]) == collinear else ["oracle:classify_points"]


WORKLOADS = {w.name: w for w in (Scan, LatticeSweep, CliMix)}

