"""Spans around the public functions of every gaborlab module.

The tracer lives entirely in the benchmark: it wraps each function a module
lists in ``__all__`` (plus ``cli.run`` and ``RunConfig.validate``) and
rebinds every copy of it, including the names other modules imported with
``from .x import f``.  Each span records (name, start, end, parent, op id);
spans stay in memory and are written out when the run ends.  Counts that
are derived from argument shapes and return values are recorded at the same
boundaries, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = (
    "core", "windows", "stft", "lattices", "frames", "zak", "duality",
    "frameset", "wilson", "hrt", "serialize", "cache", "config", "cli",
)

# fmt_float formats one float; a span per float would cost more than the
# formatting itself, so its time stays in the calling function's self time.
UNTRACED = {"serialize.fmt_float"}


def _gmac_blocks(counts, args, out):
    lat = args[1]
    counts["frames.blocks_gmac"] += lat.n_time * lat.n_freq * lat.b**2 / 1e9


def _eig_blocks(counts, args, out):
    counts["frames.eig_blocks"] += args[1].n_freq  # one b x b block per residue


def _scan_cells(counts, args, out):
    cells = out.resolution**2
    pairs = {
        (a, b)
        for a, b in zip(out.alpha_snapped.ravel().tolist(), out.beta_snapped.ravel().tolist())
        if a == a and b == b  # NaN marks an unsnappable cell
    }
    counts["frameset.cells"] += cells
    counts["frameset.distinct_lattices"] += len(pairs)


def _gram_onb(counts, args, out):
    n, L = args[0].atoms.shape
    counts["wilson.gram_gmac"] += n * n * L / 1e9  # Psi Psi^H


def _gram_parseval(counts, args, out):
    n, L = args[0].atoms.shape
    counts["wilson.gram_gmac"] += L * L * n / 1e9  # Psi^T conj(Psi)


def _ext_points(counts, args, out):
    counts["hrt.extension_points"] += out.F.size


def _serialized_bytes(counts, args, out):
    if isinstance(out, (str, bytes)):
        counts["serialize.bytes"] += len(out)


def _cli_exit(counts, args, out):
    if out in (2, 3):
        counts[f"cli.exit_{out}"] += 1


# counts derived from array shapes and return values, not measured
COMPUTED = (
    "frames.blocks_gmac", "frames.eig_blocks", "wilson.gram_gmac",
    "hrt.extension_points", "serialize.bytes",
)

COUNTERS = {
    "frames.frame_operator_blocks": _gmac_blocks,
    "frames.frame_bounds": _eig_blocks,
    "frames.canonical_tight": _eig_blocks,
    "frameset.scan_frame_set": _scan_cells,
    "wilson.wilson_onb_report": _gram_onb,
    "wilson.wilson_parseval_residual": _gram_parseval,
    "hrt.extension_field": _ext_points,
    "cli.run": _cli_exit,
}


class Tracer:
    """In-memory span recorder that patches gaborlab while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(self.counts, args, out)
            return out

        return traced

    def _wrap_cache(self, fn):
        """cache_get_or_compute, with the compute thunk as a cli span."""

        def lookup(key, thunk, *args, **kwargs):
            # a lookup misses when the thunk runs, even if the thunk raises
            computed = []

            def compute():
                computed.append(True)
                return thunk()

            try:
                return fn(key, self.wrap("cli.compute", compute), *args, **kwargs)
            finally:
                self.counts["cache.misses" if computed else "cache.hits"] += 1

        return self.wrap("cache.cache_get_or_compute", lookup)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"gaborlab.{m}") for m in MODULES}
        wrapped: dict[int, tuple] = {}  # id -> (home module, name, wrapper, original)
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + (["run"] if short == "cli" else [])
            for attr in names:
                fn = getattr(mod, attr)
                full = f"{short}.{attr}"
                if inspect.isclass(fn) or not callable(fn) or full in UNTRACED:
                    continue
                if full == "cache.cache_get_or_compute":
                    wrapper = self._wrap_cache(fn)
                else:
                    counter = COUNTERS.get(full)
                    if counter is None and short == "serialize":
                        counter = _serialized_bytes
                    wrapper = self.wrap(full, fn, counter)
                wrapped[id(fn)] = (mod, attr, wrapper, fn)
        namespaces = [importlib.import_module("gaborlab"), *mods.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                entry = wrapped.get(id(value))
                if entry is None:
                    continue
                home, _, wrapper, fn = entry
                # a self-recursive function keeps its own untraced name, so a
                # recursive call is not a span of its own
                code = getattr(fn, "__code__", None)
                if ns is home and code is not None and fn.__name__ in code.co_names:
                    continue
                self._restore.append((ns, attr, value))
                setattr(ns, attr, wrapper)
        run_config = mods["config"].RunConfig
        self._restore.append((run_config, "validate", run_config.validate))
        run_config.validate = self.wrap("config.validate", run_config.validate)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_tree(spans: list[list], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: children outside parents, negative self time."""
    problems = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            pname, pstart, pend, _, pop = spans[parent]
            if parent >= i or start < pstart or end > pend or op != pop:
                problems.append(f"span {i} {name} is not enclosed by its parent {pname}")
    for i, own in enumerate(self_times(spans)):
        if own < -tol:
            problems.append(f"span {i} {spans[i][0]} has negative self time {own}")
    return problems


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run: self seconds, calls and counts."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    for (name, *_), t in zip(spans, own):
        calls[name] += 1
        secs[name] += t
    mod_calls: dict[str, int] = defaultdict(int)
    mod_secs: dict[str, float] = defaultdict(float)
    for name in calls:
        mod = name.split(".", 1)[0]
        mod_calls[mod] += calls[name]
        mod_secs[mod] += secs[name]

    def s(*names):
        return sum(secs[n] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    solves = {i for i, sp in enumerate(spans) if sp[0] in ("frames.canonical_dual", "frames.canonical_tight")}
    blocks_in_solves = 0
    for sp in spans:
        if sp[0] != "frames.frame_operator_blocks":
            continue
        parent = sp[3]
        while parent >= 0 and parent not in solves:
            parent = spans[parent][3]
        blocks_in_solves += parent >= 0

    c = counts
    hits, misses = c.get("cache.hits", 0), c.get("cache.misses", 0)
    return {
        "frames.blocks_calls": calls["frames.frame_operator_blocks"],
        "frames.blocks_s": s("frames.frame_operator_blocks"),
        "frames.blocks_gmac": c.get("frames.blocks_gmac", 0.0),
        "frames.bounds_calls": calls["frames.frame_bounds"],
        "frames.bounds_self_s": s("frames.frame_bounds"),
        "frames.eig_blocks": c.get("frames.eig_blocks", 0),
        "frames.dual_self_s": s("frames.canonical_dual"),
        "frames.tight_self_s": s("frames.canonical_tight"),
        "frames.blocks_per_solve": ratio(blocks_in_solves, len(solves)),
        "frames.analysis_s": s("frames.analysis"),
        "frames.synthesis_s": s("frames.synthesis"),
        "frameset.cells": c.get("frameset.cells", 0),
        "frameset.self_s": mod_secs["frameset"],
        "frameset.distinct_lattices": c.get("frameset.distinct_lattices", 0),
        "frameset.reuse_ratio": ratio(c.get("frameset.cells", 0), c.get("frameset.distinct_lattices", 0)),
        "lattices.calls": mod_calls["lattices"],
        "lattices.s": mod_secs["lattices"],
        "zak.calls": mod_calls["zak"],
        "zak.s": mod_secs["zak"],
        "stft.calls": calls["stft.stft"],
        "stft.forward_s": s("stft.stft"),
        "stft.invert_s": s("stft.stft_invert"),
        "wilson.window_s": s("wilson.make_wilson_window"),
        "wilson.build_s": s("wilson.build_wilson_classical", "wilson.build_wilson_general"),
        "wilson.gram_s": s("wilson.wilson_onb_report", "wilson.wilson_parseval_residual"),
        "wilson.gram_gmac": c.get("wilson.gram_gmac", 0.0),
        "hrt.gramian_s": s("hrt.gramian"),
        "hrt.extension_s": s("hrt.extension_field", "hrt.extension_integral"),
        "hrt.extension_points": c.get("hrt.extension_points", 0),
        "duality.compact_dual_s": s("duality.bspline_compact_dual", "duality.compact_window"),
        "duality.janssen_s": s("duality.janssen_residual"),
        "duality.classify_calls": calls["duality.classify_point_g2"],
        "serialize.calls": mod_calls["serialize"],
        "serialize.s": mod_secs["serialize"],
        "serialize.bytes": c.get("serialize.bytes", 0),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.self_s": mod_secs["cache"],
        "cli.requests": calls["cli.run"],
        "cli.self_s": mod_secs["cli"] + mod_secs["config"],
        "cli.exit_2": c.get("cli.exit_2", 0),
        "cli.exit_3": c.get("cli.exit_3", 0),
        "windows.calls": mod_calls["windows"],
        "windows.s": mod_secs["windows"],
        "core.calls": mod_calls["core"],
        "core.s": mod_secs["core"],
    }


LAYER_UNITS = {
    "frames.blocks_gmac": "GMAC",
    "wilson.gram_gmac": "GMAC",
    "serialize.bytes": "bytes",
    "hrt.extension_points": "count",
    "frames.blocks_per_solve": "ratio",
    "frameset.reuse_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "trace.overhead_share": "ratio",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"
