"""Command-line front end.

Every command is one entry of ``COMMANDS``: its help text, its handler and
its typed parameters.  That table drives the subcommand parser, the
config-file keys and merge (flags, then config file, then defaults), the
required-parameter check and the cache key.  A handler returns its result
and its artifacts; ``run`` writes the CSV, PGM and NPY artifacts to the
output directory and a JSON report to stdout.  A report whose command wrote
files lists them under ``result.artifacts``, sorted and relative to the
output directory.  Exit codes: 0 success, 2 validation error, 3 numerical
failure; errors print a machine-readable JSON object.
Reports embed the resolved configuration, snap errors and the tool version.
Repeated invocations are served from a content-addressed cache whose entries
hold the result and the artifact bytes, so a hit restores the artifacts into
whichever output directory was requested.

The table builds the parser once per process; a request only parses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import cache, partial
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from . import __version__
from .cache import cache_get_or_compute, cache_key, source_fingerprint
from .config import ConfigError, RunConfig, load_config_file
from .core import SampleGrid, Signal
from .duality import (
    BeyondProvenRegionsError,
    SingularSliceError,
    bspline_compact_dual,
    classify_point_g2,
    compact_window,
    janssen_residual,
)
from .frames import NotAFrameError, canonical_dual, canonical_tight, frame_bounds
from .frameset import scan_frame_set
from .hrt import (
    Configuration,
    InsufficientCoverageError,
    classify_configuration,
    extension_field,
    extension_integral,
    gramian,
)
from .lattices import Lattice, SnapError, make_lattice
from .serialize import (
    compact_csv,
    field_csv,
    field_pgm,
    framemap_csv,
    framemap_pgm,
    magnitude_pgm,
    matrix_npy,
    signal_csv,
    stable_json,
)
from .stft import NearOrthogonalPairError, stft_diagnostics
from .wilson import (
    build_wilson_classical,
    build_wilson_general,
    make_wilson_window,
    wilson_onb_report,
    wilson_parseval_residual,
)
from .windows import parse_window, sample_window

# exit 3; every other ValueError (config, snap, wraparound, ...) exits 2.
# LinAlgError subclasses ValueError, so it must be listed here.
NUMERICAL_ERRORS = (
    np.linalg.LinAlgError,
    NotAFrameError,
    SingularSliceError,
    BeyondProvenRegionsError,
    NearOrthogonalPairError,
    InsufficientCoverageError,
)


# Parameter types: each converts one flag or config-file string.


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return x


def _nonnegative(text: str) -> float:
    if (x := _finite(text)) < 0:
        raise ConfigError(f"expected a non-negative number, got {text!r}")
    return x


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _dual_order(text: str) -> int | str:
    return text if text == "auto" else _integer(text)


MAX_RES = 2048  # hrt-extension's field then holds 3 * MAX_RES**2 complex values (201 MB)


def _resolution(text: str) -> int:
    res = _integer(text)
    if res > MAX_RES:
        raise ConfigError(f"res must be at most {MAX_RES}, got {res}")
    return res


def _switch(text: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ConfigError(f"expected one of 1/true/yes/on or 0/false/no/off, got {text!r}")
    return text.lower() in ("1", "true", "yes", "on")


def _choice(*names: str) -> Callable[[str], str]:
    def choice(text: str) -> str:
        if text not in names:
            raise ConfigError(f"expected one of {list(names)}, got {text!r}")
        return text

    return choice


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition("..")  # without "..", hi is "" and fails below
    try:
        return _finite(lo), _finite(hi)
    except ConfigError:
        raise ConfigError(f"expected a range of finite numbers like 0..2, got {text!r}") from None


def _parse_points(text: str) -> tuple[tuple[float, float], ...]:
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, _, b = chunk.partition(",")  # without ",", b is "" and fails below
        try:
            pts.append((_finite(a), _finite(b)))
        except ConfigError:
            raise ConfigError(f"expected finite 'a,b' pairs joined by ';', got {chunk!r}") from None
    if not pts:
        raise ConfigError("empty point list")
    return tuple(pts)


@dataclass(frozen=True)
class Param:
    """One parameter: flag ``--name`` (``_`` as ``-``) and config-file key ``name``.

    ``keyed`` parameters enter the cache key.  A ``_switch`` parameter is on
    by default and its flag is ``--no-name``.
    """

    name: str
    type: Callable[[str], Any] = str
    default: Any = None
    required: bool = False
    keyed: bool = True
    help: str | None = None

    @property
    def flag(self) -> str:
        return ("--no-" if self.type is _switch else "--") + self.name.replace("_", "-")


@dataclass(frozen=True)
class Command:
    help: str
    handler: Callable[[RunConfig, SimpleNamespace], tuple[dict, dict[str, str | bytes]]]
    params: tuple[Param, ...]


COMMON = (
    Param("L", _integer, 1024),
    Param("delta", _finite, 1.0 / 32.0),
    Param("window", str, "gaussian"),
    Param("outdir", str, ".", keyed=False),  # artifact location does not change the result
    Param("cache", _switch, True, keyed=False),
    Param("threads", _integer, 1, keyed=False),  # results are schedule-independent
    Param("wrap_tol", _nonnegative, 1e-12),
)


# Command implementations: each returns (result, {artifact path: str or bytes}).


def _sample(cfg: RunConfig, spec: str) -> Signal:
    return sample_window(parse_window(spec), SampleGrid(cfg.L, cfg.delta), wrap_tol=cfg.wrap_tol)


def _snap(g: Signal, p) -> tuple[Lattice, dict]:
    """The lattice nearest (p.alpha, p.beta) on g's grid, and its report entry."""
    lat, a_err, b_err = make_lattice(g.grid, p.alpha, p.beta, snap_tol=p.snap_tol)
    echo = {key: getattr(lat, key) for key in ("a", "b", "alpha", "beta", "redundancy")}
    return lat, dict(echo, alpha_snap_error=a_err, beta_snap_error=b_err)


def _cmd_framebounds(cfg: RunConfig, p):
    g = _sample(cfg, cfg.window)
    lat, echo = _snap(g, p)
    rep = frame_bounds(g, lat)
    result = {
        "A": rep.A,
        "B": rep.B,
        "condition": rep.condition,
        "is_frame": rep.is_frame,
        "lattice": echo,
    }
    return result, {}


def _cmd_canonical(cfg: RunConfig, p, which: str):
    g = _sample(cfg, cfg.window)
    lat, echo = _snap(g, p)
    w = (canonical_dual if which == "dual" else canonical_tight)(g, lat)
    rep = frame_bounds(w, lat)
    result = {
        "window_norm": w.norm,
        "system_A": rep.A,
        "system_B": rep.B,
        "lattice": echo,
    }
    return result, {f"{which}_window.csv": signal_csv(w)}


def _cmd_compact(cfg: RunConfig, p, artifact: bool):
    spec = parse_window(cfg.window)
    if spec.family != "bspline":
        raise ConfigError(f"this command needs a bspline window, got {spec.label()}")
    h = bspline_compact_dual(int(spec.param), p.alpha, p.beta, m=p.m)
    result = {
        "support": [h.x_lo, h.x_hi],
        "step": h.step,
        "provenance": h.provenance,
        "janssen_residual": janssen_residual(compact_window(spec), h, p.alpha, p.beta),
        "alpha": p.alpha,
        "beta": p.beta,
    }
    return result, {"compact_dual.csv": compact_csv(h)} if artifact else {}


def _cmd_scan(cfg: RunConfig, p):
    fmap = scan_frame_set(
        parse_window(cfg.window),
        p.alpha,
        p.beta,
        p.res,
        SampleGrid(cfg.L, cfg.delta),
        snap_tol=p.snap_tol,
        threads=cfg.threads,
        wrap_tol=cfg.wrap_tol,
    )
    finite = fmap.A[np.isfinite(fmap.A)]  # a snapped cell's A is finite
    if not finite.size:
        raise SnapError(f"no cell of the scan snaps within tolerance {p.snap_tol:g}")
    result = {
        "cells": int(fmap.resolution**2),
        "a_min": float(finite.min()),
        "a_max": float(finite.max()),
    }
    return result, {"frameset.csv": framemap_csv(fmap), "frameset.pgm": framemap_pgm(fmap)}


def _cmd_wilson(cfg: RunConfig, p):
    if p.variant == "classical" and p.beta != 0.5:
        raise ConfigError(f"the classical Wilson variant has beta = 0.5, got {p.beta:g}")
    grid = SampleGrid(cfg.L, cfg.delta)
    w = make_wilson_window(parse_window(cfg.window), p.beta, grid, wrap_tol=cfg.wrap_tol)
    if p.variant == "classical":
        system = build_wilson_classical(w)
    else:
        system = build_wilson_general(w, p.beta)
    onb = wilson_onb_report(system)
    manifest = {
        "variant": system.variant,
        "beta": system.beta,
        "n_atoms": system.n_atoms,
        "index": [list(jm) for jm in system.index],
        "norms": np.sqrt(grid.delta * np.sum(np.abs(system.atoms) ** 2, axis=1)).tolist(),
    }
    artifacts = {
        "wilson_atoms/atoms.npy": matrix_npy(system.atoms),  # row i is atom i of the manifest
        "wilson_atoms/manifest.json": stable_json(manifest) + "\n",
    }
    result = {
        "variant": system.variant,
        "beta": system.beta,
        "n_atoms": system.n_atoms,
        "parseval_residual": wilson_parseval_residual(system),
        "gram_deviation": onb.max_gram_deviation,
        "unit_norm_defect": onb.max_unit_norm_defect,
        "is_onb": onb.is_onb,
    }
    return result, artifacts


def _cmd_hrt_gram(cfg: RunConfig, p):
    g = _sample(cfg, cfg.window).unit()
    config = Configuration(p.points)
    rep = gramian(g, config)
    result = {
        "n_points": len(config),
        "eigenvalues": list(map(float, rep.eigenvalues)),
        "det": rep.det,
        "condition": rep.condition,
        "independent": rep.independent,
        "independence_threshold": rep.independence_threshold,
        "labels": classify_configuration(config) if len(config) >= 2 else [],
    }
    return result, {}


def _cmd_hrt_extension(cfg: RunConfig, p):
    g = _sample(cfg, cfg.window)
    field = extension_field(g, Configuration(p.base), domain=p.domain, resolution=p.res)
    result = {
        "integral": extension_integral(field),
        "F_min": float(field.F.min()),
        "F_max": float(field.F.max()),
        "base": [list(pt) for pt in field.base.points],
    }
    artifacts = {"extension_field.csv": field_csv(field), "extension_field.pgm": field_pgm(field)}
    return result, artifacts


def _cmd_classify(cfg: RunConfig, p):
    has_ab = p.alpha is not None and p.beta is not None
    if has_ab == (p.points is not None):
        raise ConfigError("pass either --alpha/--beta (region label) or --points (configuration)")
    if has_ab:
        label = classify_point_g2(p.alpha, p.beta)
        return {"alpha": p.alpha, "beta": p.beta, "label": label.value}, {}
    config = Configuration(p.points)
    result = {"points": [list(x) for x in config.points], "labels": classify_configuration(config)}
    return result, {}


def _cmd_stft(cfg: RunConfig, p):
    g = _sample(cfg, cfg.window).unit()
    sig_spec = p.signal_window or cfg.window
    f = _sample(cfg, sig_spec)
    energy, mag, rec = stft_diagnostics(f, g)  # one real pass; |V| for k <= L/2 only
    result = {
        "signal_window": sig_spec,
        "energy": energy,
        "isometry_residual": abs(energy - f.norm**2) / f.norm**2,
        "inversion_residual": Signal(f.grid, rec.values - f.values).norm / f.norm,
    }
    return result, {"stft_magnitude.pgm": magnitude_pgm(mag)}


# The command table.

_ALPHA = Param("alpha", _finite, required=True)
_BETA = Param("beta", _finite, required=True)
_SNAP_TOL = Param("snap_tol", _nonnegative)
_RES = Param("res", _resolution, required=True)
_LATTICE = (_ALPHA, _BETA, _SNAP_TOL)
_COMPACT = (_ALPHA, _BETA, Param("m", _dual_order, "auto"))
_SCAN = (
    Param("alpha", _parse_range, required=True, help="range lo..hi"),
    Param("beta", _parse_range, required=True, help="range lo..hi"),
    _RES,
    _SNAP_TOL,
)
_WILSON = (_BETA, Param("variant", _choice("classical", "general"), "classical"))
_GRAM = (Param("points", _parse_points, required=True, help="a,b;a,b;..."),)
_EXTENSION = (
    Param("base", _parse_points, required=True, help="three points a,b;a,b;a,b"),
    Param("domain", _parse_range, required=True, help="range lo..hi (both axes)"),
    _RES,
)
_CLASSIFY = (Param("alpha", _finite), Param("beta", _finite), Param("points", _parse_points))
_STFT = (Param("signal_window", help="window spec used as the test signal"),)

COMMANDS = {
    "framebounds": Command("frame bounds of a lattice system", _cmd_framebounds, _LATTICE),
    "dual": Command("canonical dual window", partial(_cmd_canonical, which="dual"), _LATTICE),
    "tight": Command("canonical tight window", partial(_cmd_canonical, which="tight"), _LATTICE),
    "janssen": Command("duality residual", partial(_cmd_compact, artifact=False), _COMPACT),
    "bspline-dual": Command("compact dual window", partial(_cmd_compact, artifact=True), _COMPACT),
    "scan": Command("frame-set scan over (alpha, beta)", _cmd_scan, _SCAN),
    "wilson": Command("Wilson system residuals and atoms", _cmd_wilson, _WILSON),
    "hrt-gram": Command("Gramian of a shift configuration", _cmd_hrt_gram, _GRAM),
    "hrt-extension": Command("extension function field", _cmd_hrt_extension, _EXTENSION),
    "classify": Command("region or configuration labels", _cmd_classify, _CLASSIFY),
    "stft": Command("phase-space transform diagnostics", _cmd_stft, _STFT),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Report on stderr as argparse does, then raise a ConfigError for the JSON error."""
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise ConfigError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Every subcommand with all its flags; built once per process and reused by ``run``."""
    about = __doc__.rsplit("\n\n", 1)[0]  # the last paragraph is about the code, not the CLI
    parser = _Parser(prog="gaborlab", description=about)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key = value configuration file")
        for param in COMMON + command.params:
            if param.type is _switch:
                p.add_argument(param.flag, dest=param.name, action="store_const", const=False)
            else:
                p.add_argument(param.flag, dest=param.name, type=param.type, help=param.help)
    return parser


_DASH_FLAGS = frozenset(
    param.flag
    for command in COMMANDS.values()
    for param in command.params
    if param.type in (_parse_range, _parse_points)
)


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Glue range and point-list values, which may begin with '-', onto their flags."""
    merged, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _DASH_FLAGS else None
        merged.append(tok if value is None else f"{tok}={value}")
    return merged


def _resolve(args, params: tuple[Param, ...]) -> dict[str, Any]:
    """Each parameter from its flag, else the config file (logged), else its default."""
    file_values = load_config_file(args.config, {p.name for p in params}) if args.config else {}
    values = {}
    for p in params:
        flag_value, raw = getattr(args, p.name), file_values.get(p.name)
        if flag_value is not None:
            values[p.name] = flag_value
            if raw is not None:
                print(f"config: {p.name} from flags overrides file value {raw}", file=sys.stderr)
        elif raw is not None:
            values[p.name] = p.type(raw)
            print(f"config: {p.name} = {raw} (from file)", file=sys.stderr)
        else:
            values[p.name] = p.default
    return values


def _pack(result: dict, artifacts: dict[str, str | bytes]) -> bytes:
    """A JSON header line (result, artifact sizes), then the artifact bytes."""
    data = {name: a.encode() if isinstance(a, str) else a for name, a in artifacts.items()}
    head = {"result": stable_json(result), "sizes": {name: len(d) for name, d in data.items()}}
    return b"".join([json.dumps(head).encode() + b"\n", *data.values()])


def _unpack(payload: bytes) -> tuple[dict, dict[str, bytes]]:
    start = payload.index(b"\n") + 1
    meta = json.loads(payload[:start])
    artifacts = {}
    for name, size in meta["sizes"].items():
        artifacts[name] = payload[start : start + size]
        start += size
    return json.loads(meta["result"]), artifacts


def _write_artifacts(outdir: str, artifacts: dict[str, bytes]) -> None:
    """Write each artifact, leaving files that already hold the same bytes untouched."""
    for name, data in artifacts.items():
        path = os.path.join(outdir, name)
        if os.path.isfile(path) and os.path.getsize(path) == len(data):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    continue
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)


def _error(kind: str, message: str, code: int) -> int:
    line = stable_json({"error": {"kind": kind, "message": message}})
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: report on stderr, and let the exit-time flush go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(line, file=sys.stderr)
    return code


def run(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(_merge_dash_values(argv))
    except SystemExit:  # --help, --version
        return 0
    except ConfigError as exc:
        return _error("validation", str(exc), 2)
    command = COMMANDS[args.command]
    try:
        values = _resolve(args, COMMON + command.params)
        cfg = RunConfig(**{p.name: values[p.name] for p in COMMON})
        cfg.validate()
        missing = [p.name for p in command.params if p.required and values[p.name] is None]
        if missing:
            raise ConfigError(f"missing required parameters for {args.command}: {missing}")
        params = SimpleNamespace(**{p.name: values[p.name] for p in command.params})

        def compute() -> bytes:
            return _pack(*command.handler(cfg, params))

        if cfg.cache:
            keyed = {p.name: values[p.name] for p in COMMON + command.params if p.keyed}
            key = cache_key(args.command, {k: v for k, v in keyed.items() if v is not None})
            version = f"{__version__}+{source_fingerprint()}"
            payload, hit = cache_get_or_compute(key, compute, version=version)
            if hit:
                print(f"cache: hit {key[:12]}", file=sys.stderr)
        else:
            payload = compute()
        result, artifacts = _unpack(payload)
        _write_artifacts(cfg.outdir, artifacts)
        if artifacts:
            result["artifacts"] = sorted(artifacts)  # relative to outdir, as written
        report = {"command": args.command, "version": __version__, "config": asdict(cfg)}
        print(stable_json(dict(report, result=result)), flush=True)
        return 0
    except NUMERICAL_ERRORS as exc:
        return _error("numerical", str(exc), 3)
    except (ValueError, MemoryError) as exc:  # numpy names the allocation it refused
        return _error("validation", str(exc), 2)
    except OSError as exc:
        return _error("validation", f"I/O failure: {exc}", 2)


def entrypoint() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
