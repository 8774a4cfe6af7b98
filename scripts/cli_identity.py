#!/usr/bin/env python3
"""Fingerprint a fixed set of CLI invocations, or compare two such runs.

The set covers every command and each expected exit code (0, 2 and 3).
Each invocation runs in process with ``--no-cache`` and writes to a fixed
relative ``--outdir`` under ``--workdir``, so the stdout of runs made from
two checkouts compares byte for byte.  One JSON line per invocation holds
the exit code, the sha256 of stdout and of each artifact, and the float
fields of the result.

    PYTHONPATH=src python scripts/cli_identity.py --workdir /tmp/ident > new.jsonl
    python scripts/cli_identity.py --compare old.jsonl new.jsonl

The set then runs a second time in the same process, so state kept between
requests (the parser, the caches) is checked too; the printed records are
the first pass's.  A run exits 1 when some exit code differs from the
expected one or some second-pass record differs from the first; a
comparison exits 1 when the two runs differ anywhere, and lists where.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

BASE = ["--L", "256", "--delta", "0.0625"]
BSPLINE = ["--window", "bspline:2"]
EXT = ["--base", "0,0;0,1;1,0", "--domain", "-6..6"]
STFT_SIGNAL = ["--signal-window", "indicator:1.5"]
QUESTION = "0,0;0,1;1,0;1.4142135623730951,1.4142135623730951"
# a = 32, b = 18 at L = 864: P = 48, p = 2, q = 9, so the symbol wraps quasi-periodically
REDUCED = ["--L", "864", "--alpha", "1", "--beta", "0.6666666666666666"]

# (name, argv, expected exit code)
INVOCATIONS = [
    ("framebounds", ["framebounds", "--alpha", "0.5", "--beta", "1"], 0),
    ("framebounds-bspline", ["framebounds", *BASE, *BSPLINE, "--alpha", "1", "--beta", "0.5"], 0),
    ("framebounds-bspline-40",
     ["framebounds", "--L", "2048", "--delta", "0.03125", "--window", "bspline:40",
      "--alpha", "1", "--beta", "0.5"], 0),
    ("framebounds-adjoint",
     ["framebounds", "--L", "4096", "--delta", "0.015625", "--alpha", "2", "--beta", "32"], 0),
    ("dual", ["dual", "--alpha", "0.5", "--beta", "1"], 0),
    ("tight", ["tight", *BASE, "--alpha", "0.5", "--beta", "1.5"], 0),
    ("framebounds-reduced", ["framebounds", *REDUCED], 0),
    ("dual-reduced", ["dual", *REDUCED], 0),
    ("tight-reduced", ["tight", *REDUCED], 0),
    ("janssen", ["janssen", "--window", "bspline:3", "--alpha", "1", "--beta", "0.6"], 0),
    ("bspline-dual", ["bspline-dual", *BSPLINE, "--alpha", "1", "--beta", "0.7"], 0),
    # the m = 3 slice system, by the support rule and by an explicit order
    ("janssen-m3", ["janssen", *BSPLINE, "--alpha", "0.4", "--beta", "1.5"], 0),
    ("bspline-dual-m3",
     ["bspline-dual", *BSPLINE, "--alpha", "0.4", "--beta", "1.5", "--m", "3"], 0),
    ("bspline-dual-bspline3",
     ["bspline-dual", "--window", "bspline:3", "--alpha", "1", "--beta", "0.6"], 0),
    ("scan", ["scan", *BASE, "--alpha", "0.25..2", "--beta", "0.25..2", "--res", "16"], 0),
    # some cells miss their lattice by more than 0.05: the masked path
    ("scan-snap-tol",
     ["scan", *BASE, "--alpha", "0.25..2", "--beta", "0.25..2", "--res", "16",
      "--snap-tol", "0.05"], 0),
    ("wilson-classical", ["wilson", "--L", "512", "--beta", "0.5"], 0),
    ("wilson-general", ["wilson", *BASE, "--beta", "0.25", "--variant", "general"], 0),
    # k = 8 translates make the period tau = 3: s = 48-sample blocks
    ("wilson-general-3-8",
     ["wilson", "--L", "768", "--delta", "0.0625", "--beta", "0.375", "--variant", "general"], 0),
    ("hrt-gram", ["hrt-gram", "--points", QUESTION], 0),
    ("hrt-extension", ["hrt-extension", *EXT, "--res", "240"], 0),
    # cli-mix's request: a fractional a0 on the default grid, whose gaussian has subnormal tails
    ("hrt-extension-climix",
     ["hrt-extension", "--base", "0,0;0,1;1.1,0", "--domain", "-6..6", "--res", "120"], 0),
    ("hrt-extension-moved",
     ["hrt-extension", "--base", "1,1;1,2;2.5,1", "--domain", "-5..5", "--res", "64"], 0),
    ("hrt-extension-tiny",
     ["hrt-extension", "--base", "0,0;0,1e-7;1e-7,0", "--domain", "-6..6", "--res", "64"], 0),
    ("classify-region", ["classify", "--alpha", "1", "--beta", "0.7"], 0),
    ("classify-points", ["classify", "--points", "0,0;0,1;1,0;1,1"], 0),
    ("classify-points-tiny", ["classify", "--points", "0,0;0,1e-7;1e-7,0;1e-7,1e-7"], 0),
    # alpha * beta overflows to inf: a density failure
    ("classify-overflow", ["classify", "--alpha", "1e200", "--beta", "1e200"], 0),
    ("stft-54", ["stft", "--L", "54", "--delta", "0.25", *STFT_SIGNAL], 0),
    ("stft-864", ["stft", "--L", "864", *STFT_SIGNAL], 0),
    ("stft-2048", ["stft", "--L", "2048", "--window", "sech", *STFT_SIGNAL], 0),
    # the cli-mix grids: gaussian window at L = 1024, and the second wide window
    ("stft-1024-gaussian",
     ["stft", "--L", "1024", "--delta", "0.03125", "--signal-window", "indicator:2.2"], 0),
    ("stft-2048-exp",
     ["stft", "--L", "2048", "--delta", "0.03125", "--window", "exp_two_sided",
      "--signal-window", "indicator:0.7"], 0),
    ("bad-L", ["framebounds", "--L", "1000", "--alpha", "0.5", "--beta", "1"], 2),
    ("missing-parameter", ["framebounds", "--alpha", "0.5"], 2),
    ("non-numeric", ["dual", "--alpha", "one", "--beta", "0.3"], 2),
    ("duplicate-points", ["hrt-gram", "--points", "0,0;0.5,0.5;1,0;0.5,0.5"], 2),
    ("wilson-classical-beta", ["wilson", *BASE, "--beta", "0.25"], 2),
    ("hrt-extension-res", ["hrt-extension", *EXT, "--res", "1"], 2),
    ("bspline-dual-dense", ["bspline-dual", *BSPLINE, "--alpha", "1.2", "--beta", "1"], 2),
    ("stft-wraparound", ["stft", *BASE, "--window", "sech"], 2),
    ("period-overflow", ["framebounds", "--delta", "1e308", "--alpha", "1", "--beta", "1"], 2),
    ("scan-snap-tol-negative",
     ["scan", *BASE, "--alpha", "0.25..2", "--beta", "0.25..2", "--res", "2", "--snap-tol", "-1"], 2),
    ("scan-reversed-range",
     ["scan", *BASE, "--alpha", "2..0.25", "--beta", "0.25..2", "--res", "2"], 2),
    ("scan-empty-range", ["scan", *BASE, "--alpha", "0.25..2", "--beta", "1..1", "--res", "2"], 2),
    ("wrap-tol-negative",
     ["framebounds", *BASE, *BSPLINE, "--alpha", "1", "--beta", "0.5", "--wrap-tol", "-1"], 2),
    ("scan-nothing-snaps",
     ["scan", "--L", "64", "--delta", "0.125", "--alpha", "1e-300..1", "--beta", "0.25..2",
      "--res", "3", "--snap-tol", "1e-7"], 2),
    # cell centres, a lattice step beta * T, and field phases 2 pi b x that overflow
    ("scan-centres-overflow",
     ["scan", *BASE, "--alpha", "0.25..2", "--beta", "0..1.7e308", "--res", "2"], 2),
    ("framebounds-step-overflow", ["framebounds", *BASE, "--alpha", "1", "--beta", "1e308"], 2),
    ("hrt-extension-phase-overflow",
     ["hrt-extension", *BASE, "--base", "0,0;0,1;1,0", "--domain", "0..1e308", "--res", "2"], 2),
    # shifts T/2 = 16 apart in time or 1/(2 delta) = 16 in frequency alias on the default grid
    ("hrt-gram-alias-frequency", ["hrt-gram", "--points", "0,0;0,32"], 2),
    ("hrt-gram-alias-time", ["hrt-gram", "--points", "0,0;32,0"], 2),
    ("hrt-extension-alias",
     ["hrt-extension", "--base", "0,0;0,1;1,0", "--domain", "-40..40", "--res", "160"], 2),
    ("framebounds-negative", ["framebounds", "--alpha", "-1", "--beta", "1"], 2),
    ("janssen-negative", ["janssen", *BSPLINE, "--alpha", "-1", "--beta", "-0.5"], 2),
    ("bspline-dual-negative", ["bspline-dual", *BSPLINE, "--alpha", "-1", "--beta", "-0.5"], 2),
    ("dual-not-frame", ["dual", *BASE, *BSPLINE, "--alpha", "2.25", "--beta", "0.25"], 3),
    ("bspline-dual-beyond", ["bspline-dual", *BSPLINE, "--alpha", "0.24", "--beta", "1.9"], 3),
    ("hrt-extension-coverage",
     ["hrt-extension", "--base", "0,0;0,1;1,0", "--domain", "-1.5..1.5", "--res", "24"], 3),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats(value, path: str = "") -> dict[str, float]:
    """Every number in a JSON value, keyed by its dotted path.

    Integers count too: the CLI prints floats with 17 significant digits,
    so an integral float such as an integral of exactly 3 reads back as 3.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {path: float(value)}
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {}
    return {key: x for k, v in items for key, x in _floats(v, k).items()}


def _invoke(cli, name: str, argv: list[str], expect: int) -> dict:
    outdir = os.path.join("cli-identity", name)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv + ["--no-cache", "--outdir", outdir])
    stdout = out.getvalue()
    artifacts = {}
    for root, _, files in os.walk(outdir):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                artifacts[os.path.relpath(path, outdir)] = _sha256(fh.read())
    try:
        result = json.loads(stdout).get("result", {})
    except json.JSONDecodeError:
        result = {}
    return {
        "name": name,
        "argv": argv,
        "expect": expect,
        "exit": code,
        "stdout_sha256": _sha256(stdout.encode()),
        "artifacts": dict(sorted(artifacts.items())),
        "floats": _floats(result),
    }


def run(workdir: str) -> int:
    from gaborlab import cli  # before the chdir: a relative PYTHONPATH still resolves

    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    wrong = 0
    first = []
    for name, argv, expect in INVOCATIONS:
        record = _invoke(cli, name, argv, expect)
        first.append(record)
        print(json.dumps(record, sort_keys=True), flush=True)
        if record["exit"] != expect:
            print(f"{name}: exit {record['exit']}, expected {expect}", file=sys.stderr)
            wrong += 1
    # the same set again in this process: state kept between requests must not change a record
    for record, (name, argv, expect) in zip(first, INVOCATIONS):
        if _invoke(cli, name, argv, expect) != record:
            print(f"{name}: second run in the same process differs from the first", file=sys.stderr)
            wrong += 1
    return 1 if wrong else 0


def _load(path: str) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return {rec["name"]: rec for rec in map(json.loads, filter(str.strip, fh))}


def compare(path_a: str, path_b: str) -> list[str]:
    """One line per difference between two runs, in invocation order of the first."""
    a, b = _load(path_a), _load(path_b)
    lines = [f"{name}: only in {path_b}" for name in b if name not in a]
    for name, ra in a.items():
        rb = b.get(name)
        if rb is None:
            lines.append(f"{name}: only in {path_a}")
            continue
        for key in ("argv", "exit", "stdout_sha256"):
            if ra[key] != rb[key]:
                lines.append(f"{name}: {key} {ra[key]} -> {rb[key]}")
        for art in sorted(set(ra["artifacts"]) | set(rb["artifacts"])):
            ha, hb = ra["artifacts"].get(art), rb["artifacts"].get(art)
            if ha != hb:
                state = "differs" if ha and hb else "missing on one side"
                lines.append(f"{name}: artifact {art} {state}")
        for key in sorted(set(ra["floats"]) | set(rb["floats"])):
            xa, xb = ra["floats"].get(key), rb["floats"].get(key)
            if xa != xb:
                both = xa is not None and xb is not None
                diff = f" (|diff| {abs(xa - xb):.3g})" if both else ""
                lines.append(f"{name}: {key} {xa!r} -> {xb!r}{diff}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workdir", default="cli-identity-run", help="where the outdirs go")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list where two runs differ")
    args = ap.parse_args()
    if args.compare:
        lines = compare(*args.compare)
        print("\n".join(lines) if lines else "identical")
        return 1 if lines else 0
    return run(args.workdir)


if __name__ == "__main__":
    sys.exit(main())
