"""Guards, fallbacks and failure paths that no other test reaches, in one table.

Each case is a call and its outcome: an exception type and a message
fragment, an exit code and a fragment of the CLI's output, or a value.
"""

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gaborlab import cache, cli
from gaborlab.core import GridMismatchError, SampleGrid, Signal
from gaborlab.duality import CompactSignal, compact_window, janssen_residual, required_slice_order
from gaborlab.frames import analysis, synthesis
from gaborlab.frameset import scan_frame_set
from gaborlab.hrt import (
    Configuration,
    classify_configuration,
    extension_field,
    gramian,
    normalize_configuration,
    schur_identity_check,
)
from gaborlab.lattices import Lattice, make_lattice
from gaborlab.serialize import stable_json
from gaborlab.stft import PhaseSpaceField, stft_invert
from gaborlab.wilson import _check_beta, taper_wilson_window
from gaborlab.windows import WindowSpec, sample_window, support_interval
from gaborlab.zak import zak_tightness

from oracles import bspline_closed_form

GRID = SampleGrid(16, 0.25)  # T = 4: 1/delta = 4 and T/2 = 2 divide L
OTHER = SampleGrid(16, 0.125)
LAT = Lattice(4, 2, GRID)
G = sample_window(WindowSpec("gaussian"), GRID, wrap_tol=1e-5)  # a coarse test window
UNIT = Configuration(((0.0, 0.0), (0.0, 1.0), (1.0, 0.0)))
DUAL = CompactSignal(x_lo=0.0, x_hi=1.0, step=0.5, samples=np.ones(2))
SMALL = ("--L", "128", "--delta", "0.125")


def _cli(tmp, monkeypatch, *argv):
    """Exit code and stdout + stderr of one in-process run with its own cache."""
    monkeypatch.setenv("GABORLAB_CACHE_DIR", str(tmp / "cache"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv) + ["--outdir", str(tmp / "out")])
    return code, out.getvalue() + err.getvalue()


def _config_with_empty_key(tmp, monkeypatch):
    cfg = tmp / "run.cfg"
    cfg.write_text(" = 3\n")
    return _cli(tmp, monkeypatch, "framebounds", "--config", str(cfg), "--alpha", "1",
                "--beta", "0.5", *SMALL, "--no-cache")


def _closed_stdout(tmp, monkeypatch):
    """framebounds whose reader closed stdout before the run: exit code and stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, GABORLAB_CACHE_DIR=str(tmp / "cache"),
               PYTHONPATH=os.pathsep.join([os.path.dirname(os.path.dirname(cli.__file__)),
                                           os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gaborlab.cli", "framebounds", "--alpha", "1", "--beta",
             "0.5", *SMALL, "--no-cache", "--outdir", str(tmp / "out")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def _cache_write_fails(tmp, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp))
    monkeypatch.setattr(os, "replace", refuse)
    try:
        cache.cache_get_or_compute("key", lambda: b"payload", version="v")
    finally:
        assert not [f for f in os.listdir(tmp) if f.endswith(".tmp")]


def _default_cache_dir(tmp, monkeypatch):
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)
    monkeypatch.setenv("HOME", str(tmp))
    return cache.default_cache_dir() == os.path.join(str(tmp), ".cache", "gaborlab")


def _sech_is_not_compact(tmp, monkeypatch):
    assert support_interval(WindowSpec("sech")) is None
    compact_window(WindowSpec("sech"))


def _call(f, *args, **kwargs):
    return lambda tmp, monkeypatch: f(*args, **kwargs)


CASES = [
    # command line, cache and stdout
    pytest.param(_config_with_empty_key, 2, "malformed line", id="config-empty-key"),
    pytest.param(lambda tmp, mp: _cli(tmp, mp, "hrt-extension", "--base", "0,0;0,1;1e-9,0",
                                      "--domain", "-6..6", "--res", "24", "--no-cache"),
                 2, "base Gramian is not positive definite", id="extension-singular-base"),
    pytest.param(_closed_stdout, 2, "I/O failure: [Errno 32] Broken pipe", id="closed-stdout"),
    pytest.param(_cache_write_fails, OSError, "rename refused", id="cache-write-fails"),
    pytest.param(_default_cache_dir, True, None, id="cache-dir-under-home"),
    # windows, signals and lattices
    pytest.param(_sech_is_not_compact, ValueError, "sech is not compactly supported",
                 id="compact-window-sech"),
    pytest.param(lambda tmp, mp: zak_tightness(Signal(GRID, np.zeros(16))).flatness, math.inf,
                 None, id="zak-zero-window"),
    pytest.param(_call(bspline_closed_form, 5, np.zeros(3)), ValueError,
                 "closed forms are provided for N <= 4 only", id="bspline-closed-form-5"),
    pytest.param(_call(Signal, GRID, np.zeros(8)), ValueError, "values must have shape (16,)",
                 id="signal-shape"),
    pytest.param(_call(Signal(GRID, np.zeros(16)).unit), ValueError,
                 "cannot normalize the zero signal", id="unit-zero-signal"),
    pytest.param(_call(Lattice, 3, 2, GRID), ValueError, "a=3 must divide L=16", id="lattice-a"),
    pytest.param(_call(Lattice, 4, 5, GRID), ValueError, "b=5 must divide L=16", id="lattice-b"),
    pytest.param(_call(make_lattice, GRID, 0.0, 1.0), ValueError,
                 "alpha and beta targets must be positive", id="make-lattice-zero-alpha"),
    pytest.param(_call(CompactSignal, x_lo=1.0, x_hi=1.0, step=0.5, samples=np.ones(1)),
                 ValueError, "x_lo must be below x_hi", id="compact-signal-support"),
    # frames and the phase-space transform
    pytest.param(_call(analysis, Signal(OTHER, np.ones(16)), LAT, G), GridMismatchError,
                 "window grid does not match lattice grid", id="analysis-window-grid"),
    pytest.param(_call(analysis, G, LAT, Signal(OTHER, np.zeros(16))), ValueError,
                 "signal grid does not match lattice grid", id="analysis-signal-grid"),
    pytest.param(_call(synthesis, G, LAT, np.zeros((4, 4))), ValueError,
                 "coefficients must be (4, 8), got (4, 4)", id="synthesis-shape"),
    pytest.param(_call(PhaseSpaceField, GRID, np.zeros((16, 8))), ValueError,
                 "values must be (16, 16), got (16, 8)", id="phase-space-shape"),
    pytest.param(_call(stft_invert, PhaseSpaceField(GRID, np.zeros((16, 16))), G,
                       Signal(OTHER, np.ones(16))),
                 ValueError, "window grids must match the field grid", id="stft-invert-grid"),
    # duality and frame-set scans
    pytest.param(_call(janssen_residual, DUAL, DUAL, 1.0, 0.0), ValueError,
                 "alpha and beta must be positive", id="janssen-beta-zero"),
    pytest.param(_call(janssen_residual, DUAL, DUAL, 1.0, 0.5), ValueError,
                 "g must carry an evaluator", id="janssen-no-evaluator"),
    pytest.param(_call(required_slice_order, 2, 1.0, 1.0), ValueError,
                 "need 0 < alpha*beta < 1", id="slice-order-density"),
    pytest.param(_call(scan_frame_set, WindowSpec("gaussian"), (-1.0, 1.0), (0.5, 1.0), 2, GRID),
                 ValueError, "ranges must be non-negative", id="scan-negative-range"),
    # HRT configurations
    pytest.param(_call(gramian, Signal(GRID, np.zeros(16)), UNIT), ValueError,
                 "window must be nonzero", id="gramian-zero-window"),
    pytest.param(_call(classify_configuration, Configuration(((0.0, 0.0),))), ValueError,
                 "need at least two points", id="classify-one-point"),
    pytest.param(_call(normalize_configuration, Configuration(((0.0, 0.0), (1.0, 0.0)))),
                 ValueError, "need at least three points", id="normal-form-two-points"),
    pytest.param(_call(normalize_configuration,
                       Configuration(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))),
                 ValueError, "configuration is collinear", id="normal-form-collinear"),
    pytest.param(_call(schur_identity_check, G, Configuration(UNIT.points[:2]), (1.0, 1.0)),
                 ValueError, "base configuration must have exactly three points",
                 id="schur-base-size"),
    pytest.param(_call(extension_field, G, Configuration(UNIT.points + ((1.0, 1.0),))),
                 ValueError, "base configuration must have exactly three points",
                 id="extension-base-size"),
    # Wilson systems
    pytest.param(_call(_check_beta, 0.3, GRID), ValueError,
                 "beta=0.3 shifts are not grid-aligned", id="wilson-beta-off-grid"),
    pytest.param(_call(_check_beta, 0.75, GRID), ValueError,
                 "beta=0.75 does not tile the period T=4", id="wilson-beta-no-tiling"),
    pytest.param(_call(_check_beta, 0.6, SampleGrid(8, 0.3)), ValueError,
                 "1/(2 delta) must be an integer", id="wilson-nyquist"),
    pytest.param(_call(taper_wilson_window, 0.5, GRID), ValueError,
                 "taper window is defined for beta in [1/4, 1/2)", id="taper-beta"),
    # canonical JSON
    pytest.param(_call(stable_json, {}), "{}", None, id="stable-json-empty-dict"),
    pytest.param(_call(stable_json, {1, 2}), TypeError, "cannot serialize <class 'set'>",
                 id="stable-json-set"),
]


@pytest.mark.parametrize("call, outcome, fragment", CASES)
def test_guard(tmp_path, monkeypatch, call, outcome, fragment):
    if isinstance(outcome, type) and issubclass(outcome, BaseException):
        with pytest.raises(outcome) as caught:
            call(tmp_path, monkeypatch)
        assert fragment in str(caught.value)
    elif fragment is None:
        assert call(tmp_path, monkeypatch) == outcome
    else:
        code, text = call(tmp_path, monkeypatch)
        assert code == outcome and fragment in text
