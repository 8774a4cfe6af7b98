"""CSV serialization: bulk formatting matches per-value fmt_float byte for byte."""

import math

import numpy as np
import pytest

from gaborlab import SampleGrid, Signal
from gaborlab.hrt import ExtensionField
from gaborlab.serialize import field_csv, fmt_float, signal_csv, write_pgm_bytes

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.1, -1e300, 1.0]


def test_fmt_float_special_values():
    assert [fmt_float(x) for x in SPECIAL] == [
        "nan", "nan", "inf", "-inf", "0", "-0", "4.9406564584124654e-324",
        "0.10000000000000001", "-1.0000000000000001e+300", "1",
    ]
    assert fmt_float(np.float64(0.1)) == fmt_float(0.1)


def reference_signal_csv(sig):
    lines = ["index,x,re,im"]
    for j, (xv, v) in enumerate(zip(sig.grid.x(), sig.values)):
        lines.append(f"{j},{fmt_float(xv)},{fmt_float(v.real)},{fmt_float(v.imag)}")
    return "\n".join(lines) + "\n"


def test_signal_csv_matches_reference_loop():
    grid = SampleGrid(16, 0.25)
    values = np.empty(16, dtype=complex)
    values.real = np.random.default_rng(0).normal(size=16)
    values.imag = SPECIAL + SPECIAL[:6]
    assert signal_csv(Signal(grid, values)) == reference_signal_csv(Signal(grid, values))


# Real signals: the imaginary column holds only +0 and -0 (real Wilson atoms
# with negative carriers carry -0), or only +0.
@pytest.mark.parametrize("imag", [np.where(np.arange(16) % 3 == 0, -0.0, 0.0), np.zeros(16)])
def test_signal_csv_real_signal_matches_reference_loop(imag):
    grid = SampleGrid(16, 0.25)
    values = np.empty(16, dtype=complex)
    values.real = SPECIAL + SPECIAL[:6]
    values.imag = imag
    sig = Signal(grid, values)
    assert signal_csv(sig) == reference_signal_csv(sig)


def reference_pgm(values, ref):
    v = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        scaled = np.where(np.isnan(v), 0.0, np.clip(v / ref, 0.0, 1.0))
    pix = np.clip(np.rint(255.0 * scaled), 0, 255).astype(np.uint8)
    h, w = pix.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pix.tobytes()


@pytest.mark.filterwarnings("error")  # a NaN reaching the uint8 cast warns
@pytest.mark.parametrize("ref", [1.0, 2.0, 1e-3])
def test_write_pgm_bytes_matches_reference_formula(ref):
    ties = (np.arange(256) + 0.5) / 255.0
    assert np.sum(255.0 * ties == np.arange(256) + 0.5) > 100  # exact .5 rounding ties at ref = 1
    special = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1.0, 1.5, 1e300, 5e-324]
    noise = np.random.default_rng(3).normal(size=64)  # negative values and values above ref
    img = np.concatenate([special, ties * ref, noise * ref]).reshape(11, 30)
    before = img.copy()
    assert write_pgm_bytes(img, ref) == reference_pgm(img, ref)
    assert write_pgm_bytes(img[::-1, :], ref) == reference_pgm(img[::-1, :], ref)
    assert np.array_equal(img, before, equal_nan=True)  # the input is left as it was


def test_field_csv_matches_reference_loop():
    a_grid, b_grid = np.linspace(-1, 1, 5), np.array([-0.5, 0.0, 1 / 3])
    F = np.array(SPECIAL + SPECIAL[:5]).reshape(3, 5)
    field = ExtensionField(None, a_grid, b_grid, F, base_gram=None, normalization=None)
    lines = ["a,b,F"]
    for i, b in enumerate(b_grid):
        for j, a in enumerate(a_grid):
            lines.append(f"{fmt_float(a)},{fmt_float(b)},{fmt_float(F[i, j])}")
    assert field_csv(field) == "\n".join(lines) + "\n"
