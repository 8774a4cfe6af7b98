"""CSV serialization: bulk formatting matches per-value fmt_float byte for byte."""

import math

import numpy as np

from gaborlab import SampleGrid, Signal
from gaborlab.hrt import ExtensionField
from gaborlab.serialize import field_csv, fmt_float, signal_csv

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.1, -1e300, 1.0]


def test_fmt_float_special_values():
    assert [fmt_float(x) for x in SPECIAL] == [
        "nan", "nan", "inf", "-inf", "0", "-0", "4.9406564584124654e-324",
        "0.10000000000000001", "-1.0000000000000001e+300", "1",
    ]
    assert fmt_float(np.float64(0.1)) == fmt_float(0.1)


def test_signal_csv_matches_reference_loop():
    grid = SampleGrid(16, 0.25)
    values = np.empty(16, dtype=complex)
    values.real = np.random.default_rng(0).normal(size=16)
    values.imag = SPECIAL + SPECIAL[:6]
    sig = Signal(grid, values)
    lines = ["index,x,re,im"]
    for j, (xv, v) in enumerate(zip(grid.x(), sig.values)):
        lines.append(f"{j},{fmt_float(xv)},{fmt_float(v.real)},{fmt_float(v.imag)}")
    assert signal_csv(sig) == "\n".join(lines) + "\n"


def test_field_csv_matches_reference_loop():
    a_grid, b_grid = np.linspace(-1, 1, 5), np.array([-0.5, 0.0, 1 / 3])
    F = np.array(SPECIAL + SPECIAL[:5]).reshape(3, 5)
    field = ExtensionField(None, a_grid, b_grid, F, base_gram=None, normalization=None)
    lines = ["a,b,F"]
    for i, b in enumerate(b_grid):
        for j, a in enumerate(a_grid):
            lines.append(f"{fmt_float(a)},{fmt_float(b)},{fmt_float(F[i, j])}")
    assert field_csv(field) == "\n".join(lines) + "\n"
