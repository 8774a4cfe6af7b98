"""Serialization: bulk CSV formatting matches per-value fmt_float byte for byte,
and NPY matrices hold the exact values."""

import io
import math

import numpy as np
import pytest

from gaborlab import SampleGrid, Signal, bspline_compact_dual, serialize
from gaborlab.duality import CompactSignal
from gaborlab.hrt import ExtensionField
from gaborlab.serialize import (
    compact_csv,
    field_csv,
    fmt_float,
    matrix_npy,
    signal_csv,
    write_pgm_bytes,
)

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


def reference_compact_csv(sig):
    lines = ["x,value"]
    for x, v in zip(sig.positions(), sig.samples):
        lines.append(f"{fmt_float(x)},{fmt_float(float(np.real(v)))}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "sig",
    [
        bspline_compact_dual(2, 1.0, 0.7),
        bspline_compact_dual(3, 0.4, 0.75, n_x=100),
        CompactSignal(-0.3, 0.3, 0.1, np.array(SPECIAL[:6])),
        CompactSignal(-1.0, 1.0, 0.25, np.arange(8) + 1j * np.arange(8)),  # real part only
    ],
    ids=["bspline2-m2", "bspline3", "special", "complex"],
)
def test_compact_csv_matches_reference_loop(sig):
    assert compact_csv(sig) == reference_compact_csv(sig)


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


def one_shot_pgm(values, ref):
    # the whole-image form: divide, clip, NaN -> 0, x255, rint, cast
    with np.errstate(invalid="ignore"):
        scaled = np.divide(values, ref, dtype=float)
        np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled[np.isnan(scaled)] = 0.0
    scaled *= 255.0
    pix = np.rint(scaled, out=scaled).astype(np.uint8)
    h, w = pix.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pix.tobytes()


def special_image(ref, rows, cols):
    special = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1.0, 1.5, 1e300, 5e-324]
    noise = np.random.default_rng(5).normal(size=rows * cols - len(special))
    return np.concatenate([special, noise * ref]).reshape(rows, cols)


@pytest.mark.parametrize("block", [1, 7, 30, 1 << 17], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("shape", [(11, 30), (1, 330), (330, 1)], ids=str)
def test_blocked_pgm_matches_one_shot_formula(monkeypatch, block, shape):
    # blocks of max(1, block // w) rows, the last one partial
    monkeypatch.setattr(serialize, "_PGM_BLOCK", block)
    for ref in (1.0, 0.37):
        img = special_image(ref, *shape)
        assert write_pgm_bytes(img, ref) == one_shot_pgm(img, ref)
        assert write_pgm_bytes(img[::-1, :], ref) == one_shot_pgm(img[::-1, :], ref)


def test_blocked_pgm_over_several_default_blocks():
    img = special_image(2.0, 70, 4096)  # 32 rows per block: two full blocks and a partial one
    assert write_pgm_bytes(img[::-1, :], 2.0) == one_shot_pgm(img[::-1, :], 2.0)


def test_field_csv_matches_reference_loop():
    a_grid, b_grid = np.linspace(-1, 1, 5), np.array([-0.5, 0.0, 1 / 3])
    F = np.array(SPECIAL + SPECIAL[:5]).reshape(3, 5)
    field = ExtensionField(None, a_grid, b_grid, F, base_gram=None, normalization=None)
    lines = ["a,b,F"]
    for i, b in enumerate(b_grid):
        for j, a in enumerate(a_grid):
            lines.append(f"{fmt_float(a)},{fmt_float(b)},{fmt_float(F[i, j])}")
    assert field_csv(field) == "\n".join(lines) + "\n"


def test_matrix_npy_round_trips_exact_values():
    values = np.array(SPECIAL, dtype=float).reshape(2, 5) * (1 + 1j) - 1j * 5e-324
    data = matrix_npy(values)
    assert data == matrix_npy(values.copy())  # the same values give the same bytes
    back = np.load(io.BytesIO(data), allow_pickle=False)
    assert back.dtype == np.complex128 and back.shape == (2, 5)
    assert back.tobytes() == values.tobytes()  # every bit, nan payloads and -0 included
