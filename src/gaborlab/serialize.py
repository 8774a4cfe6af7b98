"""Deterministic serialization: stable JSON, CSV tables, binary PGM images
and NPY matrices.

Text floats print with 17 significant digits (full round-trip fidelity for
float64), dictionary keys are sorted, and lines end with LF; NPY matrices
hold the exact values.  Repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
import io
import json
import math
from typing import Any

import numpy as np

__all__ = [
    "fmt_float",
    "stable_json",
    "framemap_csv",
    "framemap_pgm",
    "field_csv",
    "field_pgm",
    "magnitude_pgm",
    "signal_csv",
    "compact_csv",
    "write_pgm_bytes",
    "matrix_npy",
]

_PGM_BLOCK = 1 << 17  # float64 pixels quantized per block of _quantize (1 MiB)


def fmt_float(x: float) -> str:
    """17 significant digits; non-finite values print as nan, inf, -inf."""
    return format(float(x), ".17g")


def stable_json(obj: Any, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, 17-digit floats, NaN/inf as null."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return fmt_float(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [stable_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k in sorted(obj):
            parts.append(f"{pad_in}{json.dumps(str(k))}: {stable_json(obj[k], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def framemap_csv(fmap) -> str:
    """One row per scan cell: targets, snapped values, bounds, label.

    Each beta row fills one %-template with its alpha_target column written in.
    """
    fields = ",%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
    template = "".join(f"{a:.17g}{fields}" for a in fmap.alpha_targets.tolist())
    columns = (fmap.alpha_snapped, fmap.beta_snapped, fmap.A, fmap.B, fmap.labels)
    lines = ["alpha_target,beta_target,alpha_snap,beta_snap,A,B,label\n"]
    for i, beta in enumerate(fmap.beta_targets.tolist()):
        cells = zip(*(values[i].tolist() for values in columns))
        lines.append(template % tuple(x for cell in cells for x in (beta, *cell)))
    return "".join(lines)


def _pgm_buffer(h: int, w: int) -> tuple[bytearray, np.ndarray]:
    """One P5 image buffer: the header, then the pixels, writable as an (h, w) uint8 view."""
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    out = bytearray(len(header) + h * w)
    out[: len(header)] = header
    return out, np.frombuffer(out, dtype=np.uint8, offset=len(header)).reshape(h, w)


def _quantize(values: np.ndarray, ref: float, pix: np.ndarray) -> None:
    """pix = rint(255 * clip(values/ref, 0, 1)), NaN -> 0, in blocks of rows."""
    h, w = values.shape
    rows = max(1, _PGM_BLOCK // max(w, 1))
    buf = np.empty((min(rows, h), w))
    with np.errstate(invalid="ignore"):
        for i in range(0, h, rows):
            b = buf[: min(rows, h - i)]
            np.divide(values[i : i + rows], ref, out=b)
            np.fmax(b, 0.0, out=b)  # clip below, and NaN -> 0
            np.fmin(b, 1.0, out=b)
            b *= 255.0
            pix[i : i + rows] = np.rint(b, out=b)


def write_pgm_bytes(values: np.ndarray, ref: float) -> bytes:
    """8-bit binary PGM (P5): pixel = rint(255 * clip(value/ref, 0, 1)).

    Rows are written top to bottom as given; NaN maps to 0.  The image is
    quantized in blocks of rows straight into the file buffer, so no float
    copy of the whole image is made.
    """
    out, pix = _pgm_buffer(*values.shape)
    _quantize(values, ref, pix)
    return bytes(out)


def framemap_pgm(fmap) -> bytes:
    """Grayscale map of the lower frame bound, beta increasing upward, white at its maximum."""
    finite = fmap.A[np.isfinite(fmap.A)]
    return write_pgm_bytes(fmap.A[::-1, :], float(finite.max()) if finite.size else 1.0)


def field_csv(field) -> str:
    """Extension field as CSV rows (a, b, F).

    Each b row fills one %-template: the a column written in once, the row's
    b text put in place of the NUL marks, and F left open.
    """
    template = "".join(f"{a:.17g},\0,%.17g\n" for a in field.a_grid.tolist())
    lines = ["a,b,F\n"]
    for b, row in zip(field.b_grid.tolist(), field.F.tolist()):
        lines.append(template.replace("\0", fmt_float(b)) % tuple(row))
    return "".join(lines)


def field_pgm(field) -> bytes:
    """Grayscale map of the extension field, b increasing upward, white at F = 1."""
    return write_pgm_bytes(field.F[::-1, :], 1.0)


def magnitude_pgm(half: np.ndarray) -> bytes:
    """Grayscale map of |V| on the L x L torus, n increasing upward, white at its maximum.

    ``half`` holds the columns k <= L/2 (as :func:`stft.stft_diagnostics`
    returns them).  They are quantized once, and pixel columns L/2 - 1 ... 1
    are copied to columns L/2 + 1 ... L - 1, since |V[n, L - k]| = |V[n, k]|.
    """
    h, m = half.shape
    out, pix = _pgm_buffer(h, 2 * (m - 1))
    _quantize(half[::-1, :], float(half.max()), pix[:, :m])
    pix[:, m:] = pix[:, m - 2 : 0 : -1]
    return bytes(out)


@functools.lru_cache(maxsize=8)
def _signal_rows(grid) -> str:
    """One %-format template per grid: the index and x columns filled in, re and im open."""
    return "".join(f"{j},{x:.17g},%.17g,%.17g\n" for j, x in enumerate(grid.x().tolist()))


def signal_csv(sig) -> str:
    """Signal samples as CSV rows (index, x, re, im)."""
    re_im = sig.values.view(np.float64)  # re and im of each sample, interleaved
    return "index,x,re,im\n" + _signal_rows(sig.grid) % tuple(re_im.tolist())


def compact_csv(sig) -> str:
    """Compact signal samples as CSV rows (x, value), the value being the real part."""
    rows = np.column_stack([sig.positions(), sig.samples.real]).ravel().tolist()
    return "x,value\n" + "%.17g,%.17g\n" * len(sig.samples) % tuple(rows)


def matrix_npy(values: np.ndarray) -> bytes:
    """An array as ``.npy`` bytes (no pickled objects), read back with ``np.load``."""
    buf = io.BytesIO()
    np.save(buf, values, allow_pickle=False)
    return buf.getvalue()
