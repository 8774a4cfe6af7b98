"""Deterministic serialization: stable JSON, CSV tables, binary PGM images.

All floats print with 17 significant digits (full round-trip fidelity for
float64), dictionary keys are sorted, and lines end with LF, so repeated
runs produce byte-identical artifacts.
"""

from __future__ import annotations

import functools
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
    "signal_csv",
    "write_pgm_bytes",
]


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
    if isinstance(obj, (complex, np.complexfloating)):
        return stable_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return stable_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [stable_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(pad_in + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        import json

        parts = []
        for k in sorted(obj):
            parts.append(f"{pad_in}{json.dumps(str(k))}: {stable_json(obj[k], indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def framemap_csv(fmap) -> str:
    """One row per scan cell: targets, snapped values, bounds, label."""
    lines = ["alpha_target,beta_target,alpha_snap,beta_snap,A,B,label"]
    res = fmap.resolution
    for i in range(res):
        for j in range(res):
            lines.append(
                ",".join(
                    [
                        fmt_float(fmap.alpha_targets[j]),
                        fmt_float(fmap.beta_targets[i]),
                        fmt_float(fmap.alpha_snapped[i, j]),
                        fmt_float(fmap.beta_snapped[i, j]),
                        fmt_float(fmap.A[i, j]),
                        fmt_float(fmap.B[i, j]),
                        str(fmap.labels[i, j]),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def write_pgm_bytes(values: np.ndarray, ref: float) -> bytes:
    """8-bit binary PGM (P5): pixel = rint(255 * clip(value/ref, 0, 1)).

    Rows are written top to bottom as given; NaN maps to 0.
    """
    with np.errstate(invalid="ignore"):
        scaled = np.divide(values, ref, dtype=float)
        np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled[np.isnan(scaled)] = 0.0
    scaled *= 255.0
    pix = np.rint(scaled, out=scaled).astype(np.uint8)
    h, w = pix.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + pix.tobytes()


def framemap_pgm(fmap, a_ref: float | None = None) -> bytes:
    """Grayscale map of the lower frame bound, beta increasing upward."""
    if a_ref is None:
        finite = fmap.A[np.isfinite(fmap.A)]
        a_ref = float(finite.max()) if finite.size else 1.0
    return write_pgm_bytes(fmap.A[::-1, :], a_ref)


def field_csv(field) -> str:
    """Extension field as CSV rows (a, b, F)."""
    lines = ["a,b,F"]
    a_text = [fmt_float(a) for a in field.a_grid.tolist()]
    for b, row in zip(field.b_grid.tolist(), field.F.tolist()):
        b_text = fmt_float(b)
        lines.extend(f"{a},{b_text},{f:.17g}" for a, f in zip(a_text, row))
    return "\n".join(lines) + "\n"


def field_pgm(field, ref: float = 1.0) -> bytes:
    return write_pgm_bytes(field.F[::-1, :], ref)


@functools.lru_cache(maxsize=8)
def _signal_rows(grid, im_text: bool) -> str:
    """One %-format template per grid: the index and x columns filled in, re and im open."""
    im = "%s" if im_text else "%.17g"
    return "".join(f"{j},{x:.17g},%.17g,{im}\n" for j, x in enumerate(grid.x().tolist()))


def signal_csv(sig) -> str:
    """Signal samples as CSV rows (index, x, re, im).

    An imaginary part that is all +-0 (real signals) is written as the
    strings "0" and "-0" instead of formatting each float.
    """
    v = sig.values
    flat = [None] * (2 * v.size)
    flat[0::2] = v.real.tolist()
    im_text = not v.imag.any()
    flat[1::2] = np.where(np.signbit(v.imag), "-0", "0").tolist() if im_text else v.imag.tolist()
    return "index,x,re,im\n" + _signal_rows(sig.grid, im_text) % tuple(flat)
