"""Deterministic serialization: stable JSON, CSV tables, binary PGM images.

All floats print with 17 significant digits (full round-trip fidelity for
float64), dictionary keys are sorted, and lines end with LF, so repeated
runs produce byte-identical artifacts.
"""

from __future__ import annotations

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
    """8-bit binary PGM (P5): pixel = clamp(255 * min(1, value/ref)).

    Rows are written top to bottom as given; NaN maps to 0.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        scaled = np.where(np.isnan(v), 0.0, np.clip(v / ref, 0.0, 1.0))
    pix = np.clip(np.rint(255.0 * scaled), 0, 255).astype(np.uint8)
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


def signal_csv(sig) -> str:
    """Signal samples as CSV rows (index, x, re, im)."""
    lines = ["index,x,re,im"]
    rows = zip(sig.grid.x().tolist(), np.real(sig.values).tolist(), np.imag(sig.values).tolist())
    lines.extend(f"{j},{x:.17g},{re:.17g},{im:.17g}" for j, (x, re, im) in enumerate(rows))
    return "\n".join(lines) + "\n"
