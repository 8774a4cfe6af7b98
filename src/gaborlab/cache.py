"""Content-addressed result cache with atomic writes.

Entries are keyed by a stable hash of the semantic request (command plus
canonicalized configuration), so flag reordering hits the cache.  An entry
file is one JSON header line (version, creation time) followed by the
payload string verbatim; a version mismatch or a corrupt entry triggers
recomputation.  ``source_fingerprint`` hashes the package sources, so a
version that includes it changes with every code edit.  Writes go through a
temp file and an atomic rename, so concurrent identical invocations leave
exactly one durable entry and every caller sees the same bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from typing import Callable

from .serialize import stable_json

__all__ = ["cache_key", "cache_get_or_compute", "default_cache_dir", "source_fingerprint"]

ENV_CACHE_DIR = "GABORLAB_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "gaborlab")


@functools.cache
def source_fingerprint() -> str:
    """SHA-256 prefix over the package's ``*.py`` files, read once per process."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            digest.update(name.encode("utf-8") + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def cache_key(command: str, semantic: dict) -> str:
    blob = stable_json({"command": command, "params": semantic})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_get_or_compute(
    key: str,
    thunk: Callable[[], str],
    version: str,
    cache_dir: str | None = None,
    log=None,
) -> tuple[str, bool]:
    """Return (payload, hit).  ``thunk`` computes the payload string on miss."""
    cache_dir = cache_dir or default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    log = log or (lambda msg: print(msg, file=sys.stderr))
    if os.path.exists(path):
        try:
            # newline="" keeps any '\r' in the payload as written
            with open(path, encoding="utf-8", newline="") as fh:
                header = json.loads(fh.readline())
                if isinstance(header, dict) and header.get("version") == version:
                    return fh.read(), True
            log(f"cache: version mismatch for {key[:12]}, recomputing")
        except (ValueError, OSError) as exc:
            log(f"cache: corrupt entry {key[:12]} ({exc}), recomputing")
    payload = thunk()
    header = json.dumps({"version": version, "created": time.time()})
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n" + payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return payload, False
