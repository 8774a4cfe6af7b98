"""Content-addressed result cache with atomic writes.

Entries are keyed by a stable hash of the semantic request (command plus
canonicalized configuration), so flag reordering hits the cache.  An entry
file is one JSON header line (the version) followed by the payload bytes
unchanged, so its size is the header line plus the payload length; a
version mismatch or a corrupt entry triggers recomputation.
``source_fingerprint`` hashes the package sources, so a version that
includes it changes with every code edit.  Writes go through a
temp file and an atomic rename, so concurrent identical invocations leave
exactly one durable entry and every caller sees the same bytes.

The cache is bounded by total entry bytes: a hit refreshes its entry's
mtime, and each write adds its size to a running total kept in the file
``USAGE_FILE`` under an exclusive lock.  Only when that total passes
``MAX_CACHE_BYTES`` (or the file is missing) is the directory scanned, the
least recently used entries removed until the rest fits, and the total
reset to the bytes left.  The entry just written is kept even if it alone
is larger.  Overwritten or externally deleted entries make the total too
high, which only brings the next scan forward.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import json
import os
import sys
import tempfile
from typing import Callable

from .serialize import stable_json

__all__ = ["cache_key", "cache_get_or_compute", "default_cache_dir", "source_fingerprint"]

ENV_CACHE_DIR = "GABORLAB_CACHE_DIR"
MAX_CACHE_BYTES = 512 * 2**20  # total size of the entries in one cache directory
USAGE_FILE = "usage"  # running total of the entry bytes in a cache directory


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


def _evict(cache_dir: str, keep: str) -> int:
    """Remove least recently used entries, never ``keep``, until the total fits.

    Returns the bytes of the entries left.
    """
    entries = []
    with os.scandir(cache_dir) as it:
        for e in it:
            if e.name.endswith(".json"):
                try:
                    st = e.stat()
                except OSError:  # removed by a concurrent caller
                    continue
                entries.append((st.st_mtime_ns, st.st_size, e.path))
    total = sum(size for _, size, _ in entries)
    for _, size, path in sorted(entries):
        if total <= MAX_CACHE_BYTES:
            break
        if path == keep:
            continue
        with contextlib.suppress(FileNotFoundError):  # removed by a concurrent caller
            os.unlink(path)
        total -= size
    return total


def _account(cache_dir: str, added: int, keep: str) -> None:
    """Add ``added`` bytes to the running total; scan and evict once it passes the bound."""
    fd = os.open(os.path.join(cache_dir, USAGE_FILE), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # released when fd closes
        text = os.read(fd, 64)
        total = int(text) + added if text.isdigit() else None  # no total yet: scan
        if total is None or total > MAX_CACHE_BYTES:
            total = _evict(cache_dir, keep)
        os.pwrite(fd, b"%020d" % total, 0)  # fixed width: overwritten in place, never truncated
    finally:
        os.close(fd)


def cache_get_or_compute(
    key: str,
    thunk: Callable[[], bytes],
    version: str,
    cache_dir: str | None = None,
    log=None,
) -> tuple[bytes, bool]:
    """Return (payload, hit).  ``thunk`` computes the payload bytes on miss."""
    cache_dir = cache_dir or default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    log = log or (lambda msg: print(msg, file=sys.stderr))
    if os.path.exists(path):
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                if isinstance(header, dict) and header.get("version") == version:
                    payload = fh.read()
                    with contextlib.suppress(OSError):  # a read-only cache still serves hits
                        os.utime(path)  # most recently used
                    return payload, True
            log(f"cache: version mismatch for {key[:12]}, recomputing")
        except (ValueError, OSError) as exc:
            log(f"cache: corrupt entry {key[:12]} ({exc}), recomputing")
    payload = thunk()
    header = json.dumps({"version": version}).encode() + b"\n"
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _account(cache_dir, len(header) + len(payload), keep=path)
    return payload, False
