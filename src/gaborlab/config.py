"""Run configuration shared by all commands, and config-file parsing.

The command-line table in ``gaborlab.cli`` declares every parameter with its
type and default; this module holds the resolved common configuration and
the ``key = value`` file reader.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Collection

__all__ = ["RunConfig", "load_config_file", "ConfigError"]


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Malformed configuration file or invalid value.

    When a flag's type raises it, argparse reports its message instead of
    a generic "invalid value".
    """


def _power_factor(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


@dataclass
class RunConfig:
    """Resolved configuration shared by all commands."""

    L: int
    delta: float
    window: str
    outdir: str
    cache: bool
    threads: int
    wrap_tol: float

    def validate(self) -> None:
        if self.L <= 0 or self.L % 2 != 0:
            raise ConfigError(f"L must be a positive even integer, got {self.L}")
        if _power_factor(_power_factor(self.L, 2), 3) != 1:
            raise ConfigError(
                f"L must factor as a power of two times a power of three, got {self.L}"
            )
        if not (self.delta > 0):
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


def load_config_file(path: str, keys: Collection[str]) -> dict[str, str]:
    """Parse a line-oriented ``key = value`` file.

    Blank lines are skipped; a line must contain exactly one '='; keys
    outside ``keys`` are errors.  Returns raw string values (typing happens
    at merge).
    """
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.count("=") != 1:
                raise ConfigError(f"{path}:{lineno}: malformed line {line!r}")
            key, value = (part.strip() for part in line.split("="))
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: malformed line {line!r}")
            if key not in keys:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values
