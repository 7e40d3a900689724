"""Flat key = value configuration files.

The format is one ``key = value`` pair per line, ``#`` starts a comment,
and a ``schema_version`` line is mandatory.  It is deliberately trivial to
parse and diff.
"""

from __future__ import annotations

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse config text into an ordered key -> raw-value mapping.

    The ``schema_version`` line is validated and consumed.  Duplicate keys
    and lines that are not ``key = value`` are rejected.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in out:
            raise ConfigError(key, "duplicate key")
        out[key] = value
    if "schema_version" not in out:
        raise ConfigError("schema_version", "missing required line")
    version = out.pop("schema_version")
    if version != str(SCHEMA_VERSION):
        raise ConfigError("schema_version", f"unsupported version {version!r}, expected {SCHEMA_VERSION}")
    return out

