"""Small shared helpers: seed derivation, the flat key=value text format, free memory."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError


def subseed(seed: int, *path: int) -> int:
    """Derive a child seed from a root seed and an integer path.

    The derivation is a pure function of ``(seed, *path)``, so workers can
    compute their own streams independently: parallel generation equals
    serial generation bit for bit.
    """
    ss = np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))
    a, b = ss.generate_state(2)
    return (int(a) << 32) | int(b)


def dump_kv(mapping: dict, header: str | None = None) -> str:
    """Serialize a mapping as ``key=value`` lines (one per key)."""
    lines = []
    if header:
        lines.append(f"# {header}")
    for key, value in mapping.items():
        if isinstance(value, float):
            value = format(value, ".12g")
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key=value`` lines; ``#`` starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def available_memory() -> int | None:
    """``MemAvailable`` from ``/proc/meminfo`` in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the value is in kB
    except (OSError, ValueError, IndexError):
        return None
    return None
