"""Small shared helpers: seed derivation, the flat key=value text format, free memory,
and ``format_ints``, the vectorized integer writer behind the edge-list and label files."""

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


def format_ints(values, seps: bytes) -> bytes:
    r"""ASCII decimals of non-negative ints, each followed by its own separator byte.

    ``values`` is an integer array whose last axis has ``len(seps)`` entries;
    ``seps[j]`` follows every value in column ``j``, and the values are written
    in C order. ``np.column_stack([rows, cols])`` with ``b" \n"`` gives the
    bytes of ``f"{i} {j}\n"`` per edge, and a label row with
    ``b"," * (n - 1) + b"\n"`` those of ``np.savetxt(..., fmt="%d", delimiter=",")``.

    One ``divmod`` by 10 per digit place fills an ``(m, width + 1)`` uint8
    array, and a mask of the same shape drops the leading zeros. The transient
    memory is those two arrays and a few m-long integer arrays for ``m``
    values, so callers pass one snapshot or one label row at a time.
    """
    v = np.asarray(values)
    sep = np.broadcast_to(np.frombuffer(seps, dtype=np.uint8), v.shape).ravel()
    if not v.size:
        return b""
    if v.min() < 0:
        raise InvalidInputError("format_ints writes non-negative integers only")
    top = int(v.max())
    width = len(str(top))
    rest = v.ravel().astype(np.min_scalar_type(top))  # narrow types divide faster
    out = np.empty((rest.size, width + 1), dtype=np.uint8)
    keep = np.ones(out.shape, dtype=bool)
    out[:, width] = sep
    for place in range(width - 1, -1, -1):
        if place < width - 1:  # a digit left of the units is kept while digits remain
            np.greater(rest, 0, out=keep[:, place])
        rest, digit = np.divmod(rest, 10)
        out[:, place] = digit
    out[:, :width] += ord("0")
    return out[keep].tobytes()


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
