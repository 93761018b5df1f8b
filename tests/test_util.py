import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsc import InvalidInputError, util
from dynsc.util import available_memory, format_ints, parse_kv


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2 ** 63 - 1), min_size=3, max_size=3), max_size=40),
       st.binary(min_size=3, max_size=3))
def test_format_ints_matches_python_formatting(rows, seps):
    values = np.array(rows, dtype=np.int64).reshape(-1, 3)
    want = b"".join(str(v).encode() + seps[j:j + 1]
                    for row in rows for j, v in enumerate(row))
    assert format_ints(values, seps) == want


def test_format_ints_place_boundaries():
    values = np.array([0, 9, 10, 99, 100, 101, 65535, 65536, 2 ** 32 - 1, 2 ** 32])
    want = "".join(f"{v}\n" for v in values.tolist()).encode()
    assert format_ints(values[:, None], b"\n") == want


def test_format_ints_empty_and_negative():
    assert format_ints(np.empty((0, 2), np.int64), b" \n") == b""
    with pytest.raises(InvalidInputError):
        format_ints(np.array([[3, -1]]), b" \n")


def test_parse_kv_rejects_a_line_without_equals():
    assert parse_kv("# header\n\na = 1\n") == {"a": "1"}
    with pytest.raises(InvalidInputError, match="line 2: expected key=value"):
        parse_kv("a=1\nb\n")


def _fake_open(text):
    def fake_open(path, *args, **kwargs):
        if text is None:
            raise FileNotFoundError(path)
        return io.StringIO(text)
    return fake_open


@pytest.mark.parametrize("text,want", [
    ("MemTotal:  2048 kB\nMemAvailable:  1024 kB\n", 1024 * 1024),
    (None, None),  # no /proc/meminfo
    ("MemTotal:  2048 kB\nMemFree:  512 kB\n", None),  # a kernel without MemAvailable
    ("MemAvailable:\n", None),
])
def test_available_memory_reads_mem_available_or_none(monkeypatch, text, want):
    monkeypatch.setattr(util, "open", _fake_open(text), raising=False)
    assert available_memory() == want
