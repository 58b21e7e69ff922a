"""The CSV writer against a per-value ``repr`` reference."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flexfunc import _csvio
from flexfunc._csvio import write_csv

# signed zeros, NaNs, infinities, subnormals and the least normal
SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.2250738585072014e-308, 0.1]
LENGTHS = [0, 1, 255, 256, 257, 513]


def _naive(header, columns):
    rows = zip(*([repr(float(v)) for v in col] for col in columns))
    return (header + "\n" + "".join(",".join(row) + "\n" for row in rows)).encode()


@st.composite
def _column(draw, n):
    """``n`` values in constant runs; a run may cross a 256-row chunk boundary."""
    values = []
    while len(values) < n:
        value = draw(st.one_of(st.sampled_from(SPECIAL), st.floats()))
        values += [value] * draw(st.sampled_from([1, 2, 255, 256, 300, 513]))
    return values[:n]


@st.composite
def _table(draw):
    n = draw(st.sampled_from(LENGTHS))
    return [draw(_column(n)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60)
@given(_table())
@example([[-0.0] * 100 + [0.0] * 156])
@example([[0.0] * 255 + [-0.0], [math.nan] * 256])
@example([[1.0] * 257, [2.0] * 256 + [3.0]])
@example([[1.0] * 100 + [2.0] + [1.0] * 155])
def test_write_csv_matches_per_value_repr(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = ",".join(f"c{i}" for i in range(len(columns)))
    write_csv(path, header, [np.array(col, dtype=float) for col in columns])
    assert path.read_bytes() == _naive(header, columns)


def test_write_csv_refuses_unequal_columns(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"equal length, got lengths \[3, 2, 3\]"):
        write_csv(path, "a,b,c", ([1.0, 2.0, 3.0], [1.0, 2.0], [0.0] * 3))
    assert not path.exists()


def _flip_bits(col):
    """The same values under other bits: each zero changes sign, each NaN its payload."""
    bits = np.array(col, dtype=float).view(np.uint64)
    zero, nan = bits << np.uint64(1) == 0, np.isnan(bits.view(float))
    bits[zero] ^= np.uint64(1 << 63)
    bits[nan] = (bits[nan] ^ np.uint64(1)) | np.uint64(1 << 51)  # still a quiet NaN
    return bits.view(float)


@st.composite
def _files(draw):
    """2-4 tables, each leading with a column drawn from the one before it."""
    lead = np.array(draw(_column(draw(st.sampled_from(LENGTHS)))), dtype=float)
    leads = [lead]
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["whole", "part", "shift", "bits"]))
        if how == "whole":
            lead = lead.copy()
        elif how == "part":  # a prefix kept, the rest new
            tail = draw(_column(draw(st.sampled_from(LENGTHS))))
            lead = np.concatenate([lead[: draw(st.integers(0, len(lead)))], tail])
        elif how == "shift":  # rows dropped or prepended, across a chunk boundary or not
            shift = draw(st.sampled_from([1, 255, 256, 257]))
            lead = lead[shift:] if draw(st.booleans()) else np.concatenate([lead[:shift], lead])
        else:
            lead = _flip_bits(lead)
        leads.append(lead)
    n_more = draw(st.integers(0, 2))
    return [[lead] + [draw(_column(len(lead))) for _ in range(n_more)] for lead in leads]


@settings(max_examples=60)
@given(_files())
@example([[np.zeros(300)], [-np.zeros(300)], [np.zeros(300)]])
@example([[np.arange(513.0)], [np.arange(513.0)[1:]], [np.arange(513.0)[256:]]])
@example([[np.full(256, math.nan)], [_flip_bits(np.full(256, math.nan)), np.arange(-1.0, 255.0)]])
def test_write_csv_matches_per_value_repr_over_consecutive_files(tmp_path_factory, tables):
    # each file is written after the one before it, whose leading column it may share
    out = tmp_path_factory.mktemp("csv")
    for i, columns in enumerate(tables):
        header = ",".join(f"c{j}" for j in range(len(columns)))
        write_csv(out / f"{i}.csv", header, columns)
        assert (out / f"{i}.csv").read_bytes() == _naive(header, columns)


def test_write_csv_retains_at_most_the_last_leading_column(tmp_path):
    n = 4001
    bounds, retained = [], []
    tracemalloc.start()
    try:
        for k in range(10):
            t = np.arange(n) * (0.03 + 0.001 * k)
            write_csv(tmp_path / f"{k}.csv", "t,x", (t, np.sin(t)))
            snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, _csvio.__file__)])
            retained.append(sum(stat.size for stat in snapshot.statistics("filename")))
            chunks = [t[i : i + 256] for i in range(0, n, 256)]
            texts = ["\n".join(map(repr, chunk.tolist())) for chunk in chunks]
            keys = [chunk.tobytes() for chunk in chunks]
            # the joined text, the keys and their dict; the slack covers the
            # interpreter's float free list (100 x 24 B) and a few small objects
            bounds.append(sum(map(sys.getsizeof, texts + keys)) + sys.getsizeof(dict.fromkeys(keys)) + 4096)
    finally:
        tracemalloc.stop()
    # ten different grids: holding more than the last one's column would exceed its bound
    assert all(r <= b for r, b in zip(retained, bounds)), (retained, bounds)
