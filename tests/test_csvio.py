"""The CSV writer against a per-value ``repr`` reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
