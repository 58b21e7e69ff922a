import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from flexfunc.certificates import failure_intervals


def _loop_intervals(xs, bad):
    """Run grouping by one pass over the points: the oracle for the mask diff."""
    out = []
    start = None
    prev = None
    for x, flag in zip(xs, bad):
        if flag:
            if start is None:
                start = x
            prev = x
        elif start is not None:
            out.append((float(start), float(prev)))
            start = None
    if start is not None:
        out.append((float(start), float(prev)))
    return tuple(out)


@st.composite
def _masks(draw):
    n = draw(st.integers(0, 60))
    xs = np.sort(np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))))
    kind = draw(st.sampled_from(["random", "none", "all"]))
    if kind == "random":
        bad = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        bad = np.full(n, kind == "all")
    return xs, bad


@given(_masks())
def test_failure_intervals_match_loop(case):
    xs, bad = case
    got = failure_intervals(xs, bad)
    assert got == _loop_intervals(xs, bad)
    assert all(type(v) is float for interval in got for v in interval)

