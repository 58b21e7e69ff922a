import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexfunc.certificates import MIN_GRID_N, failure_intervals
from flexfunc.model import reference_params
from flexfunc.stability import certify_bounded, certify_stable, max_stable_noise


def _loop_intervals(edges, bad):
    """Run grouping by one pass over the cells: the oracle for the mask diff."""
    out = []
    start = None
    for i, flag in enumerate(bad):
        if flag and start is None:
            start = edges[i]
        elif not flag and start is not None:
            out.append((float(start), float(edges[i])))
            start = None
    if start is not None:
        out.append((float(start), float(edges[len(bad)])))
    return tuple(out)


@st.composite
def _masks(draw):
    n = draw(st.integers(0, 60))
    edges = np.sort(np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1))))
    kind = draw(st.sampled_from(["random", "none", "all"]))
    if kind == "random":
        bad = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        bad = np.full(n, kind == "all")
    return edges, bad


@given(_masks())
def test_failure_intervals_match_loop(case):
    edges, bad = case
    got = failure_intervals(edges, bad)
    assert got == _loop_intervals(edges, bad)
    assert all(type(v) is float for interval in got for v in interval)


@pytest.mark.parametrize("grid_n", [0, 1, 99])
@pytest.mark.parametrize("B_star", [0.0, 0.4, 1.0])  # 0 and 1: the eta1 = 0 early returns
@pytest.mark.parametrize("certify", [certify_bounded, certify_stable, max_stable_noise])
def test_every_certifier_refuses_a_coarse_grid(certify, B_star, grid_n):
    with pytest.raises(ValueError, match=f"grid_n must be at least {MIN_GRID_N}"):
        certify(reference_params(2.0), 0.0, B_star, grid_n=grid_n)
