"""Hypothesis strategies shared by several test modules."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from flexfunc import model
from flexfunc.model import FlexParams


@st.composite
def admissible_params(draw):
    """Random parameter sets that pass ``validate``, at the default sigma_x."""
    shape = np.array([draw(st.floats(0.01, 1.0)) for _ in range(3)])
    weights = np.array([draw(st.floats(0.01, 1.0)) for _ in range(7)])
    params = FlexParams(
        C=draw(st.floats(0.5, 5.0)),
        lam=draw(st.floats(0.05, 1.0)),
        k=draw(st.floats(0.5, 20.0)),
        alpha=(draw(st.floats(-0.5, 0.5)), *(shape / shape.sum())),
        beta=tuple(-2.0 * weights / weights.sum()),
    )
    assume(model.validate(params).ok)
    return params
