"""cdekf.NonlinearModel checks its fields as SystemModel does, and keeps
read-only float copies of its matrices."""

import numpy as np
import pytest

from uikf.cdekf import NonlinearModel
from uikf.errors import DimensionError


def fields(**over):
    base = dict(
        f=lambda x, u, t: -x, h=lambda x: x, E=np.array([[0.0], [1.0]]),
        G=np.eye(2), Q=1e-4 * np.eye(2), R=1e-3 * np.eye(2), dt=0.01,
    )
    return {**base, **over}


@pytest.mark.parametrize(
    "over, error, message",
    [
        (dict(dt=-0.01), ValueError, "model.dt: must be a positive finite number, got -0.01"),
        (dict(dt=0.0), ValueError, "model.dt: must be a positive finite number, got 0.0"),
        (dict(dt=float("nan")), ValueError, "model.dt: must be a positive finite number, got nan"),
        (dict(dt="0.01"), ValueError, "model.dt: must be a positive finite number, got '0.01'"),
        (dict(E=np.ones(2)), DimensionError, "model.E: must be a 2-D matrix, got shape (2,)"),
        (dict(G=np.eye(2)[None]), DimensionError, "model.G: must be a 2-D matrix, got shape (1, 2, 2)"),
        (dict(E=np.array([[np.inf], [1.0]])), ValueError, "model.E: must be finite"),
        (dict(R=np.array([[np.nan, 0.0], [0.0, 1.0]])), ValueError, "model.R: must be finite"),
        (dict(G=np.eye(3)), DimensionError, "model.G: must have 2 rows, got (3, 3)"),
        (dict(Q=np.eye(3)), DimensionError, "model.Q: must be 2x2, got (3, 3)"),
        (dict(G=np.ones((2, 1))), DimensionError, "model.Q: must be 1x1, got (2, 2)"),
        (dict(R=np.ones((2, 3))), DimensionError, "model.R: must be square, got (2, 3)"),
        (dict(Q=[[1.0, 2.0], [0.0, 1.0]]), ValueError, "model.Q: not symmetric"),
        (dict(R=[[1.0, 0.5], [0.0, 1.0]]), ValueError, "model.R: not symmetric"),
        (dict(Q=-np.eye(2)), ValueError, "model.Q: not positive semi-definite (eigenvalue -1)"),
        (dict(R=-np.eye(2)), ValueError, "model.R: not positive semi-definite (eigenvalue -1)"),
    ],
)
def test_a_bad_field_is_refused_with_its_name(over, error, message):
    with pytest.raises(error) as info:
        NonlinearModel(**fields(**over))
    assert str(info.value) == message


def test_matrices_are_read_only_float_copies_and_f_h_are_not_called():
    def refuse(*args):
        raise AssertionError("called while the model is built")

    E = [[0], [1]]
    Q = np.eye(2)
    model = NonlinearModel(**fields(f=refuse, h=refuse, E=E, Q=Q))
    assert model.E.dtype == float and np.array_equal(model.E, E)
    Q[0, 0] = 5.0
    assert model.Q[0, 0] == 1.0
    for M in (model.E, model.G, model.Q, model.R):
        with pytest.raises(ValueError):
            M[0, 0] = 2.0
