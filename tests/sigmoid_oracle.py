"""The masked two-branch logistic sigmoid, kept as a reference.

``fairexp.utils.sigmoid`` computes the same function without sign masks;
``tests/test_properties.py`` compares the two bitwise and
``tests/models/test_logistic.py`` patches this one into the training loops
to show that fitted models do not change.
"""

import numpy as np


def masked_sigmoid(z):
    """``1 / (1 + exp(-z))`` on the non-negative entries, ``exp(z) / (1 + exp(z))`` below."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def assert_same_floats(actual, expected):
    """Equal dtype, shape and bits, except that a NaN only has to meet a NaN."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()
