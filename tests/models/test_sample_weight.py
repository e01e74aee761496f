"""One ``sample_weight`` contract for every classifier whose ``fit`` uses weights."""

import pickle

import numpy as np
import pytest

from fairexp.exceptions import ValidationError
from fairexp.fairness.mitigation import FairLogisticRegression, RecourseRegularizedClassifier
from fairexp.models import (
    DecisionTreeClassifier,
    GaussianNaiveBayes,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)

N_SAMPLES = 50

#: Factories of small, fast configurations of each weighted classifier.
WEIGHTED = {
    "logistic": lambda: LogisticRegression(n_iter=50),
    "tree": lambda: DecisionTreeClassifier(max_depth=3),
    "forest": lambda: RandomForestClassifier(n_estimators=3, max_depth=3),
    "naive_bayes": lambda: GaussianNaiveBayes(),
    "mlp": lambda: MLPClassifier(hidden_sizes=(4,), n_epochs=3),
    "fair_logistic": lambda: FairLogisticRegression(n_iter=50),
    "recourse_regularized": lambda: RecourseRegularizedClassifier(n_iter=50),
}


def _one_at_zero(value):
    weights = np.ones(N_SAMPLES)
    weights[0] = value
    return weights


INVALID = {
    "all-zero": np.zeros(N_SAMPLES),
    "one-nan": _one_at_zero(np.nan),
    "one-inf": _one_at_zero(np.inf),
    "one-minus-inf": _one_at_zero(-np.inf),
    "all-negative": -np.ones(N_SAMPLES),
    "one-negative": _one_at_zero(-5.0),
    "sum-overflows": np.full(N_SAMPLES, 1e308),
    "too-short": np.ones(N_SAMPLES - 1),
    "column": np.ones((N_SAMPLES, 1)),
}


def _fit(name, weights):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N_SAMPLES, 3))
    y = (X[:, 0] + 0.5 * rng.normal(size=N_SAMPLES) > 0).astype(int)
    model = WEIGHTED[name]()
    if name in ("fair_logistic", "recourse_regularized"):
        return model.fit(X, y, sensitive=np.arange(N_SAMPLES) % 2, sample_weight=weights)
    return model.fit(X, y, sample_weight=weights)


@pytest.mark.parametrize("weights", INVALID.values(), ids=INVALID.keys())
@pytest.mark.parametrize("name", WEIGHTED)
def test_invalid_sample_weight_raises_validation_error(name, weights):
    with pytest.raises(ValidationError, match="sample_weight"):
        _fit(name, weights)


@pytest.mark.parametrize("name", WEIGHTED)
def test_valid_sample_weight_fits_unchanged(name):
    # Unit weights are the unweighted fit, and a list of ints is its float array.
    assert pickle.dumps(_fit(name, np.ones(N_SAMPLES))) == pickle.dumps(_fit(name, None))
    integers = [1 + k % 3 for k in range(N_SAMPLES)]
    assert pickle.dumps(_fit(name, integers)) == pickle.dumps(
        _fit(name, np.asarray(integers, dtype=float)))
