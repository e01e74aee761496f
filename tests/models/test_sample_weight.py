"""One ``sample_weight`` contract for every classifier whose ``fit`` uses weights."""

import pickle

import numpy as np
import pytest

from fairexp.exceptions import ValidationError
from fairexp.fairness.mitigation import FairLogisticRegression, RecourseRegularizedClassifier
from fairexp.models import (
    CalibratedClassifier,
    DecisionTreeClassifier,
    GaussianNaiveBayes,
    KNeighborsClassifier,
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


#: Classifiers whose ``fit`` has no ``sample_weight``: a weighted call must fail.
UNWEIGHTED = {
    "knn": lambda: KNeighborsClassifier(n_neighbors=3),
    "calibrated": lambda: CalibratedClassifier(LogisticRegression(n_iter=50), n_iter=50),
}


def _data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(N_SAMPLES, 3))
    y = (X[:, 0] + 0.5 * rng.normal(size=N_SAMPLES) > 0).astype(int)
    return X, y


def _fit(name, weights):
    X, y = _data()
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


@pytest.mark.parametrize("zero_class", [0, 1])
def test_naive_bayes_class_without_weight_raises(zero_class):
    # Weights valid overall but summing to 0 over one class leave that
    # class's Gaussian undefined.
    X, y = _data()
    weights = np.where(y == zero_class, 0.0, 1.0)
    with pytest.raises(ValidationError, match=f"sample_weight sums to 0 over class {zero_class}"):
        GaussianNaiveBayes().fit(X, y, sample_weight=weights)


@pytest.mark.parametrize("name", UNWEIGHTED)
def test_unweighted_classifier_rejects_sample_weight(name):
    X, y = _data()
    with pytest.raises(TypeError, match="sample_weight"):
        UNWEIGHTED[name]().fit(X, y, sample_weight=np.ones(N_SAMPLES))
