"""Tests for fairexp.models.logistic."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fairexp.fairness.mitigation.inprocessing as inprocessing_module
import fairexp.models.logistic as logistic_module
from fairexp.datasets import make_loan_dataset
from fairexp.exceptions import ConvergenceError, NotFittedError, ValidationError
from fairexp.fairness.mitigation import FairLogisticRegression
from fairexp.models import LogisticRegression
from sigmoid_oracle import masked_sigmoid


def make_separable(rng, n=300, gap=3.0):
    X0 = rng.normal(-gap / 2, 1.0, (n // 2, 2))
    X1 = rng.normal(gap / 2, 1.0, (n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestFit:
    def test_separable_data_high_accuracy(self, rng):
        X, y = make_separable(rng)
        model = LogisticRegression(n_iter=800).fit(X, y)
        assert model.score(X, y) > 0.95

    def test_raw_scale_features_still_learn(self, rng):
        # Features with wildly different scales (e.g. credit score vs ratio).
        X, y = make_separable(rng)
        X_scaled = X * np.array([1000.0, 0.001])
        model = LogisticRegression(n_iter=800).fit(X_scaled, y)
        assert model.score(X_scaled, y) > 0.9

    def test_nonbinary_labels_rejected(self, rng):
        X = rng.normal(size=(30, 2))
        with pytest.raises(ValidationError):
            LogisticRegression().fit(X, np.arange(30))

    def test_sample_weight_changes_decision(self, rng):
        X, y = make_separable(rng, gap=0.5)
        heavy_on_positive = np.where(y == 1, 10.0, 1.0)
        base = LogisticRegression(n_iter=500).fit(X, y)
        weighted = LogisticRegression(n_iter=500).fit(X, y, sample_weight=heavy_on_positive)
        assert weighted.predict(X).mean() > base.predict(X).mean()

    def test_wrong_weight_shape_raises(self, rng):
        X, y = make_separable(rng)
        with pytest.raises(ValidationError):
            LogisticRegression().fit(X, y, sample_weight=np.ones(3))

    def test_reproducible(self, rng):
        X, y = make_separable(rng)
        a = LogisticRegression(random_state=3, n_iter=200).fit(X, y)
        b = LogisticRegression(random_state=3, n_iter=200).fit(X, y)
        assert np.allclose(a.coef_, b.coef_)


class TestPredict:
    def test_predict_proba_rows_sum_to_one(self, rng):
        X, y = make_separable(rng)
        model = LogisticRegression(n_iter=300).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (X.shape[0], 2)
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_predict_consistent_with_decision_function(self, rng):
        X, y = make_separable(rng)
        model = LogisticRegression(n_iter=300).fit(X, y)
        assert np.array_equal(model.predict(X), (model.decision_function(X) >= 0).astype(int))

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(np.ones((2, 2)))

    def test_clone_is_unfitted_copy(self, rng):
        X, y = make_separable(rng)
        model = LogisticRegression(l2=0.5, n_iter=100).fit(X, y)
        clone = model.clone()
        assert clone.l2 == 0.5
        with pytest.raises(NotFittedError):
            clone.predict(X)


class TestGradientsAndBoundary:
    def test_gradient_input_shape_and_direction(self, rng):
        X, y = make_separable(rng)
        model = LogisticRegression(n_iter=500).fit(X, y)
        gradients = model.gradient_input(X[:5])
        assert gradients.shape == (5, 2)
        # Probability gradient points along the coefficient direction.
        assert np.all(np.sign(gradients) == np.sign(model.coef_))

    def test_gradient_matches_finite_difference(self, rng):
        X, y = make_separable(rng)
        model = LogisticRegression(n_iter=500).fit(X, y)
        x = X[0].copy()
        analytic = model.gradient_input(x[None, :])[0]
        numeric = np.zeros_like(x)
        eps = 1e-5
        for j in range(x.shape[0]):
            x_hi, x_lo = x.copy(), x.copy()
            x_hi[j] += eps
            x_lo[j] -= eps
            numeric[j] = (
                model.predict_proba(x_hi[None, :])[0, 1]
                - model.predict_proba(x_lo[None, :])[0, 1]
            ) / (2 * eps)
        assert np.allclose(analytic, numeric, atol=1e-5)

    def test_distance_to_boundary_sign_matches_prediction(self, rng):
        X, y = make_separable(rng)
        model = LogisticRegression(n_iter=500).fit(X, y)
        distances = model.distance_to_boundary(X)
        assert np.array_equal(distances >= 0, model.predict(X) == 1)

    def test_distance_is_euclidean_to_hyperplane(self, rng):
        X, y = make_separable(rng)
        model = LogisticRegression(n_iter=500).fit(X, y)
        x = X[0]
        distance = model.distance_to_boundary(x[None, :])[0]
        # Moving the point by -distance along the unit normal lands on the boundary.
        normal = model.coef_ / np.linalg.norm(model.coef_)
        on_boundary = x - distance * normal
        assert abs(model.decision_function(on_boundary[None, :])[0]) < 1e-8

    def test_l2_shrinks_coefficients(self, rng):
        X, y = make_separable(rng)
        free = LogisticRegression(n_iter=800, l2=0.0).fit(X, y)
        shrunk = LogisticRegression(n_iter=800, l2=5.0).fit(X, y)
        assert np.linalg.norm(shrunk.coef_) < np.linalg.norm(free.coef_)


# ----------------------------------------------------------------------------
# Fit parity: the masked reference sigmoid patched into each training loop
# must fit the same model, bit for bit.
# ----------------------------------------------------------------------------
#: E1's two loan populations (label, direct_bias, recourse_gap) at the
#: benchmark's audit-cold size, seed 0.
E1_POPULATIONS = (("biased", 1.2, 1.0), ("fair", 0.0, 0.0))
E1_SAMPLES = 12000

PARITY_SETTINGS = settings(max_examples=40, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def _fitted_state(fit):
    """``(coef_, intercept_, n_iter_)`` of ``fit()`` as bytes, or the error it raised."""
    try:
        model = fit()
    except ConvergenceError as error:
        return type(error)
    return (model.coef_.tobytes(), float(model.intercept_).hex(),
            getattr(model, "n_iter_", None))


def _assert_fit_unchanged_by_masked_sigmoid(module, fit):
    current = _fitted_state(fit)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "sigmoid", masked_sigmoid)
        reference = _fitted_state(fit)
    assert current == reference


@pytest.fixture(scope="module")
def e1_trains():
    trains = []
    for _label, direct_bias, recourse_gap in E1_POPULATIONS:
        dataset = make_loan_dataset(E1_SAMPLES, direct_bias=direct_bias,
                                    recourse_gap=recourse_gap, random_state=0)
        trains.append(dataset.split(test_size=0.3, random_state=1)[0])
    return trains


@st.composite
def weighted_binary_problems(draw):
    n = draw(st.integers(4, 60))
    d = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, d),
                        elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    sensitive = np.arange(n) % 2
    weights = draw(st.one_of(
        st.none(), hnp.arrays(np.float64, n, elements=st.floats(0.01, 100.0))))
    return X, y, sensitive, weights


class TestMaskedSigmoidFitParity:
    @PARITY_SETTINGS
    @given(problem=weighted_binary_problems(), l2=st.sampled_from([0.0, 0.1]))
    def test_logistic_regression_hypothesis_data(self, problem, l2):
        X, y, _, weights = problem
        _assert_fit_unchanged_by_masked_sigmoid(
            logistic_module,
            lambda: LogisticRegression(n_iter=60, l2=l2).fit(X, y, sample_weight=weights))

    @PARITY_SETTINGS
    @given(problem=weighted_binary_problems())
    def test_fair_logistic_regression_hypothesis_data(self, problem):
        X, y, sensitive, weights = problem
        _assert_fit_unchanged_by_masked_sigmoid(
            inprocessing_module,
            lambda: FairLogisticRegression(fairness_weight=2.0, n_iter=60).fit(
                X, y, sensitive=sensitive, sample_weight=weights))

    @pytest.mark.parametrize("population", [0, 1], ids=[p[0] for p in E1_POPULATIONS])
    def test_logistic_regression_e1_populations(self, e1_trains, population):
        train = e1_trains[population]
        _assert_fit_unchanged_by_masked_sigmoid(
            logistic_module,
            lambda: LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y))

    @pytest.mark.parametrize("population", [0, 1], ids=[p[0] for p in E1_POPULATIONS])
    def test_fair_logistic_regression_e1_populations(self, e1_trains,
                                                     population):
        train = e1_trains[population]
        _assert_fit_unchanged_by_masked_sigmoid(
            inprocessing_module,
            lambda: FairLogisticRegression(fairness_weight=5.0, n_iter=300).fit(
                train.X, train.y, sensitive=train.sensitive_values))
