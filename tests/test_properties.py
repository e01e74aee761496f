"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairexp.causal import (
    probability_of_necessity,
    probability_of_necessity_and_sufficiency,
    probability_of_sufficiency,
)
from fairexp.explanations import counterfactual_distance, shapley_for_value_function
from fairexp.explanations.counterfactual import ActionabilityConstraints
from fairexp.fairness import (
    disparate_impact,
    generalized_entropy_index,
    group_exposure_ratio,
    position_weights,
    statistical_parity_difference,
    top_k_representation,
)
from fairexp.models import confusion_matrix, f1_score, precision_score, recall_score
from fairexp.models.metrics import roc_curve
from fairexp.utils import one_hot, safe_divide, sigmoid, softmax
from sigmoid_oracle import assert_same_floats, masked_sigmoid

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------
# Numeric utilities
# --------------------------------------------------------------------------
@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 50),
                  elements=st.floats(-700, 700)))
def test_sigmoid_bounded_and_monotone(z):
    values = sigmoid(z)
    assert np.all((values >= 0) & (values <= 1))
    order = np.argsort(z)
    assert np.all(np.diff(values[order]) >= -1e-12)


#: Where the two branches meet (0, -0), saturate (|z| > 36), underflow to a
#: subnormal or to 0 (|z| > 708, > 745), and what no finite score reaches.
SIGMOID_EDGES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                 2.2250738585072014e-308, -2.2250738585072014e-308, 36.8, -36.8,
                 708.5, -708.5, 745.2, -745.2, 746.0, -746.0, 1e308, -1e308)


@settings(SETTINGS, max_examples=200)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=8),
                  elements=st.one_of(st.floats(), st.sampled_from(SIGMOID_EDGES))))
def test_sigmoid_bitwise_equal_to_masked_reference(z):
    assert_same_floats(sigmoid(z), masked_sigmoid(z))
    # A transposed view is a non-contiguous input.
    assert_same_floats(sigmoid(z.T), masked_sigmoid(z.T))


def test_sigmoid_edge_values_bitwise_equal_to_masked_reference():
    z = np.array(SIGMOID_EDGES)
    assert_same_floats(sigmoid(z), masked_sigmoid(z))
    assert_same_floats(sigmoid(z.reshape(1, -1)[:, ::2]), masked_sigmoid(z[::2])[None])


@pytest.mark.parametrize("z", [0.5, -3, np.float32(2.0), np.array(0.5), [0.5, -1.0],
                               np.array([1.0, -2.0], dtype=np.float32), [[1.0], [-1.0]]],
                         ids=["float", "int", "float32-scalar", "0-d", "list",
                              "float32-array", "nested-list"])
def test_sigmoid_returns_float64_array_of_input_shape(z):
    out = sigmoid(z)
    assert type(out) is np.ndarray
    assert out.dtype == np.float64 and out.shape == np.shape(z)
    assert_same_floats(out, masked_sigmoid(z))


@SETTINGS
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 6)),
                  elements=st.floats(-50, 50)))
def test_softmax_rows_are_distributions(z):
    values = softmax(z, axis=1)
    assert np.allclose(values.sum(axis=1), 1.0)
    assert np.all(values >= 0)


@SETTINGS
@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_one_hot_rows_sum_to_one(labels):
    encoded = one_hot(labels)
    assert np.allclose(encoded.sum(axis=1), 1.0)
    assert np.array_equal(np.argmax(encoded, axis=1), np.asarray(labels))


@SETTINGS
@given(
    st.floats(-1e6, 1e6),
    st.one_of(st.just(0.0), st.floats(1e-3, 1e6), st.floats(-1e6, -1e-3)),
)
def test_safe_divide_never_raises(a, b):
    result = safe_divide(a, b, default=0.0)
    assert np.isfinite(result)
    if b != 0:
        assert result == pytest.approx(a / b, rel=1e-9, abs=1e-9)
    else:
        assert result == 0.0


# --------------------------------------------------------------------------
# Classification metrics
# --------------------------------------------------------------------------
binary_arrays = hnp.arrays(np.int64, st.integers(2, 200), elements=st.integers(0, 1))


@SETTINGS
@given(binary_arrays, binary_arrays)
def test_confusion_matrix_total_and_metric_bounds(y_true, y_pred):
    n = min(len(y_true), len(y_pred))
    y_true, y_pred = y_true[:n], y_pred[:n]
    matrix = confusion_matrix(y_true, y_pred)
    assert matrix.sum() == n
    for metric in (precision_score, recall_score, f1_score):
        assert 0.0 <= metric(y_true, y_pred) <= 1.0


@SETTINGS
@given(st.integers(2, 100), st.integers(0, 10**6))
def test_roc_curve_endpoints(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    scores = rng.random(n)
    fpr, tpr, _ = roc_curve(y, scores)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == pytest.approx(1.0) or y.sum() in (0, n)
    assert np.all((fpr >= 0) & (fpr <= 1)) and np.all((tpr >= 0) & (tpr <= 1))


# --------------------------------------------------------------------------
# Fairness metrics
# --------------------------------------------------------------------------
@SETTINGS
@given(st.integers(4, 300), st.integers(0, 10**6))
def test_parity_metrics_bounds_and_antisymmetry(n, seed):
    rng = np.random.default_rng(seed)
    y_pred = rng.integers(0, 2, n)
    sensitive = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n - n // 2, dtype=int)])
    spd = statistical_parity_difference(y_pred, sensitive)
    assert -1.0 <= spd <= 1.0
    flipped = statistical_parity_difference(y_pred, 1 - sensitive)
    assert flipped == pytest.approx(-spd)
    assert disparate_impact(y_pred, sensitive) >= 0.0


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 100), elements=st.floats(0.01, 100)))
def test_generalized_entropy_nonnegative_and_scale_invariant(benefits):
    value = generalized_entropy_index(benefits)
    assert value >= -1e-12
    assert generalized_entropy_index(3.0 * benefits) == pytest.approx(value, abs=1e-9)


@SETTINGS
@given(st.integers(1, 50))
def test_position_weights_positive_and_decreasing(n):
    weights = position_weights(n)
    assert np.all(weights > 0)
    assert np.all(np.diff(weights) <= 1e-12)


@SETTINGS
@given(hnp.arrays(np.int64, st.integers(2, 100), elements=st.integers(0, 1)),
       st.integers(1, 50))
def test_topk_representation_bounds(groups, k):
    if groups.sum() == 0 or groups.sum() == len(groups):
        return
    share = top_k_representation(groups, k)
    assert 0.0 <= share <= 1.0
    assert group_exposure_ratio(groups) >= 0.0


# --------------------------------------------------------------------------
# Causal contrastive scores
# --------------------------------------------------------------------------
@SETTINGS
@given(st.integers(4, 200), st.integers(0, 10**6))
def test_contrastive_scores_consistency(n, seed):
    rng = np.random.default_rng(seed)
    factor = rng.integers(0, 2, n)
    outcome = rng.integers(0, 2, n)
    pn = probability_of_necessity(factor, outcome)
    ps = probability_of_sufficiency(factor, outcome)
    pns = probability_of_necessity_and_sufficiency(factor, outcome)
    assert 0.0 <= pn <= 1.0
    assert 0.0 <= ps <= 1.0
    # PNS is a lower bound on both PN and PS under monotonicity.
    assert pns <= pn + 1e-9
    assert pns <= ps + 1e-9


# --------------------------------------------------------------------------
# Counterfactual machinery
# --------------------------------------------------------------------------
@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 10), elements=st.floats(-100, 100)),
       hnp.arrays(np.float64, st.integers(1, 10), elements=st.floats(-100, 100)))
def test_counterfactual_distance_axioms(x, x_prime):
    n = min(x.shape[0], x_prime.shape[0])
    x, x_prime = x[:n], x_prime[:n]
    for metric in ("l1", "l2", "l0"):
        forward = counterfactual_distance(x, x_prime, metric=metric)
        backward = counterfactual_distance(x_prime, x, metric=metric)
        assert forward >= 0
        assert forward == pytest.approx(backward, rel=1e-9, abs=1e-9)
        assert counterfactual_distance(x, x, metric=metric) == 0.0


@SETTINGS
@given(hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-10, 10)),
       hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-10, 10)),
       st.integers(0, 10**6))
def test_constraint_projection_is_idempotent_and_feasible(x, candidate, seed):
    n = min(x.shape[0], candidate.shape[0])
    x, candidate = x[:n], candidate[:n]
    rng = np.random.default_rng(seed)
    constraints = ActionabilityConstraints.unconstrained(n)
    constraints.immutable = rng.random(n) < 0.3
    constraints.monotone = rng.integers(-1, 2, n)
    constraints.lower = np.where(rng.random(n) < 0.5, -5.0, -np.inf)
    constraints.upper = np.where(rng.random(n) < 0.5, 5.0, np.inf)
    # Ensure the original point itself is inside the box, as in real datasets.
    constraints.lower = np.minimum(constraints.lower, x)
    constraints.upper = np.maximum(constraints.upper, x)
    projected = constraints.project(x, candidate)
    assert constraints.is_feasible(x, projected)
    assert np.allclose(constraints.project(x, projected), projected)


# --------------------------------------------------------------------------
# Shapley axioms on random additive games
# --------------------------------------------------------------------------
@SETTINGS
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_shapley_efficiency_and_additivity(n_players, seed):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=n_players)
    offsets = rng.normal(size=n_players)

    def game_a(S):
        return float(sum(weights[i] for i in S))

    def game_b(S):
        return float(sum(offsets[i] for i in S))

    values_a = shapley_for_value_function(game_a, n_players, method="exact")
    values_b = shapley_for_value_function(game_b, n_players, method="exact")
    values_sum = shapley_for_value_function(
        lambda S: game_a(S) + game_b(S), n_players, method="exact"
    )
    assert np.allclose(values_a, weights, atol=1e-9)
    assert np.allclose(values_sum, values_a + values_b, atol=1e-9)
    assert values_a.sum() == pytest.approx(game_a(frozenset(range(n_players))))
