"""Bitwise-parity and integration tests for the hot-path kernels.

The contract of :mod:`fairexp.explanations.kernels` is exactness: every
kernel reproduces the pre-kernel loop implementations bit for bit.  The
pre-kernel loops are kept verbatim in this module as the parity oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairexp.datasets import make_loan_dataset
from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    CounterfactualEngine,
    GrowingSpheresCounterfactual,
    KernelSet,
    RandomSearchCounterfactual,
    batch_counterfactual_distance,
    build_prefix_revert_trials,
    counterfactual_distance,
    generator_config,
    project_candidates,
    rank_changed_features,
    resolve_kernels,
)
from fairexp.models import LogisticRegression

KERNEL_SETS = [pytest.param(resolve_kernels(), id="numpy")]


# --------------------------------------------------------------------------
# The pre-kernel loop implementations, kept verbatim as the parity oracle.
# --------------------------------------------------------------------------
def legacy_distance(x, x_prime, *, scale=None, metric="l1"):
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    delta = x_prime - x
    if scale is not None:
        scale = np.asarray(scale, dtype=float).copy()
        scale[scale == 0] = 1.0
        delta = delta / scale
    if metric == "l1":
        return float(np.sum(np.abs(delta)))
    if metric == "l2":
        return float(np.linalg.norm(delta))
    if metric == "l0":
        return float(np.sum(~np.isclose(delta, 0.0)))
    raise ValidationError(f"unknown metric {metric!r}")


def legacy_project(constraints, x_original, candidate):
    candidate = np.asarray(candidate, dtype=float)
    x_original = np.asarray(x_original, dtype=float)
    lower = np.where(np.isnan(constraints.lower), -np.inf, constraints.lower)
    upper = np.where(np.isnan(constraints.upper), np.inf, constraints.upper)
    projected = np.clip(candidate, lower, upper)
    originals = np.broadcast_to(x_original, projected.shape)
    projected = np.where(constraints.monotone == 1,
                         np.maximum(projected, originals), projected)
    projected = np.where(constraints.monotone == -1,
                         np.minimum(projected, originals), projected)
    return np.where(constraints.immutable, originals, projected)


def legacy_prefix_trials(candidate, x_row, order):
    trial = candidate.copy()
    rows = []
    for column in order:
        trial[column] = x_row[column]
        rows.append(trial.copy())
    return np.stack(rows)


def rank_matrix(orders, d):
    """The whole-round kernel's inputs for fresh orders: feature ranks
    (``d`` for a feature outside the order) and order lengths."""
    ranks = np.full((len(orders), d), d)
    for k, order in enumerate(orders):
        ranks[k, order] = np.arange(len(order))
    return ranks, [len(order) for order in orders]


def legacy_rank_changed(X_rows, candidates, scale):
    orders = []
    for k in range(candidates.shape[0]):
        delta = candidates[k] - X_rows[k]
        changed = np.flatnonzero(~np.isclose(candidates[k], X_rows[k]))
        ranked = changed[np.argsort(np.abs(delta / scale)[changed])]
        orders.append(ranked)
    return orders


def _random_constraints(rng, d):
    lower = rng.normal(size=d) - 2.0
    upper = lower + rng.uniform(0.5, 3.0, size=d)
    lower[rng.random(d) < 0.3] = -np.inf
    upper[rng.random(d) < 0.3] = np.inf
    lower[rng.random(d) < 0.2] = np.nan  # NaN = unbounded, as the specs allow
    upper[rng.random(d) < 0.2] = np.nan
    return ActionabilityConstraints(
        immutable=rng.random(d) < 0.3,
        lower=lower,
        upper=upper,
        monotone=rng.integers(-1, 2, size=d),
    )


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


# --------------------------------------------------------------------------
# Bitwise parity against the pre-kernel loops.
# --------------------------------------------------------------------------
@pytest.mark.parametrize("kernel_set", KERNEL_SETS)
class TestLegacyParity:
    @pytest.mark.parametrize("metric", ["l1", "l2", "l0"])
    @pytest.mark.parametrize("use_scale", [False, True])
    def test_distance_matches_scalar_loop(self, kernel_set, metric, use_scale, rng):
        X = rng.normal(size=(120, 7))
        candidates = X + rng.normal(size=X.shape) * rng.random(X.shape)
        scale = None
        if use_scale:
            scale = rng.uniform(0.0, 2.0, size=7)
            scale[0] = 0.0  # zero scale must be sanitized to 1, as before
        expected = np.array([
            legacy_distance(x, c, scale=scale, metric=metric)
            for x, c in zip(X, candidates)
        ])
        got = kernel_set.batch_counterfactual_distance(
            X, candidates, scale=scale, metric=metric)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)

    def test_distance_single_x_broadcast(self, kernel_set, rng):
        x = rng.normal(size=5)
        candidates = x + rng.normal(size=(40, 5))
        expected = np.array([legacy_distance(x, c) for c in candidates])
        assert np.array_equal(
            kernel_set.batch_counterfactual_distance(x, candidates), expected)

    def test_distance_unknown_metric_raises(self, kernel_set, rng):
        with pytest.raises(ValidationError, match="unknown metric"):
            kernel_set.batch_counterfactual_distance(
                np.zeros((2, 3)), np.ones((2, 3)), metric="linf")

    @pytest.mark.parametrize("shape", ["wave", "matrix", "aligned", "single"])
    def test_project_matches_where_cascade(self, kernel_set, shape, rng):
        d = 6
        constraints = _random_constraints(rng, d)
        if shape == "wave":  # the lockstep engine's (n, c, d) tensor
            candidates = rng.normal(size=(9, 14, d)) * 3
            x_original = rng.normal(size=(9, 1, d))
        elif shape == "matrix":  # one instance, many candidates
            candidates = rng.normal(size=(25, d)) * 3
            x_original = rng.normal(size=d)
        elif shape == "aligned":  # row-aligned pairs
            candidates = rng.normal(size=(25, d)) * 3
            x_original = rng.normal(size=(25, d))
        else:  # single row
            candidates = rng.normal(size=d) * 3
            x_original = rng.normal(size=d)
        expected = legacy_project(constraints, x_original, candidates)
        got = kernel_set.project_candidates(
            x_original, candidates, immutable=constraints.immutable,
            lower=constraints.lower, upper=constraints.upper,
            monotone=constraints.monotone)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_prefix_trials_match_copy_chain(self, kernel_set, rng):
        # One whole round: every instance's chain, stacked in instance order.
        for d in (1, 4, 9):
            X_rows = rng.normal(size=(7, d))
            candidates = X_rows + rng.normal(size=(7, d))
            orders = [rng.permutation(d)[:rng.integers(0, d + 1)] for _ in range(7)]
            ranks, lengths = rank_matrix(orders, d)
            expected = [legacy_prefix_trials(candidates[k], X_rows[k], list(order))
                        for k, order in enumerate(orders) if len(order)]
            got = kernel_set.build_prefix_revert_trials(candidates, X_rows, ranks, lengths)
            assert got.shape == (sum(lengths), d)
            assert np.array_equal(got, np.vstack(expected) if expected
                                  else np.empty((0, d)))

    def test_rank_matches_per_row_loop(self, kernel_set, rng):
        X_rows = rng.normal(size=(30, 6))
        candidates = X_rows.copy()
        mask = rng.random(candidates.shape) < 0.6
        candidates[mask] += rng.normal(size=candidates.shape)[mask]
        # duplicate magnitudes exercise unstable-argsort tie order
        candidates[:, 3] = candidates[:, 2]
        X_rows[:, 3] = X_rows[:, 2]
        scale = rng.uniform(0.5, 2.0, size=6)
        expected, _ = rank_matrix(legacy_rank_changed(X_rows, candidates, scale), 6)
        got = kernel_set.rank_changed_features(X_rows, candidates, scale)
        assert got.dtype == np.intp
        assert np.array_equal(got, expected)


# --------------------------------------------------------------------------
# Edge cases.
# --------------------------------------------------------------------------
@pytest.mark.parametrize("kernel_set", KERNEL_SETS)
class TestEdgeCases:
    def test_empty_candidate_set(self, kernel_set):
        empty = np.empty((0, 4))
        distances = kernel_set.batch_counterfactual_distance(np.zeros(4), empty)
        assert distances.shape == (0,)
        assert kernel_set.rank_changed_features(np.empty((0, 4)), empty,
                                                np.ones(4)).shape == (0, 4)
        trials = kernel_set.build_prefix_revert_trials(
            np.zeros((2, 4)), np.ones((2, 4)), np.full((2, 4), 4), [0, 0])
        assert trials.shape == (0, 4)

    def test_all_immutable_returns_originals(self, kernel_set, rng):
        d = 5
        constraints = ActionabilityConstraints(
            immutable=np.ones(d, dtype=bool),
            lower=np.full(d, -np.inf), upper=np.full(d, np.inf),
            monotone=np.zeros(d, dtype=int))
        x = rng.normal(size=(4, 1, d))
        candidates = rng.normal(size=(4, 8, d))
        projected = kernel_set.project_candidates(
            x, candidates, immutable=constraints.immutable,
            lower=constraints.lower, upper=constraints.upper,
            monotone=constraints.monotone)
        assert np.array_equal(projected, np.broadcast_to(x, candidates.shape))

    def test_single_feature_rows(self, kernel_set, rng):
        X = rng.normal(size=(10, 1))
        candidates = X + rng.normal(size=(10, 1))
        expected = np.array([legacy_distance(x, c) for x, c in zip(X, candidates)])
        assert np.array_equal(
            kernel_set.batch_counterfactual_distance(X, candidates), expected)
        positions = kernel_set.rank_changed_features(X, candidates, np.ones(1))
        assert np.array_equal(positions, np.zeros((10, 1)))

    def test_float32_inputs_upcast_to_float64(self, kernel_set, rng):
        X32 = rng.normal(size=(12, 5)).astype(np.float32)
        C32 = (X32 + rng.normal(size=(12, 5)).astype(np.float32)).astype(np.float32)
        got = kernel_set.batch_counterfactual_distance(X32, C32)
        assert got.dtype == np.float64
        expected = np.array([
            legacy_distance(x, c) for x, c in zip(X32, C32)
        ])
        assert np.array_equal(got, expected)
        projected = kernel_set.project_candidates(
            X32, C32, immutable=np.zeros(5, dtype=bool),
            lower=np.full(5, -0.5, dtype=np.float32),
            upper=np.full(5, 0.5, dtype=np.float32),
            monotone=np.zeros(5, dtype=int))
        assert projected.dtype == np.float64


def _edge_constraints(kind, rng, d):
    if kind == "random":
        return _random_constraints(rng, d)
    constraints = ActionabilityConstraints.unconstrained(d)
    constraints.monotone = rng.integers(-1, 2, size=d)
    if kind == "nan_bounds":  # NaN on one side, finite on the other
        constraints.lower[::2] = np.nan
        constraints.upper[::2] = 1.0
        constraints.lower[1::2] = -1.0
        constraints.upper[1::2] = np.nan
    elif kind == "all_immutable":
        constraints.immutable[:] = True
        constraints.lower[:] = -1.0
    elif kind == "no_finite_bound":
        constraints.immutable = rng.random(d) < 0.3
        constraints.lower[::2] = np.nan
        constraints.upper[1::2] = np.nan
    return constraints


def _edge_inputs(shape, rng, d):
    if shape == "single":  # a 1-D (d,) candidate
        return rng.normal(size=d), rng.normal(size=d) * 3
    if shape == "matrix":
        return rng.normal(size=d), rng.normal(size=(25, d)) * 3
    # the engine's wave: (n, c, d) candidates against (n, 1, d) originals
    return rng.normal(size=(7, 1, d)), rng.normal(size=(7, 13, d)) * 3


@pytest.mark.parametrize("kernel_set", KERNEL_SETS)
class TestProjectEdgeParity:
    """The column-wise projection against the where cascade, bit for bit,
    on the inputs the cascade handled implicitly."""

    @pytest.mark.parametrize("kind", ["random", "nan_bounds", "all_immutable",
                                      "no_finite_bound"])
    @pytest.mark.parametrize("shape", ["single", "matrix", "wave"])
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_matches_where_cascade(self, kernel_set, kind, shape, with_nan, rng):
        d = 6
        constraints = _edge_constraints(kind, rng, d)
        x_original, candidates = _edge_inputs(shape, rng, d)
        if with_nan:
            candidates[rng.random(candidates.shape) < 0.15] = np.nan
        expected = legacy_project(constraints, x_original, candidates)
        bounds = dict(immutable=constraints.immutable, lower=constraints.lower,
                      upper=constraints.upper, monotone=constraints.monotone)
        got = kernel_set.project_candidates(x_original, candidates, **bounds)
        assert got.shape == candidates.shape
        assert got.tobytes() == expected.tobytes()

    def test_originals_must_broadcast_to_the_candidates(self, kernel_set, rng):
        constraints = _random_constraints(rng, 4)
        with pytest.raises(ValueError):
            kernel_set.project_candidates(
                rng.normal(size=(3, 4)), rng.normal(size=4),
                immutable=constraints.immutable, lower=constraints.lower,
                upper=constraints.upper, monotone=constraints.monotone)


# --------------------------------------------------------------------------
# Property parity: the offsets form of the projection and the batch rank path.
# --------------------------------------------------------------------------
#: Finite values with signed zeros among them.
_FINITE = st.floats(-20.0, 20.0, allow_nan=False, width=64) | st.sampled_from([-0.0, 0.0])
_BOUNDS = st.floats(-5.0, 5.0) | st.sampled_from([np.nan, -np.inf, np.inf, -0.0])


@st.composite
def _offset_waves(draw):
    """Pending rows, a distinct-offsets table of one or several keys, each
    row's key, and constraints mixing NaN/infinite bounds, immutables and
    both monotone directions.  Rows and offsets range past the bounds."""
    n_rows, n_keys = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    n_candidates, n_features = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    X = draw(hnp.arrays(np.float64, (n_rows, n_features), elements=_FINITE))
    table = draw(hnp.arrays(np.float64, (n_keys, n_candidates, n_features),
                            elements=_FINITE))
    key_of = draw(hnp.arrays(np.intp, n_rows, elements=st.integers(0, n_keys - 1)))
    bounds = dict(
        immutable=draw(hnp.arrays(bool, n_features)),
        lower=draw(hnp.arrays(np.float64, n_features, elements=_BOUNDS)),
        upper=draw(hnp.arrays(np.float64, n_features, elements=_BOUNDS)),
        monotone=draw(hnp.arrays(np.int64, n_features, elements=st.integers(-1, 1))),
    )
    return X, table, key_of, bounds


@st.composite
def _rank_grids(draw):
    """Rows and candidates on a small integer grid (so magnitudes tie),
    scales with zeros (infinite and NaN magnitudes), rows left unchanged."""
    n_rows, n_features = draw(st.integers(0, 12)), draw(st.integers(1, 6))
    X_rows = draw(hnp.arrays(np.float64, (n_rows, n_features),
                             elements=st.integers(-2, 2).map(float)))
    delta = draw(hnp.arrays(np.float64, (n_rows, n_features),
                            elements=st.integers(-3, 3).map(float)))
    delta[draw(hnp.arrays(bool, n_rows))] = 0.0  # all-unchanged rows
    scale = draw(hnp.arrays(np.float64, n_features,
                            elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])))
    return X_rows, X_rows + delta, scale


@pytest.mark.parametrize("kernel_set", KERNEL_SETS)
class TestPropertyParity:
    @settings(max_examples=200, deadline=None)
    @given(wave=_offset_waves())
    def test_offsets_form_matches_absolute_candidates(self, kernel_set, wave):
        X, table, key_of, bounds = wave
        expected = kernel_set.project_candidates(
            X[:, None, :], X[:, None, :] + table[key_of], **bounds)
        got = kernel_set.project_candidates(X, offsets=table, key_of=key_of, **bounds)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(grid=_rank_grids())
    def test_rank_matches_per_row_loop(self, kernel_set, grid):
        X_rows, candidates, scale = grid
        n_features = X_rows.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            expected, _ = rank_matrix(legacy_rank_changed(X_rows, candidates, scale),
                                      n_features)
            got = kernel_set.rank_changed_features(X_rows, candidates, scale)
        assert got.dtype == np.intp
        assert np.array_equal(got, expected)


class TestOffsetsFormArguments:
    def test_candidates_and_offsets_are_exclusive(self):
        bounds = dict(immutable=np.zeros(2, bool), lower=np.zeros(2),
                      upper=np.ones(2), monotone=np.zeros(2, int))
        with pytest.raises(ValidationError, match="not both"):
            project_candidates(np.zeros((1, 2)), np.zeros((1, 2)),
                               offsets=np.zeros((1, 1, 2)), **bounds)
        with pytest.raises(ValidationError, match="not both"):
            project_candidates(np.zeros((1, 2)), **bounds)


# --------------------------------------------------------------------------
# Resolution: one NumPy kernel set, no choice.
# --------------------------------------------------------------------------
class TestDispatch:
    def test_one_numpy_set(self):
        kernels = resolve_kernels()
        assert isinstance(kernels, KernelSet)
        assert kernels is resolve_kernels(None)
        assert kernels.name == "numpy"
        assert kernels.batch_counterfactual_distance is batch_counterfactual_distance
        assert kernels.project_candidates is project_candidates
        assert kernels.build_prefix_revert_trials is build_prefix_revert_trials
        assert kernels.rank_changed_features is rank_changed_features

    def test_invalid_choice_raises(self):
        for choice in ("numpy", "numba", "turbo"):
            with pytest.raises(ValidationError, match="one kernel set"):
                resolve_kernels(choice)


# --------------------------------------------------------------------------
# Integration: counterfactual.py delegation, engine, session, the kernel seam.
# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def loan_workload():
    dataset = make_loan_dataset(400, direct_bias=1.2, recourse_gap=1.0, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=800, random_state=0).fit(train.X, train.y)
    rejected = test.X[model.predict(test.X) == 0][:12]
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    return model, train.X, constraints, rejected


class TestIntegration:
    def test_scalar_distance_delegates_bitwise(self, rng):
        for metric in ("l1", "l2", "l0"):
            for use_scale in (False, True):
                x = rng.normal(size=9)
                x_prime = x + rng.normal(size=9)
                scale = rng.uniform(0.0, 2.0, size=9) if use_scale else None
                assert counterfactual_distance(
                    x, x_prime, scale=scale, metric=metric
                ) == legacy_distance(x, x_prime, scale=scale, metric=metric)

    def test_constraints_project_delegates_bitwise(self, loan_workload, rng):
        _, _, constraints, rejected = loan_workload
        candidates = rejected[:, None, :] + rng.normal(
            size=(rejected.shape[0], 10, rejected.shape[1]))
        expected = legacy_project(constraints, rejected[:, None, :], candidates)
        got = constraints.project(rejected[:, None, :], candidates)
        assert np.array_equal(got, expected)

    def test_generator_config_excludes_kernel_choice(self, loan_workload):
        model, background, _, _ = loan_workload
        generator = RandomSearchCounterfactual(model, background, random_state=0)
        assert not hasattr(generator, "kernels")
        assert not any("kernel" in name for name in generator_config(generator))

    def test_model_only_session_rejects_kernels(self, loan_workload):
        model, background, _, _ = loan_workload
        with pytest.raises(TypeError, match="kernels"):
            AuditSession(model=model, kernels="numpy")
        generator = RandomSearchCounterfactual(model, background, random_state=0)
        with pytest.raises(TypeError, match="kernels"):
            CounterfactualEngine(generator, kernels="numpy")

    def test_kernels_are_called_through_the_kernel_set(self, loan_workload,
                                                       monkeypatch):
        # A profiler times each kernel by patching the attributes of
        # resolve_kernels(None); every call site must look them up there.
        model, background, constraints, rejected = loan_workload
        kernels = resolve_kernels(None)
        calls = dict.fromkeys(("batch_counterfactual_distance", "project_candidates",
                               "build_prefix_revert_trials", "rank_changed_features"), 0)

        def counting(name, kernel):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(kernels, name, counting(name, getattr(kernels, name)))
        generator = GrowingSpheresCounterfactual(
            model, background, constraints=constraints, random_state=0)
        results = generator.generate_batch_aligned(rejected)
        assert any(result is not None for result in results)
        assert all(count > 0 for count in calls.values()), calls
        before = calls["batch_counterfactual_distance"]
        counterfactual_distance(rejected[0], rejected[1])
        assert calls["batch_counterfactual_distance"] == before + 1
