"""Tests for the pluggable predict backends and their adapter integration."""

import numpy as np
import pytest

from fairexp.explanations import (
    BatchModelAdapter,
    CallablePredictBackend,
    MemoizingPredictBackend,
    NumpyPredictBackend,
    ensure_backend,
)


class _CountingModel:
    """Minimal model: predicts 1 when the first feature is positive."""

    def __init__(self):
        self.n_predict = 0

    def predict(self, X):
        self.n_predict += 1
        return (np.asarray(X)[:, 0] > 0).astype(int)


@pytest.fixture
def X():
    rng = np.random.default_rng(0)
    return rng.normal(size=(12, 4))


class TestNumpyPredictBackend:
    def test_counts_calls_and_rows(self, X):
        backend = NumpyPredictBackend(_CountingModel())
        backend.predict(X)
        backend.predict(X[:5])
        assert backend.call_count == 2
        assert backend.row_count == 17
        assert backend.cache_hit_count == 0

    def test_predictions_match_model(self, X):
        model = _CountingModel()
        backend = NumpyPredictBackend(model)
        assert np.array_equal(backend.predict(X), (X[:, 0] > 0).astype(int))

    def test_reset_counts(self, X):
        backend = NumpyPredictBackend(_CountingModel())
        backend.predict(X)
        backend.reset_counts()
        assert backend.call_count == 0
        assert backend.row_count == 0


class TestCallablePredictBackend:
    def test_wraps_bare_function(self, X):
        backend = CallablePredictBackend(lambda Z: (Z[:, 0] > 0).astype(int),
                                         name="remote-scorer")
        assert backend.name == "remote-scorer"
        assert np.array_equal(backend.predict(X), (X[:, 0] > 0).astype(int))
        assert backend.call_count == 1

    def test_slots_into_adapter_without_a_model(self, X):
        backend = CallablePredictBackend(lambda Z: np.zeros(Z.shape[0], dtype=int))
        adapter = BatchModelAdapter(backend=backend, cache=False)
        assert np.array_equal(adapter.predict(X), np.zeros(12, dtype=int))
        assert adapter.predict_call_count == 1
        # No wrapped model: attribute passthrough must fail cleanly, keeping
        # hasattr-based capability checks honest.
        assert not hasattr(adapter, "gradient_input")


class TestMemoizingPredictBackend:
    def test_serves_repeats_from_memo(self, X):
        inner = NumpyPredictBackend(_CountingModel())
        backend = MemoizingPredictBackend(inner)
        first = backend.predict(X)
        second = backend.predict(X)
        assert np.array_equal(first, second)
        assert backend.call_count == 1          # delegated to inner
        assert backend.cache_hit_count == 1

    def test_routing_equivalence_memoized_vs_plain(self, X):
        """Backend-routing equivalence: identical predictions, fewer forwarded
        calls through the memoizing wrapper (the satellite acceptance check)."""
        model = _CountingModel()
        plain = NumpyPredictBackend(model)
        memo = MemoizingPredictBackend(NumpyPredictBackend(model))
        batches = [X, X[:6], X, X[:6], X]
        plain_out = [plain.predict(batch) for batch in batches]
        memo_out = [memo.predict(batch) for batch in batches]
        for a, b in zip(plain_out, memo_out):
            assert np.array_equal(a, b)
        assert plain.call_count == len(batches)
        assert memo.call_count == 2             # one per distinct matrix
        assert memo.cache_hit_count == 3

    def test_large_matrices_bypass_memo(self, X):
        backend = MemoizingPredictBackend(NumpyPredictBackend(_CountingModel()),
                                          max_rows=4)
        backend.predict(X)
        backend.predict(X)
        assert backend.call_count == 2
        assert backend.cache_hit_count == 0

    def test_memo_cleared_at_capacity(self, X):
        backend = MemoizingPredictBackend(NumpyPredictBackend(_CountingModel()),
                                          max_entries=2)
        for k in range(4):
            backend.predict(X + k)
        backend.predict(X + 3)  # still memoized (inserted after the clear)
        assert backend.cache_hit_count == 1

    def test_reset_clears_memo_and_inner(self, X):
        backend = MemoizingPredictBackend(NumpyPredictBackend(_CountingModel()))
        backend.predict(X)
        backend.predict(X)
        backend.reset_counts()
        assert backend.call_count == 0
        assert backend.cache_hit_count == 0
        backend.predict(X)
        assert backend.call_count == 1          # memo was dropped


class TestEnsureBackend:
    def test_backend_passthrough(self):
        backend = NumpyPredictBackend(_CountingModel())
        assert ensure_backend(backend) is backend

    def test_model_is_wrapped(self):
        backend = ensure_backend(_CountingModel())
        assert isinstance(backend, NumpyPredictBackend)

    def test_third_party_flag_respected(self, X):
        class OnnxLike:
            is_predict_backend = True
            name = "onnx"
            call_count = row_count = 0

            def predict(self, Z):
                return np.ones(np.atleast_2d(Z).shape[0], dtype=int)

            def reset_counts(self):
                pass

        backend = OnnxLike()
        assert ensure_backend(backend) is backend
        adapter = BatchModelAdapter(backend=backend, cache=False)
        assert np.array_equal(adapter.predict(X), np.ones(12, dtype=int))


class TestAdapterBackendIntegration:
    def test_adapter_counters_delegate_to_backend(self, X):
        backend = NumpyPredictBackend(_CountingModel())
        adapter = BatchModelAdapter(backend=backend, cache=False)
        adapter.predict(X)
        assert adapter.predict_call_count == backend.call_count == 1
        assert adapter.predict_row_count == backend.row_count == 12

    def test_cache_flag_builds_memo_stack(self, X):
        adapter = BatchModelAdapter(_CountingModel(), cache=True)
        adapter.predict(X)
        adapter.predict(X)
        assert adapter.predict_call_count == 1
        assert adapter.cache_hit_count == 1
