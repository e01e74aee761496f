"""Tests for the batched counterfactual engine, adapter and explainer registry."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexp.datasets import make_loan_dataset
from fairexp.exceptions import InfeasibleRecourseError
from fairexp.explanations import (
    ActionabilityConstraints,
    BatchModelAdapter,
    CallablePredictBackend,
    CounterfactualEngine,
    ExplainerRegistry,
    GradientCounterfactual,
    GrowingSpheresCounterfactual,
    RandomSearchCounterfactual,
)
from fairexp.explanations.engine import greedy_sparsify_batch, lockstep_candidate_search
from fairexp.models import LogisticRegression
from sequential_oracles import gradient_search, greedy_sparsify, ladder_search


@pytest.fixture(scope="module")
def loan_workload():
    dataset = make_loan_dataset(500, direct_bias=1.2, recourse_gap=1.0, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1000, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    rejected = test.X[model.predict(test.X) == 0][:25]
    return model, train.X, constraints, rejected


class TestBatchModelAdapter:
    def test_counts_forwarded_calls_and_rows(self, loan_workload):
        model, _, _, rejected = loan_workload
        adapter = BatchModelAdapter(model, cache=False)
        adapter.predict(rejected)
        adapter.predict(rejected[:5])
        assert adapter.predict_call_count == 2
        assert adapter.predict_row_count == rejected.shape[0] + 5

    def test_predictions_match_wrapped_model(self, loan_workload):
        model, _, _, rejected = loan_workload
        adapter = BatchModelAdapter(model)
        assert np.array_equal(adapter.predict(rejected), model.predict(rejected))

    def test_cache_serves_repeated_matrices(self, loan_workload):
        model, _, _, rejected = loan_workload
        adapter = BatchModelAdapter(model, cache=True)
        first = adapter.predict(rejected)
        second = adapter.predict(rejected)
        assert adapter.predict_call_count == 1
        assert adapter.cache_hit_count == 1
        assert np.array_equal(first, second)

    def test_reset_counts(self, loan_workload):
        model, _, _, rejected = loan_workload
        adapter = BatchModelAdapter(model)
        adapter.predict(rejected)
        adapter.reset_counts()
        assert adapter.predict_call_count == 0
        assert adapter.predict_row_count == 0

    def test_attribute_passthrough(self, loan_workload):
        model, _, _, _ = loan_workload
        adapter = BatchModelAdapter(model)
        assert hasattr(adapter, "gradient_input")
        assert np.array_equal(np.asarray(adapter.coef_), np.asarray(model.coef_))


class TestBatchParity:
    """Fixed-seed regression: the engine path reproduces the per-instance
    oracle loops of ``sequential_oracles``."""

    @pytest.mark.parametrize("generator_cls", [
        RandomSearchCounterfactual, GrowingSpheresCounterfactual,
    ])
    def test_sampling_generators_bitwise_identical(self, generator_cls, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = generator_cls(model, background, constraints=constraints, random_state=0)
        sequential = [ladder_search(generator, row) for row in rejected]
        batched = generator.generate_batch_aligned(rejected)
        assert len(batched) == len(sequential)
        for seq, bat in zip(sequential, batched):
            assert bat is not None
            assert np.array_equal(seq.counterfactual, bat.counterfactual)
            assert seq.changed_features == bat.changed_features
            assert seq.distance == bat.distance
            assert seq.original_prediction == bat.original_prediction
            assert seq.counterfactual_prediction == bat.counterfactual_prediction
            assert seq.feasible == bat.feasible

    def test_gradient_generator_matches_to_float_associativity(self, loan_workload):
        # Batched mat-vec products differ from single-row ones in the last
        # ulp, which the gradient trajectory amplifies to ~1e-13 — still far
        # below any quantity the fairness audits report.
        model, background, constraints, rejected = loan_workload
        generator = GradientCounterfactual(model, background, constraints=constraints,
                                           random_state=0)
        sequential = [gradient_search(generator, row) for row in rejected]
        batched = generator.generate_batch_aligned(rejected)
        assert any(result is not None for result in sequential)
        for seq, bat in zip(sequential, batched):
            assert (seq is None) == (bat is None)
            if seq is None:
                continue
            np.testing.assert_allclose(bat.counterfactual, seq.counterfactual, atol=1e-9)
            assert seq.changed_features == bat.changed_features
            assert seq.counterfactual_prediction == bat.counterfactual_prediction

    @pytest.mark.parametrize("generator_cls", [
        RandomSearchCounterfactual, GrowingSpheresCounterfactual, GradientCounterfactual,
    ])
    def test_generate_is_a_one_row_batch(self, generator_cls, loan_workload):
        """``generate(x)`` is the batched search on ``x[None]``: each row's
        result is independent of the batch it is searched in (bitwise for
        the sampling generators, to BLAS associativity for gradient
        ascent)."""
        model, background, constraints, rejected = loan_workload
        generator = generator_cls(model, background, constraints=constraints, random_state=0)
        batched = generator.generate_batch_aligned(rejected[:8])
        for row, bat in zip(rejected[:8], batched):
            if bat is None:
                with pytest.raises(InfeasibleRecourseError):
                    generator.generate(row)
                continue
            one = generator.generate(row)
            if generator_cls is GradientCounterfactual:
                np.testing.assert_allclose(one.counterfactual, bat.counterfactual,
                                           atol=1e-9)
            else:
                assert np.array_equal(one.counterfactual, bat.counterfactual)
                assert one.distance == bat.distance

    def test_batch_issues_fewer_predict_calls(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        sequential_adapter = BatchModelAdapter(model, cache=False)
        generator = GrowingSpheresCounterfactual(sequential_adapter, background,
                                                 constraints=constraints, random_state=0)
        for row in rejected:
            generator.generate(row)
        batch_adapter = BatchModelAdapter(model, cache=False)
        generator = GrowingSpheresCounterfactual(batch_adapter, background,
                                                 constraints=constraints, random_state=0)
        generator.generate_batch_aligned(rejected)
        assert sequential_adapter.predict_call_count >= 5 * batch_adapter.predict_call_count

    def test_sparsify_batched_predict_preserves_greedy_result(self, loan_workload):
        # The batched sparsifier must reproduce the one-predict-per-feature
        # greedy loop exactly, including the path-dependent accept/reject
        # decisions.
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        x = rejected[0]
        candidate = generator.constraints.project(x, x + 2.5 * generator.scale_)
        sparse = greedy_sparsify_batch(generator, x[None, :], candidate[None, :])[0]
        assert np.array_equal(sparse, greedy_sparsify(generator, x, candidate))


    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40))
    def test_sparsify_rounds_match_the_oracle_per_row(self, loan_workload, seed, n_rows):
        """Whole-batch rounds over instances with different numbers of
        changed features and rejected reverts: every row equals the
        one-predict-per-feature greedy loop, and the batch issues one
        predict per round (at most one more than the most rejections any
        row meets)."""
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(BatchModelAdapter(model, cache=False),
                                                 background, constraints=constraints)
        rng = np.random.default_rng(seed)
        X = rejected[rng.integers(0, len(rejected), n_rows)]
        moved = X + rng.normal(0.0, 3.0, X.shape) * generator.scale_ * (
            rng.random(X.shape) < 0.7)
        candidates = generator.constraints.project(X, moved)
        sparse = greedy_sparsify_batch(generator, X, candidates)
        assert generator.model.predict_call_count <= X.shape[1] + 1
        for x, candidate, got in zip(X, candidates, sparse):
            assert np.array_equal(got, greedy_sparsify(generator, x, candidate))


class TestLockstepMemory:
    def test_search_frees_each_wave(self):
        """A solved instance keeps a copy of its best candidate, not a view
        into the wave tensor it came from, so a finished wave is freed: the
        traced peak of a search whose instances solve across a dozen waves
        stays within a small multiple of its largest wave tensor."""

        class FirstFeaturePositive:
            def predict(self, X):
                return (np.asarray(X)[:, 0] > 0.0).astype(int)

        rng = np.random.default_rng(0)
        n_rows, n_features = 100, 6
        generator = GrowingSpheresCounterfactual(
            FirstFeaturePositive(), rng.normal(size=(200, n_features)), random_state=0)
        X = rng.normal(size=(n_rows, n_features))
        # Rows spread from just below the boundary to far from it solve
        # across every shell of the ladder.
        X[:, 0] = -generator.scale_[0] * np.geomspace(0.02, 6.0, n_rows)
        largest_wave = n_rows * generator.n_samples_per_shell * n_features * 8
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            results = lockstep_candidate_search(generator, X, generator._offsets,
                                                len(generator.draw_schedule()))
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert generator.search_step_count >= 10
        assert sum(result is not None for result in results) >= n_rows - 5
        assert peak < 3 * largest_wave


LADDER_GENERATORS = [RandomSearchCounterfactual, GrowingSpheresCounterfactual]
SAMPLE_SIZE_PARAMETER = {RandomSearchCounterfactual: "n_samples",
                         GrowingSpheresCounterfactual: "n_samples_per_shell"}


class TestSharedStream:
    """The lockstep search draws each (stream position, rung) once and
    shares the offsets across instances; these properties are what make
    that sharing exact."""

    @pytest.mark.parametrize("generator_cls", LADDER_GENERATORS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 64),
           data=st.data())
    def test_stream_consumption_does_not_depend_on_the_rung(
            self, generator_cls, loan_workload, seed, n_samples, data):
        model, background, _, _ = loan_workload
        generator = generator_cls(model, background, random_state=seed,
                                  **{SAMPLE_SIZE_PARAMETER[generator_cls]: n_samples})
        rung = st.integers(0, len(generator.draw_schedule()) - 1)
        first = data.draw(st.lists(rung, min_size=1, max_size=4), label="rungs")
        second = data.draw(st.lists(rung, min_size=len(first), max_size=len(first)),
                           label="other rungs")
        states = []
        for rungs in (first, second):
            rng = np.random.default_rng(seed)
            for step in rungs:
                generator._offsets(rng, step, background.shape[1])
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]

    @pytest.mark.parametrize("generator_cls", LADDER_GENERATORS)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rows=st.lists(st.integers(0, 24), min_size=1, max_size=8, unique=True),
           schedule=st.sampled_from(["geometric", "adaptive"]))
    def test_lockstep_matches_the_oracle_per_row(self, generator_cls, loan_workload,
                                                 seed, rows, schedule):
        """Any seed, batch subset and order, and both schedules (adaptive
        waves mix rungs and stream positions): each row's result is the
        independent per-instance oracle's."""
        model, background, constraints, rejected = loan_workload
        generator = generator_cls(model, background, constraints=constraints,
                                  random_state=seed, schedule=schedule)
        batched = generator.generate_batch_aligned(rejected[rows])
        for row, got in zip(rows, batched):
            expected = ladder_search(generator, rejected[row])
            assert (got is None) == (expected is None)
            if got is not None:
                assert np.array_equal(got.counterfactual, expected.counterfactual)
                assert got.distance == expected.distance

    def test_generator_seed_streams_are_per_instance(self, loan_workload):
        """A ``numpy.random.Generator`` seed is one stream consumed in row
        order, so two copies of a row draw different candidates (an int
        seed gives them the same ones); a one-row batch reads the stream
        exactly as the oracle does."""
        model, background, constraints, rejected = loan_workload
        twice = np.stack([rejected[0], rejected[0]])

        def search(random_state, X):
            return GrowingSpheresCounterfactual(
                model, background, constraints=constraints, random_state=random_state,
            ).generate_batch_aligned(X)

        same = search(3, twice)
        assert np.array_equal(same[0].counterfactual, same[1].counterfactual)
        shared = search(np.random.default_rng(3), twice)
        assert not np.array_equal(shared[0].counterfactual, shared[1].counterfactual)
        one = search(np.random.default_rng(3), rejected[:1])[0]
        oracle = ladder_search(GrowingSpheresCounterfactual(
            model, background, constraints=constraints,
            random_state=np.random.default_rng(3)), rejected[0])
        assert np.array_equal(one.counterfactual, oracle.counterfactual)


class TestCounterfactualEngine:
    def test_wraps_model_once_and_counts(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                                 random_state=0)
        engine = CounterfactualEngine(generator)
        assert isinstance(generator.model, BatchModelAdapter)
        again = CounterfactualEngine(generator)
        assert again.adapter is engine.adapter  # shared, not double-wrapped
        engine.generate_aligned(rejected[:4])
        assert engine.predict_call_count > 0


def _gil_holding(model):
    """``model`` behind a backend declaring ``releases_gil=False``: with
    ``n_jobs > 1`` the engine shards it on processes instead of threads."""
    return BatchModelAdapter(model, backend=CallablePredictBackend(model.predict),
                             cache=False)


def _assert_same_results(sequential, other):
    assert len(sequential) == len(other)
    for seq, alt in zip(sequential, other):
        assert (seq is None) == (alt is None)
        if seq is None:
            continue
        assert np.array_equal(seq.counterfactual, alt.counterfactual)
        assert seq.changed_features == alt.changed_features
        assert seq.distance == alt.distance


class TestProcessExecutor:
    """Process-based sharding: picklable shard specs, bitwise merges,
    GIL-aware selection by the backend, and graceful fallbacks."""

    def test_process_shards_absorb_worker_predict_counts(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        engines = [
            CounterfactualEngine(GrowingSpheresCounterfactual(
                _gil_holding(model), background, constraints=constraints,
                random_state=0), n_jobs=n_jobs)
            for n_jobs in (1, 2)
        ]
        for engine in engines:
            engine.generate_aligned(rejected[:8])
        sequential, sharded = engines
        assert sharded.predict_call_count > 0
        assert sharded.adapter.predict_row_count == sequential.adapter.predict_row_count
        assert sharded.search_draw_count == sequential.search_draw_count

    @pytest.mark.parametrize("backend_name", ["numpy", "onnx", "remote"])
    def test_auto_uses_threads_for_gil_releasing_backends(self, loan_workload,
                                                          backend_name):
        from contextlib import ExitStack

        from fairexp.explanations import (
            CoalescingScoringClient,
            NumpyPredictBackend,
            OnnxExportBackend,
            RemoteScoringBackend,
            export_model,
            serve_fleet,
        )

        model, background, constraints, _ = loan_workload
        with ExitStack() as stack:
            if backend_name == "remote":
                graph = export_model(model)
                server = stack.enter_context(serve_fleet([graph]))
                backend = RemoteScoringBackend(
                    CoalescingScoringClient(server.url), graph=graph)
                stack.callback(backend.close)
            elif backend_name == "onnx":
                backend = OnnxExportBackend(model)
            else:
                backend = NumpyPredictBackend(model)
            adapted = BatchModelAdapter(model, backend=backend, cache=False)
            generator = GrowingSpheresCounterfactual(adapted, background,
                                                     constraints=constraints,
                                                     random_state=0)
            engine = CounterfactualEngine(generator, n_jobs=2)
            assert engine._resolve_executor() == "thread"

    def test_auto_uses_processes_for_gil_holding_backends(self, loan_workload):
        model, background, constraints, _ = loan_workload
        generator = GrowingSpheresCounterfactual(_gil_holding(model), background,
                                                 constraints=constraints, random_state=0)
        engine = CounterfactualEngine(generator, n_jobs=2)
        assert engine._resolve_executor() == "process"

    def test_process_workers_honour_custom_callable_backend(self, loan_workload):
        """The shard spec must ship the callable's decision boundary, not the
        bare model's: when they disagree (an out-of-date export, a remote
        model version skew), the process-sharded results must match the
        sequential results under the SAME callable."""
        from fairexp.datasets import make_loan_dataset
        from fairexp.models import LogisticRegression

        model, background, constraints, rejected = loan_workload
        # A genuinely different predictor standing in for "the export".
        other_dataset = make_loan_dataset(400, direct_bias=0.0, recourse_gap=0.0,
                                          random_state=7)
        other_model = LogisticRegression(n_iter=400, random_state=7).fit(
            other_dataset.X, other_dataset.y
        )
        assert not np.array_equal(model.predict(rejected), other_model.predict(rejected))

        def build(n_jobs):
            backend = CallablePredictBackend(other_model.predict)
            adapted = BatchModelAdapter(model, backend=backend, cache=False)
            generator = GrowingSpheresCounterfactual(
                adapted, background, constraints=constraints, random_state=0
            )
            return CounterfactualEngine(generator, n_jobs=n_jobs)

        sequential = build(1).generate_aligned(rejected[:10])
        sharded = build(2).generate_aligned(rejected[:10])
        _assert_same_results(sequential, sharded)
        # And every counterfactual flips the class under the CALLABLE.
        found = [r for r in sharded if r is not None]
        assert found, "workload produced no counterfactuals to check"
        for result in found:
            assert int(other_model.predict(result.counterfactual[None, :])[0]) == 1

    def test_unpicklable_spec_falls_back_to_threads(self, loan_workload):
        from fairexp.explanations.engine import _process_shard_spec

        model, background, constraints, rejected = loan_workload
        # A closure-based backend with no reachable bare model cannot be
        # shipped to workers; the engine must still produce correct results.
        backend = CallablePredictBackend(lambda X: model.predict(X))
        adapted = BatchModelAdapter(backend=backend, cache=False)
        generator = GrowingSpheresCounterfactual(adapted, background,
                                                 constraints=constraints, random_state=0)
        engine = CounterfactualEngine(generator, n_jobs=2)
        assert engine._resolve_executor() == "process"
        assert _process_shard_spec(generator) is None
        sequential = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, background, constraints=constraints,
                                         random_state=0),
            n_jobs=1,
        ).generate_aligned(rejected[:8])
        _assert_same_results(sequential, engine.generate_aligned(rejected[:8]))

    def test_shared_stream_generator_stays_sequential(self, loan_workload):
        model, background, constraints, rejected = loan_workload
        generator = GrowingSpheresCounterfactual(
            _gil_holding(model), background, constraints=constraints,
            random_state=np.random.default_rng(0),
        )
        engine = CounterfactualEngine(generator, n_jobs=4)
        assert engine._resolve_n_jobs(rejected.shape[0]) == 1


class TestExplainerRegistry:
    def test_generators_registered_with_capability(self):
        names = {e.name for e in ExplainerRegistry.with_capability("counterfactual-generator")}
        assert {"random_search", "growing_spheres", "gradient"} <= names

    def test_core_fairness_explainers_registered(self):
        import fairexp.core  # registration happens at import time  # noqa: F401

        names = set(ExplainerRegistry.names())
        assert {"burden", "nawb", "precof", "globe_ce", "recourse_sets", "facts"} <= names

    def test_get_returns_class_and_sets_registry_name(self):
        assert ExplainerRegistry.get("growing_spheres") is GrowingSpheresCounterfactual
        assert GrowingSpheresCounterfactual.registry_name == "growing_spheres"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            ExplainerRegistry.get("does-not-exist")

    def test_resolve_path(self):
        resolved = ExplainerRegistry.resolve_path(
            "explanations.counterfactual.GrowingSpheresCounterfactual"
        )
        assert resolved is GrowingSpheresCounterfactual
        assert ExplainerRegistry.resolve_path("no.such.Thing") is None

    def test_entries_carry_info(self):
        entry = ExplainerRegistry.entry("gradient")
        assert entry.info is not None
        assert entry.info.access == "gradient"
        assert "requires-gradient" in entry.capabilities
