"""Tests for the shared-pass AuditSession and sharded engine execution."""

import numpy as np
import pytest

from fairexp.core import BurdenExplainer, NAWBExplainer, PreCoFExplainer
from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    AuditSession,
    BatchModelAdapter,
    CounterfactualEngine,
    GrowingSpheresCounterfactual,
    shard_indices,
)


@pytest.fixture
def workload(loan_data, loan_model):
    dataset, train, test = loan_data
    rejected_idx = np.flatnonzero(loan_model.predict(test.X) == 0)[:25]
    return dataset, train, test, loan_model, rejected_idx


def _generator(generator_cls, train, model, constraints=None):
    return generator_cls(model, train.X, constraints=constraints, random_state=0)


def _fields(counterfactual):
    """Every field of a counterfactual, arrays as bytes, for exact comparison."""
    return (counterfactual.original.tobytes(), counterfactual.counterfactual.tobytes(),
            counterfactual.original_prediction, counterfactual.counterfactual_prediction,
            counterfactual.changed_features, counterfactual.distance,
            counterfactual.feasible, counterfactual.meta)


class TestShardIndices:
    def test_contiguous_and_complete(self):
        shards = shard_indices(10, 3)
        assert [list(s) for s in shards] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_more_shards_than_items(self):
        shards = shard_indices(2, 8)
        assert [list(s) for s in shards] == [[0], [1]]

    def test_zero_items(self):
        assert shard_indices(0, 4) == []


class TestShardedSession:
    """Sharded sessions; their bitwise equality with ``n_jobs=1`` is a case
    of the invariance matrix (``tests/test_invariance.py``)."""

    def test_negative_n_jobs_means_cpu_count(self, workload, loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        engine = CounterfactualEngine(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            n_jobs=-1,
        )
        results = engine.generate_aligned(test.X[rejected_idx[:6]])
        assert len(results) == 6

    def test_session_shared_results_match_direct_engine(self, workload,
                                                        loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        constraints = loan_cf_generator.constraints
        aligned = CounterfactualEngine(
            _generator(GrowingSpheresCounterfactual, train, model, constraints)
        ).generate_aligned(test.X[rejected_idx])
        direct = {int(i): result for i, result in zip(rejected_idx, aligned)
                  if result is not None}
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model, constraints), n_jobs=4
        )
        shared = session.counterfactuals_for(test.X, rejected_idx).solved()
        assert set(direct) == set(shared)
        for i in direct:
            assert np.array_equal(direct[i].counterfactual, shared[i].counterfactual)


class TestAuditSessionSharing:
    def test_overlapping_requests_cost_no_new_predicts(self, workload,
                                                       loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        first = session.counterfactuals_for(test.X, rejected_idx).solved()
        calls_after_first = session.predict_call_count
        again = session.counterfactuals_for(test.X, rejected_idx[:10]).solved()
        assert session.predict_call_count == calls_after_first
        assert set(again) <= set(first)
        for i in again:
            assert _fields(again[i]) == _fields(first[i])

    def test_split_requests_match_one_request(self, workload, loan_cf_generator,
                                              tmp_path):
        """Two requests over disjoint, shuffled rows (one with a repeated
        index) leave the same population batch, and publish the same payload,
        as one request over their union: sorted by index, no duplicates."""
        dataset, train, test, model, rejected_idx = workload
        rows = np.random.default_rng(0).permutation(rejected_idx)

        def audit(requests, directory):
            generator = _generator(GrowingSpheresCounterfactual, train, model,
                                   loan_cf_generator.constraints)
            with AuditSession(generator, store=directory) as session:
                for request in requests:
                    session.counterfactuals_for(test.X, request)
                [population] = session._populations.values()
                [fingerprint] = session.store.entries()
                return population.batch, session.store.load(fingerprint)

        split, split_published = audit(
            [np.concatenate([rows[:15], rows[:3]]), rows[15:]], tmp_path / "split")
        whole, whole_published = audit([rows], tmp_path / "whole")
        assert whole.indices.tolist() == sorted(set(rows.tolist()))
        for name, column in whole.columns.items():
            for other in (split, split_published, whole_published):
                assert other.columns[name].dtype == column.dtype
                assert np.array_equal(other.columns[name], column, equal_nan=True)

    def test_infeasible_rows_are_not_retried(self, workload):
        dataset, train, test, model, _ = workload

        class AlwaysRejects:
            def predict(self, X):
                return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

        generator = GrowingSpheresCounterfactual(AlwaysRejects(), train.X,
                                                 max_shells=2, random_state=0)
        session = AuditSession(generator)
        first = session.counterfactuals_for(test.X, np.arange(5))
        assert first.indices.tolist() == [0, 1, 2, 3, 4]
        assert first.solved() == {}
        calls = session.predict_call_count
        assert session.counterfactuals_for(test.X, np.arange(5)).solved() == {}
        assert session.predict_call_count == calls
        assert session.stats()["n_infeasible_cached"] == 5

    def test_distinct_populations_are_cached_separately(self, workload,
                                                        loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        session.counterfactuals_for(test.X, rejected_idx[:5])
        session.counterfactuals_for(test.X[:40] + 0.5, np.arange(3))
        assert session.stats()["n_populations"] == 2

    def test_precompute_warms_every_audit(self, workload, loan_cf_generator):
        dataset, train, test, model, _ = workload
        subset_X = test.X[:60]
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        n_explained = session.precompute(subset_X)
        assert n_explained > 0
        calls = session.predict_call_count
        pending = np.flatnonzero(session.predict(subset_X) != 1)
        session.counterfactuals_for(subset_X, pending)
        assert session.predict_call_count == calls

    def test_generatorless_session_serves_predictions_only(self, workload):
        dataset, train, test, model, _ = workload
        session = AuditSession(model=model)
        predictions = session.predict(test.X)
        assert np.array_equal(predictions, model.predict(test.X))
        assert session.predict_call_count == 1
        with pytest.raises(ValidationError):
            session.counterfactuals_for(test.X, np.arange(3))
        with pytest.raises(ValidationError):
            session.precompute(test.X)

    def test_session_requires_generator_or_model(self):
        with pytest.raises(ValidationError):
            AuditSession()

    def test_session_rejects_conflicting_model_and_generator(self, workload,
                                                             loan_cf_generator):
        dataset, train, test, model, _ = workload

        class OtherModel:
            def predict(self, X):
                return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

        generator = _generator(GrowingSpheresCounterfactual, train, model,
                               loan_cf_generator.constraints)
        with pytest.raises(ValidationError):
            AuditSession(generator, model=OtherModel())
        # The generator's own model (wrapped or not) is not a conflict.
        AuditSession(generator, model=model)

    def test_result_cache_bounds_populations(self, workload, loan_cf_generator):
        dataset, train, test, model, _ = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
        )
        session.max_populations = 2
        for k in range(3):
            session.counterfactuals_for(test.X[:20] + 0.1 * k, np.arange(2))
        assert session.stats()["n_populations"] == 2

    def test_conflicting_generator_and_session_raise(self, workload,
                                                     loan_cf_generator):
        dataset, train, test, model, _ = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        other = _generator(GrowingSpheresCounterfactual, train, model,
                           loan_cf_generator.constraints)
        with pytest.raises(ValidationError):
            BurdenExplainer(other, session=session)
        # The session's own generator is not a conflict.
        BurdenExplainer(session.generator, session=session)
        # A generator-less session cannot serve a counterfactual audit —
        # rejected at construction, with or without an explicit generator.
        with pytest.raises(ValidationError):
            BurdenExplainer(other, session=AuditSession(model=model))
        with pytest.raises(ValidationError):
            BurdenExplainer(session=AuditSession(model=model))
        # Adapter without model or backend fails at construction, not predict.
        with pytest.raises(ValidationError):
            BatchModelAdapter()

    def test_private_session_does_not_strip_shared_memo(self, workload,
                                                        loan_cf_generator):
        """A standalone explainer over a generator owned by a live shared
        session must not disable that session's predict memo."""
        dataset, train, test, model, _ = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model,
                               loan_cf_generator.constraints)
        shared = AuditSession(generator)
        assert shared.adapter.cache
        BurdenExplainer(generator)  # builds a private cache-less session
        assert shared.adapter.cache  # shared memo survives
        shared.predict(test.X)
        shared.predict(test.X)
        assert shared.cache_hit_count == 1

    def test_precof_requires_feature_names(self, workload, loan_cf_generator):
        from fairexp.core import PreCoFExplainer as PreCoF

        dataset, train, test, model, _ = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        with pytest.raises(ValidationError):
            PreCoF(session=session)

    def test_adapter_cache_flag_reflects_backend_stack(self, workload):
        dataset, train, test, model, _ = workload
        assert BatchModelAdapter(model, cache=True).cache
        assert not BatchModelAdapter(model, cache=False).cache

    def test_reset_drops_results_and_counts(self, workload, loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        session.counterfactuals_for(test.X, rejected_idx[:5])
        session.reset()
        assert session.predict_call_count == 0
        assert session.stats()["n_populations"] == 0


class TestSessionRoutedAudits:
    def test_burden_nawb_precof_share_one_engine_pass(self, workload,
                                                      loan_cf_generator):
        dataset, train, test, model, _ = workload
        subset_X, subset_y = test.X[:60], test.y[:60]
        subset_s = test.sensitive_values[:60]
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        BurdenExplainer(session=session).explain(subset_X, subset_s)
        calls_after_burden = session.predict_call_count
        NAWBExplainer(session=session).explain(subset_X, subset_y, subset_s)
        PreCoFExplainer(feature_names=dataset.feature_names,
                        sensitive_feature=dataset.sensitive,
                        session=session).explain(subset_X, subset_s)
        # NAWB's false negatives and PreCoF's negatives are subsets of the
        # rows burden already explained; predictions come from the memo.
        assert session.predict_call_count == calls_after_burden

    def test_session_and_standalone_audits_agree(self, workload,
                                                 loan_cf_generator):
        dataset, train, test, model, _ = workload
        subset_X = test.X[:60]
        subset_s = test.sensitive_values[:60]
        constraints = loan_cf_generator.constraints
        standalone = BurdenExplainer(
            _generator(GrowingSpheresCounterfactual, train, model, constraints)
        ).explain(subset_X, subset_s)
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model, constraints)
        )
        shared = BurdenExplainer(session=session).explain(subset_X, subset_s)
        assert shared.gap == standalone.gap
        assert shared.protected.burden == standalone.protected.burden
        np.testing.assert_array_equal(shared.protected.distances,
                                      standalone.protected.distances)

    def test_private_session_regenerates_after_inplace_refit(self, loan_data):
        """A standalone explainer must pick up an in-place model refit — only
        shared sessions pin a frozen model."""
        dataset, train, test = loan_data

        class MutableModel:
            def __init__(self):
                self.offset = 0.0

            def predict(self, X):
                return (np.atleast_2d(X)[:, 0] + self.offset > 45).astype(int)

        model = MutableModel()
        explainer = BurdenExplainer(
            GrowingSpheresCounterfactual(model, train.X, random_state=0)
        )
        subset_X = test.X[:40]
        subset_s = test.sensitive_values[:40]
        explainer.explain(subset_X, subset_s)
        model.offset = -30.0  # refit in place: approvals now need income > 75
        refit = explainer.explain(subset_X, subset_s)
        fresh = BurdenExplainer(
            GrowingSpheresCounterfactual(model, train.X, random_state=0)
        ).explain(subset_X, subset_s)
        # No row has recourse after the refit, so both burdens are NaN; a stale
        # pre-refit result would be a finite burden.
        np.testing.assert_equal(refit.protected.burden, fresh.protected.burden)
        np.testing.assert_equal(refit.reference.burden, fresh.reference.burden)

    def test_private_session_refit_safe_with_prewrapped_memo_adapter(self, loan_data):
        """A leftover memoizing adapter (from an earlier shared session on the
        same generator) must not serve stale predictions to a private-session
        explainer after an in-place refit."""
        dataset, train, test = loan_data

        class MutableModel:
            offset = 0.0

            def predict(self, X):
                return (np.atleast_2d(X)[:, 0] + self.offset > 45).astype(int)

        model = MutableModel()
        generator = GrowingSpheresCounterfactual(model, train.X, random_state=0)
        AuditSession(generator)  # wraps generator.model with a memoizing adapter
        explainer = BurdenExplainer(generator)   # private, refit-safe session
        subset_X, subset_s = test.X[:40], test.sensitive_values[:40]
        explainer.explain(subset_X, subset_s)
        model.offset = -30.0
        refit = explainer.explain(subset_X, subset_s)
        fresh = BurdenExplainer(
            GrowingSpheresCounterfactual(model, train.X, random_state=0)
        ).explain(subset_X, subset_s)
        assert refit.protected.n_negative == fresh.protected.n_negative
        np.testing.assert_equal(refit.protected.burden, fresh.protected.burden)  # NaN: no recourse

    def test_session_upgrades_cacheless_adapter_to_memo(self, workload,
                                                        loan_cf_generator):
        """An engine-wrapped cache=False adapter gains the session's memo."""
        dataset, train, test, model, _ = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model,
                               loan_cf_generator.constraints)
        CounterfactualEngine(generator)          # wraps with cache=False
        session = AuditSession(generator)        # cache_predictions=True
        session.predict(test.X)
        session.predict(test.X)
        assert session.predict_call_count == 1
        assert session.cache_hit_count == 1

    def test_missing_model_and_session_raise_cleanly(self, workload):
        from fairexp.core import RecourseSetExplainer, recourse_gap_report

        dataset, train, test, model, _ = workload
        with pytest.raises(ValidationError):
            recourse_gap_report(X=test.X, sensitive=test.sensitive_values)
        with pytest.raises(ValidationError):
            RecourseSetExplainer(candidate_actions=(),
                                 feature_names=dataset.feature_names)

    def test_reuse_counter_tracks_served_rows(self, workload, loan_cf_generator):
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        session.counterfactuals_for(test.X, rejected_idx)
        assert session.stats()["n_results_reused"] == 0
        session.counterfactuals_for(test.X, rejected_idx[:10])
        assert session.stats()["n_results_reused"] == 10

    def test_explicit_model_wins_over_session(self, workload, loan_cf_generator):
        from fairexp.core import GlobeCEExplainer, recourse_gap_report

        dataset, train, test, model, _ = workload

        class ChallengerModel:
            def predict(self, X):
                return np.ones(np.atleast_2d(X).shape[0], dtype=int)

            def predict_proba(self, X):
                n = np.atleast_2d(X).shape[0]
                return np.column_stack([np.zeros(n), np.ones(n)])

        challenger = ChallengerModel()
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        globe = GlobeCEExplainer(challenger, train.X, session=session)
        assert globe.model is challenger
        report = recourse_gap_report(challenger, test.X, test.sensitive_values,
                                     session=session)
        assert report.n_protected == 0  # challenger rejects nobody

    def test_generator_instance_seed_falls_back_to_sequential(self, workload,
                                                              loan_cf_generator):
        """A shared np.random.Generator cannot be sharded: n_jobs>1 must run
        the sequential pass (same stream consumption, no thread race)."""
        dataset, train, test, model, rejected_idx = workload
        constraints = loan_cf_generator.constraints
        rejected = test.X[rejected_idx[:10]]

        sharded = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                         random_state=np.random.default_rng(7)),
            n_jobs=4,
        ).generate_aligned(rejected)
        sequential = CounterfactualEngine(
            GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                         random_state=np.random.default_rng(7)),
            n_jobs=1,
        ).generate_aligned(rejected)
        for seq, par in zip(sequential, sharded):
            assert (seq is None) == (par is None)
            if seq is not None:
                assert np.array_equal(seq.counterfactual, par.counterfactual)

    def test_engine_attribute_still_exposed(self, workload, loan_cf_generator):
        dataset, train, test, model, _ = workload
        explainer = BurdenExplainer(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints)
        )
        assert isinstance(explainer.engine, CounterfactualEngine)
        assert isinstance(explainer.generator.model, BatchModelAdapter)


class TestSessionLifecycleAndEviction:
    def test_closed_session_raises_a_session_level_error(self, workload,
                                                         loan_cf_generator):
        """Use after close() must name the SESSION, not surface the opaque
        'ExecutorPool is closed' from deep inside a sharded engine pass."""
        dataset, train, test, model, rejected_idx = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            n_jobs=2,
        )
        session.counterfactuals_for(test.X, rejected_idx[:4])
        session.close()
        with pytest.raises(ValidationError, match="AuditSession is closed"):
            session.counterfactuals_for(test.X, rejected_idx[:4])
        with pytest.raises(ValidationError, match="AuditSession is closed"):
            session.precompute(test.X[:8])

    def test_evicted_population_republishes_every_row(self, workload,
                                                      loan_cf_generator, tmp_path):
        """Evict -> re-touch -> publish must keep the rows published before
        the eviction: the re-touch seeds the rebuilt cache from the store
        entry, so the publish that replaces the entry carries them."""
        from fairexp.explanations import CounterfactualStore

        dataset, train, test, model, _ = workload
        store = CounterfactualStore(tmp_path)
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            store=store,
        )
        session.max_populations = 1
        population_a = test.X[:20]
        population_b = test.X[20:40]
        session.counterfactuals_for(population_a, np.arange(3))   # publish #1 (A)
        session.counterfactuals_for(population_b, np.arange(3))   # evicts A
        # Re-touch A with rows the first pass never searched.
        session.counterfactuals_for(population_a, np.arange(3, 6))
        # All rows from both passes survived in the store entry.
        from fairexp.explanations import population_fingerprint
        fingerprint = population_fingerprint(session.generator, np.atleast_2d(
            np.asarray(population_a, dtype=float)))
        stored = store.load(fingerprint)
        assert set(stored.indices.tolist()) >= set(range(6))

    def test_schedule_swap_does_not_poison_the_store(self, workload,
                                                     loan_cf_generator, tmp_path):
        """Rows searched under one schedule are never published under (or
        served from) another schedule's store entry.

        A second session over the same generator installs the adaptive
        schedule while the first still caches geometric rows; the first
        session's next publish must not file those rows under the adaptive
        fingerprint, where a fresh adaptive session would warm-serve them."""
        dataset, train, test, model, rejected_idx = workload
        constraints = loan_cf_generator.constraints
        first, second = rejected_idx[:4], rejected_idx[4:8]

        def fresh_generator():
            return _generator(GrowingSpheresCounterfactual, train, model, constraints)

        generator = fresh_generator()
        with AuditSession(generator, store=tmp_path) as session_a:
            geometric = session_a.counterfactuals_for(test.X, first).solved()
            with AuditSession(generator, schedule="adaptive"):
                pass  # swaps the shared generator's schedule
            session_a.counterfactuals_for(test.X, second)

        with AuditSession(fresh_generator(), schedule="adaptive") as reference:
            cold = reference.counterfactuals_for(test.X, first).solved()
        # Precondition: the two schedules disagree on these rows, so serving
        # geometric rows as adaptive ones would be visible below.
        assert set(cold) != set(geometric) or any(
            not np.array_equal(cold[i].counterfactual, geometric[i].counterfactual)
            for i in cold
        )
        with AuditSession(fresh_generator(), schedule="adaptive",
                          store=tmp_path) as warm:
            served = warm.counterfactuals_for(test.X, first).solved()
        assert set(served) == set(cold)
        for i in cold:
            assert np.array_equal(served[i].counterfactual, cold[i].counterfactual)

    def test_backend_passthrough_routes_session_predicts(self, workload,
                                                         loan_cf_generator):
        """backend= reroutes every predict of the sweep while keeping audit
        results identical to the in-process default."""
        from fairexp.explanations import OnnxExportBackend

        dataset, train, test, model, rejected_idx = workload
        reference_session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints))
        reference = reference_session.counterfactuals_for(test.X, rejected_idx[:6]).solved()

        backend = OnnxExportBackend(model, verify_on=test.X)
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model,
                       loan_cf_generator.constraints),
            backend=backend,
        )
        routed = session.counterfactuals_for(test.X, rejected_idx[:6]).solved()
        assert backend.call_count > 0          # the graph really served the sweep
        assert session.predict_call_count == backend.call_count
        assert set(routed) == set(reference)
        for i in reference:
            assert np.array_equal(routed[i].counterfactual,
                                  reference[i].counterfactual)

    def test_backend_only_session_shares_predictions(self, workload):
        """A session built from just a backend (no model object) still
        serves counted, memoized predictions."""
        from fairexp.explanations import OnnxExportBackend

        dataset, train, test, model, _ = workload
        session = AuditSession(backend=OnnxExportBackend(model))
        first = session.predict(test.X)
        second = session.predict(test.X)
        assert np.array_equal(first, model.predict(test.X))
        assert np.array_equal(first, second)
        assert session.predict_call_count == 1
        assert session.cache_hit_count == 1


class TestSessionInputContract:
    """Row indices follow NumPy's convention and are checked at the boundary."""

    @pytest.fixture
    def population(self, loan_data, loan_model, loan_cf_generator):
        _, train, test = loan_data
        X = test.X[:50]
        generator = _generator(GrowingSpheresCounterfactual, train, loan_model,
                               loan_cf_generator.constraints)
        return generator, X

    def test_negative_index_names_the_same_row(self, population, tmp_path):
        generator, X = population
        with AuditSession(generator, store=tmp_path) as session:
            first = session.counterfactuals_for(X, [-1])
            second = session.counterfactuals_for(X, [49])
            assert first.indices.tolist() == second.indices.tolist() == [49]
            first, second = first.solved(), second.solved()
            assert session.result_reuse_count == 1  # served from cache
            assert set(first) <= {49} and set(second) <= {49}
            assert set(first) == set(second)
            stored = [session.store.load(fingerprint)
                      for fingerprint in session.store.entries()]
        assert stored
        assert all(row >= 0 for rows in stored for row in rows.indices.tolist())
        assert all(set(rows.indices.tolist()) == {49} for rows in stored)

    def test_results_keyed_by_row_index(self, population):
        generator, X = population
        with AuditSession(generator) as session:
            results = session.counterfactuals_for(X, np.array([11, 3, 7]))
        assert results.indices.tolist() == [11, 3, 7]  # request order
        assert np.array_equal(results.originals, X[[11, 3, 7]])
        results = results.solved()
        assert set(results) <= {3, 7, 11}
        for i, counterfactual in results.items():
            assert np.array_equal(counterfactual.original, X[i])

    def test_duplicate_indices_search_once(self, population):
        """A duplicated index must trigger (and pay for) exactly one search
        of that row."""
        generator, X = population
        with AuditSession(generator) as session:
            searched_rows: list[int] = []
            original = session.engine.generate_aligned

            def spying_generate_aligned(rows):
                searched_rows.append(np.atleast_2d(rows).shape[0])
                return original(rows)

            session.engine.generate_aligned = spying_generate_aligned
            duplicated = session.counterfactuals_for(X, np.array([3, 7, 3, 11, 7, 3]))
            assert searched_rows == [3]  # one search per DISTINCT row
            assert session.result_reuse_count == 0
        assert duplicated.indices.tolist() == [3, 7, 11]  # each row once, first-seen order
        with AuditSession(generator) as fresh:
            reference = fresh.counterfactuals_for(X, np.array([3, 7, 11]))
        for name, column in reference.columns.items():
            assert np.array_equal(duplicated.columns[name], column, equal_nan=True)
        duplicated, reference = duplicated.solved(), reference.solved()
        assert set(duplicated) == set(reference)
        for i in reference:
            assert np.array_equal(duplicated[i].counterfactual,
                                  reference[i].counterfactual)

    def test_empty_indices_touch_no_state(self, population):
        generator, X = population
        with AuditSession(generator) as session:
            empty = session.counterfactuals_for(X, np.array([], dtype=int))
            assert len(empty) == 0 and empty.n_features == X.shape[1]
            assert session.stats()["n_populations"] == 0
            assert session.predict_call_count == 0

    @pytest.mark.parametrize("bad", [[55], [50], [-51], [3, 55]])
    def test_out_of_range_index_raises_before_any_state(self, population, tmp_path,
                                                        bad):
        generator, X = population
        with AuditSession(generator, store=tmp_path) as session:
            with pytest.raises(ValidationError, match=r"\[-50, 50\)"):
                session.counterfactuals_for(X, bad)
            assert session.stats()["n_populations"] == 0
            assert session.store.entries() == []
            assert session.predict_call_count == 0

    @pytest.mark.parametrize("bad", [
        [True, False, True, False],   # a mask is not a list of rows 0 and 1
        [0.9, 2.7],                   # floats are not truncated to rows 0, 2
        [[0, 1], [2, 3]],             # 2-D
        np.array(3),                  # 0-D
    ], ids=["bool-mask", "floats", "2d", "scalar"])
    def test_non_integer_or_non_1d_index_raises_before_any_state(
            self, population, tmp_path, bad):
        generator, X = population
        with AuditSession(generator, store=tmp_path) as session:
            session.engine.generate_aligned = None  # any engine call would fail
            with pytest.raises(ValidationError, match="1-D array of integers"):
                session.counterfactuals_for(X, bad)
            assert session.stats()["n_populations"] == 0
            assert session.store.stats()["store_misses"] == 0
            assert session.store.entries() == []
            assert session.predict_call_count == 0

    def test_empty_list_is_a_valid_index(self, population):
        generator, X = population
        with AuditSession(generator) as session:
            assert len(session.counterfactuals_for(X, [])) == 0  # np.asarray([]) is float

    def test_non_finite_rows_raise_before_any_state(self, population, tmp_path):
        generator, X = population
        X = X.copy()
        X[3, 1] = np.nan
        X[7, 0] = -np.inf
        with AuditSession(generator, store=tmp_path) as session:
            with pytest.raises(ValidationError, match=r"rows \[3, 7\] hold NaN or infinite"):
                session.counterfactuals_for(X, [0, -43, 3, 12, 3])
            assert session.stats()["n_populations"] == 0
            assert session.store.stats()["store_misses"] == 0
            assert session.store.entries() == []
            assert session.predict_call_count == 0
            # Finite rows of the same population are still served.
            served = session.counterfactuals_for(X, [0, 12])
            assert served.indices.tolist() == [0, 12]
            assert set(served.solved()) <= {0, 12}
