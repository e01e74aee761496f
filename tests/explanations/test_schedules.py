"""Tests for the pluggable search schedules (geometric parity + adaptive wins)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    AdaptiveSchedule,
    AuditSession,
    BatchModelAdapter,
    CallablePredictBackend,
    CounterfactualEngine,
    GeometricSchedule,
    GrowingSpheresCounterfactual,
    RandomSearchCounterfactual,
    SearchSchedule,
    population_fingerprint,
    resolve_schedule,
)
from sequential_oracles import ladder_search, oracle_cursor


@pytest.fixture
def workload(loan_data, loan_model, loan_cf_generator):
    dataset, train, test = loan_data
    rejected = test.X[np.flatnonzero(loan_model.predict(test.X) == 0)[:30]]
    return train, loan_model, loan_cf_generator.constraints, rejected


def _generator(generator_cls, train, model, constraints, **kwargs):
    return generator_cls(model, train.X, constraints=constraints, random_state=0,
                         **kwargs)


def _gil_holding(model):
    """``model`` behind a backend declaring ``releases_gil=False``: with
    ``n_jobs > 1`` the engine shards it on processes instead of threads."""
    return BatchModelAdapter(model, backend=CallablePredictBackend(model.predict),
                             cache=False)


class EagerAdaptiveSchedule(AdaptiveSchedule):
    """An adaptive schedule that shortcuts only on near-saturated hits."""

    EAGER_HIT_RATE = 0.9


class TestResolveSchedule:
    def test_none_resolves_to_geometric_default(self):
        assert isinstance(resolve_schedule(None), GeometricSchedule)

    def test_names_resolve(self):
        assert isinstance(resolve_schedule("geometric"), GeometricSchedule)
        assert isinstance(resolve_schedule("adaptive"), AdaptiveSchedule)

    def test_instances_pass_through(self):
        schedule = EagerAdaptiveSchedule()
        assert resolve_schedule(schedule) is schedule

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            resolve_schedule("fibonacci")
        with pytest.raises(ValidationError):
            resolve_schedule(42)

    def test_base_schedule_is_abstract(self):
        with pytest.raises(NotImplementedError):
            SearchSchedule().begin(3, 4)


class TestGeometricParity:
    """GeometricSchedule must reproduce the fixed widening of the
    per-instance oracle loop bitwise-exactly under fixed seeds."""

    @pytest.mark.parametrize("generator_cls", [
        GrowingSpheresCounterfactual, RandomSearchCounterfactual,
    ])
    def test_batched_geometric_equals_sequential_fixed_ladder(
            self, generator_cls, workload):
        train, model, constraints, rejected = workload
        sequential_generator = _generator(generator_cls, train, model, constraints)
        sequential = [ladder_search(sequential_generator, row) for row in rejected]
        batched = _generator(generator_cls, train, model, constraints,
                             schedule=GeometricSchedule()).generate_batch_aligned(rejected)
        for seq, bat in zip(sequential, batched):
            assert bat is not None
            assert np.array_equal(seq.counterfactual, bat.counterfactual)
            assert seq.changed_features == bat.changed_features
            assert seq.distance == bat.distance

    def test_explicit_schedule_argument_overrides_generator(self, workload):
        """lockstep_candidate_search(schedule=...) wins over generator.schedule."""
        from fairexp.explanations.engine import lockstep_candidate_search

        train, model, constraints, rejected = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                               schedule=AdaptiveSchedule())
        geometric_reference = _generator(
            GrowingSpheresCounterfactual, train, model, constraints
        ).generate_batch_aligned(rejected)
        overridden = lockstep_candidate_search(
            generator, rejected, generator._offsets, len(generator.draw_schedule()),
            schedule=GeometricSchedule(),
        )
        for ref, got in zip(geometric_reference, overridden):
            assert np.array_equal(ref.counterfactual, got.counterfactual)


class TestAdaptiveSchedule:
    def test_fewer_steps_and_draws_than_geometric(self, workload):
        train, model, constraints, rejected = workload
        geometric = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        geometric.generate_batch_aligned(rejected)
        adaptive = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                              schedule=AdaptiveSchedule())
        results = adaptive.generate_batch_aligned(rejected)
        assert adaptive.search_step_count < geometric.search_step_count
        assert adaptive.search_draw_count < geometric.search_draw_count
        # Coverage must not collapse: the feasibility probe keeps every
        # instance that the widest shell can reach.
        assert sum(r is not None for r in results) == len(rejected)

    def test_fewer_predict_calls_than_geometric(self, workload):
        train, model, constraints, rejected = workload
        counts = {}
        for label, schedule in (("geometric", None), ("adaptive", AdaptiveSchedule())):
            adapter = BatchModelAdapter(model, cache=False)
            generator = _generator(GrowingSpheresCounterfactual, train, adapter,
                                   constraints, schedule=schedule)
            generator.generate_batch_aligned(rejected)
            counts[label] = adapter.predict_call_count
        assert counts["adaptive"] < counts["geometric"]

    def test_results_are_valid_counterfactuals(self, workload):
        train, model, constraints, rejected = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                               schedule="adaptive")
        for row, result in zip(rejected, generator.generate_batch_aligned(rejected)):
            assert result is not None
            assert result.counterfactual_prediction == generator.target_class
            assert result.feasible

    def test_adaptive_is_deterministic_under_fixed_seed(self, workload):
        train, model, constraints, rejected = workload
        first = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                           schedule=AdaptiveSchedule()).generate_batch_aligned(rejected)
        second = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                            schedule=AdaptiveSchedule()).generate_batch_aligned(rejected)
        for a, b in zip(first, second):
            assert np.array_equal(a.counterfactual, b.counterfactual)

    def test_infeasible_instances_abandoned_after_one_probe(self, loan_data):
        """Against an always-rejecting model the adaptive schedule spends one
        wave, not the whole ladder."""
        _, train, test = loan_data

        class AlwaysRejects:
            def predict(self, X):
                return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

        geometric = GrowingSpheresCounterfactual(AlwaysRejects(), train.X,
                                                 random_state=0)
        geometric.generate_batch_aligned(test.X[:5])
        assert geometric.search_step_count == geometric.max_shells

        adaptive = GrowingSpheresCounterfactual(AlwaysRejects(), train.X,
                                                random_state=0,
                                                schedule=AdaptiveSchedule())
        results = adaptive.generate_batch_aligned(test.X[:5])
        assert adaptive.search_step_count == 1
        assert all(result is None for result in results)

    def test_cursor_bisection_brackets_the_boundary(self):
        """Unit-level cursor walk: miss raises lo, hit lowers hi, converges."""
        cursor = AdaptiveSchedule().begin(1, 8)
        rows = np.array([0])

        def probe(n_hits):
            rungs = cursor.plan(rows)
            cursor.observe(rows, rungs, np.array([n_hits]), 100)
            return rungs.tolist()

        assert probe(1) == [7]                     # feasibility probe
        assert probe(0) == [3]                     # bisect [0, 7)
        assert probe(60) == [5]                    # bisect [4, 7); saturated hit
        assert not cursor.finished[0]
        assert probe(0) == [4]                     # eager: lowest untested
        assert cursor.finished.tolist() == [True]  # bracket closed at 5

    def test_kernel_bounds_a_cursor_that_never_finishes(self, workload):
        """A buggy custom schedule that keeps replanning the same rung must
        terminate (unsolved), never hang the audit."""
        from fairexp.explanations.engine import lockstep_candidate_search

        train, model, constraints, rejected = workload

        class StuckSchedule(SearchSchedule):
            def begin(self, n_instances, n_steps):
                class StuckCursor:
                    finished = np.zeros(n_instances, dtype=bool)

                    def plan(self, pending):
                        return np.zeros(len(pending), dtype=np.intp)  # forgets to finish

                    def observe(self, *args):
                        pass

                return StuckCursor()

        class NeverHits:
            def predict(self, X):
                return np.zeros(np.atleast_2d(X).shape[0], dtype=int)

        generator = GrowingSpheresCounterfactual(NeverHits(), train.X,
                                                 random_state=0)
        results = lockstep_candidate_search(
            generator, rejected[:3], generator._offsets,
            len(generator.draw_schedule()), schedule=StuckSchedule(),
        )
        assert list(results) == [None, None, None]
        assert generator.search_step_count <= 2 * generator.max_shells + 2

    def test_cursor_keeps_no_cross_instance_state(self):
        """An instance's probe sequence must not depend on which other
        instances share its batch — that is what keeps sharded adaptive
        runs bitwise-identical to sequential ones."""
        observations = [(11, 1), (5, 1), (2, 0)]  # (rung, hits) script

        def drive(cursor, companions=()):
            rows = np.array([0, *companions])
            rungs = []
            for rung, hits in observations:
                plan = cursor.plan(rows)
                rungs.append(int(plan[0]))
                # companions hit everywhere
                cursor.observe(rows, plan, np.array([hits] + [90] * len(companions)), 100)
            return rungs

        alone = drive(AdaptiveSchedule().begin(1, 12))
        crowded = drive(AdaptiveSchedule().begin(9, 12), companions=(7, 8))
        assert alone == crowded == [11, 5, 2]


class TestCursorOracle:
    """The array cursors against the per-instance dict cursors of
    ``sequential_oracles``, driven through the same random hit scripts."""

    @settings(max_examples=300, deadline=None)
    @given(schedule_cls=st.sampled_from([GeometricSchedule, AdaptiveSchedule]),
           n_instances=st.integers(1, 6), n_steps=st.integers(0, 12),
           data=st.data())
    def test_plan_and_finished_match_per_instance_oracle(
            self, schedule_cls, n_instances, n_steps, data):
        cursor = schedule_cls().begin(n_instances, n_steps)
        oracle = oracle_cursor(schedule_cls(), n_steps)
        pending = np.arange(n_instances)
        for _ in range(n_steps + 2):  # both cursors finish within n_steps + 1
            if not pending.size:
                break
            rungs = cursor.plan(pending)
            expected = oracle.plan(pending.tolist())
            assert set(np.flatnonzero(cursor.finished).tolist()) == oracle.finished
            if rungs is None:
                assert expected == {}
                break
            assert rungs.dtype == np.intp
            assert dict(zip(pending.tolist(), rungs.tolist())) == expected
            n_candidates = data.draw(st.sampled_from([0, 1, 2, 4, 10]))
            hits = data.draw(st.lists(st.integers(0, max(n_candidates, 2)),
                                      min_size=pending.size, max_size=pending.size))
            cursor.observe(pending, rungs, np.asarray(hits), n_candidates)
            for i, rung, n_hits in zip(pending.tolist(), rungs.tolist(), hits):
                oracle.observe(i, rung, n_hits, n_candidates)
            assert set(np.flatnonzero(cursor.finished).tolist()) == oracle.finished
            pending = pending[~cursor.finished[pending]]
        assert not pending.size or cursor.plan(pending) is None  # pass ended


class TestScheduleAccounting:
    def test_session_stats_expose_schedule_counters(self, workload):
        train, model, constraints, rejected = workload
        session = AuditSession(
            _generator(GrowingSpheresCounterfactual, train, model, constraints)
        )
        session.counterfactuals_for(rejected, np.arange(len(rejected)))
        stats = session.stats()
        assert stats["schedule_steps"] > 0
        assert stats["schedule_draws"] > 0
        session.reset()
        assert session.stats()["schedule_steps"] == 0

    def test_process_sharded_counts_fold_back(self, workload):
        train, model, constraints, rejected = workload
        sequential = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        CounterfactualEngine(sequential, n_jobs=1).generate_aligned(rejected)
        sharded = _generator(GrowingSpheresCounterfactual, train, _gil_holding(model),
                             constraints)
        engine = CounterfactualEngine(sharded, n_jobs=2)
        assert engine._resolve_executor() == "process"
        engine.generate_aligned(rejected)
        assert sharded.search_step_count > 0
        assert sharded.search_draw_count == sequential.search_draw_count

    def test_generatorless_session_reports_zero_schedule_activity(self, loan_model):
        session = AuditSession(model=loan_model)
        assert session.schedule_step_count == 0
        assert session.schedule_draw_count == 0


class TestScheduleFingerprinting:
    def test_schedules_key_the_store_separately(self, workload):
        """Geometric and adaptive results must never alias in the store."""
        train, model, constraints, rejected = workload
        geometric = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        adaptive = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                              schedule=AdaptiveSchedule())
        tweaked = _generator(GrowingSpheresCounterfactual, train, model, constraints,
                             schedule=EagerAdaptiveSchedule())
        prints = {population_fingerprint(g, rejected)
                  for g in (geometric, adaptive, tweaked)}
        assert None not in prints
        assert len(prints) == 3

    def test_session_schedule_argument_installs_on_generator(self, workload):
        train, model, constraints, rejected = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        session = AuditSession(generator, schedule="adaptive")
        assert isinstance(session.generator.schedule, AdaptiveSchedule)

    def test_schedule_swap_on_shared_generator_does_not_alias_entries(
            self, workload, tmp_path):
        """A second session installing a different schedule on a SHARED
        generator must not let the first session publish the new schedule's
        rows under its memoized old-schedule fingerprint."""
        from fairexp.explanations import CounterfactualStore

        train, model, constraints, rejected = workload
        generator = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        first = AuditSession(generator, schedule="geometric", store=tmp_path)
        first.counterfactuals_for(rejected, np.arange(6))
        store = CounterfactualStore(tmp_path)
        [geometric_entry] = store.entries()
        geometric_rows = len(store.load(geometric_entry))

        AuditSession(generator, schedule="adaptive", store=tmp_path)  # swaps it
        first.counterfactuals_for(rejected, np.arange(6, 12))  # new rows
        # The adaptive-searched rows landed in a NEW entry; the geometric
        # entry holds exactly the rows the geometric schedule produced.
        assert len(store.entries()) == 2
        assert len(store.load(geometric_entry)) == geometric_rows

    def test_draw_schedules_are_exposed(self, workload):
        train, model, constraints, _ = workload
        spheres = _generator(GrowingSpheresCounterfactual, train, model, constraints)
        assert len(spheres.draw_schedule()) == spheres.max_shells
        assert spheres.draw_schedule()[0][0] == 0.0
        random = _generator(RandomSearchCounterfactual, train, model, constraints)
        assert len(random.draw_schedule()) == random.n_radii
        assert random.draw_schedule() == sorted(random.draw_schedule())

    def test_model_only_session_rejects_schedule(self, loan_model):
        """A schedule on a generator-less session is a user error, not a
        silent no-op — there is no search for it to drive."""
        with pytest.raises(ValidationError):
            AuditSession(model=loan_model, schedule="adaptive")


class TestDegenerateLadders:
    """Both cursors must end the pass cleanly at the ladder edges
    (``n_steps == 0`` happens for a custom generator whose
    ``draw_schedule()`` is empty; ``n_steps == 1`` is the smallest real
    ladder)."""

    @pytest.mark.parametrize("schedule_cls", [GeometricSchedule, AdaptiveSchedule])
    def test_empty_ladder_plans_nothing(self, schedule_cls):
        cursor = schedule_cls().begin(3, 0)
        # No probe may ever name a negative rung — an earlier adaptive
        # cursor planned its feasibility probe at rung -1 here.
        assert cursor.plan(np.arange(3)) is None
        # A second call ends the pass too: it is over, not looping.
        assert cursor.plan(np.arange(3)) is None

    @pytest.mark.parametrize("schedule_cls", [GeometricSchedule, AdaptiveSchedule])
    def test_single_rung_ladder_probes_rung_zero_only(self, schedule_cls):
        cursor = schedule_cls().begin(2, 1)
        rows = np.arange(2)
        rungs = cursor.plan(rows)
        assert rungs.tolist() == [0, 0]
        cursor.observe(rows, rungs, np.array([1, 0]), 4)
        # Hit or miss, a one-rung ladder finishes every instance in one wave.
        assert cursor.finished[0]
        follow_up = cursor.plan(rows[~cursor.finished])
        assert follow_up is None or (follow_up == 0).all()

    def test_empty_draw_schedule_generator_ends_search(self, workload):
        """End-to-end: a generator whose ladder is empty produces an
        all-infeasible result instead of probing rung -1."""
        train, model, constraints, rejected = workload

        class NoLadderGenerator(RandomSearchCounterfactual):
            def draw_schedule(self):
                return []

        generator = _generator(NoLadderGenerator, train, model, constraints,
                               schedule=AdaptiveSchedule())
        results = generator.generate_batch_aligned(rejected[:4])
        assert list(results) == [None, None, None, None]
