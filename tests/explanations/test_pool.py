"""Tests for the session-scoped persistent executor pool."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    AuditSession,
    BatchModelAdapter,
    CallablePredictBackend,
    CounterfactualEngine,
    ExecutorPool,
    GrowingSpheresCounterfactual,
)


@pytest.fixture
def workload(loan_data, loan_model, loan_cf_generator):
    dataset, train, test = loan_data
    rejected = test.X[np.flatnonzero(loan_model.predict(test.X) == 0)[:16]]
    return train, loan_model, loan_cf_generator.constraints, rejected


def _generator(train, model, constraints):
    return GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                        random_state=0)


def _gil_holding_generator(train, model, constraints):
    """A generator whose predict backend declares ``releases_gil=False``, so
    ``n_jobs > 1`` shards on processes."""
    adapted = BatchModelAdapter(model, backend=CallablePredictBackend(model.predict),
                                cache=False)
    return _generator(train, adapted, constraints)


class _CountingFactory:
    """Executor factory double that counts constructions."""

    def __init__(self, inner):
        self.inner = inner
        self.constructed = 0

    def __call__(self, *args, **kwargs):
        self.constructed += 1
        return self.inner(*args, **kwargs)


class TestExecutorPool:
    def test_lazy_creation_and_reuse(self):
        factory = _CountingFactory(ThreadPoolExecutor)
        with ExecutorPool(max_workers=2, thread_factory=factory) as pool:
            assert factory.constructed == 0  # nothing until first use
            first = pool.executor("thread")
            second = pool.executor("thread")
            assert first is second
            assert factory.constructed == 1
            assert pool.created_counts == {"thread": 1, "process": 0}
            assert pool.active_kinds() == ["thread"]

    def test_shutdown_refuses_further_use(self):
        pool = ExecutorPool(max_workers=1)
        pool.executor("thread")
        pool.shutdown()
        with pytest.raises(ValidationError):
            pool.executor("thread")

    def test_reset_builds_a_fresh_executor(self):
        factory = _CountingFactory(ThreadPoolExecutor)
        with ExecutorPool(max_workers=1, thread_factory=factory) as pool:
            first = pool.executor("thread")
            pool.reset("thread")
            assert pool.active_kinds() == []
            second = pool.executor("thread")
            assert second is not first
            assert factory.constructed == 2

    def test_invalid_kind_rejected(self):
        with ExecutorPool() as pool:
            with pytest.raises(ValidationError):
                pool.executor("fiber")


class TestEnginePooling:
    def test_pooled_thread_shards_bitwise_equal_to_per_call(self, workload):
        train, model, constraints, rejected = workload
        per_call = CounterfactualEngine(
            _generator(train, model, constraints), n_jobs=3
        ).generate_aligned(rejected)
        factory = _CountingFactory(ThreadPoolExecutor)
        with ExecutorPool(thread_factory=factory) as pool:
            engine = CounterfactualEngine(_generator(train, model, constraints),
                                          n_jobs=3, pool=pool)
            pooled_first = engine.generate_aligned(rejected)
            pooled_second = engine.generate_aligned(rejected)
        assert factory.constructed == 1  # reused across both calls
        for reference, first, second in zip(per_call, pooled_first, pooled_second):
            assert np.array_equal(reference.counterfactual, first.counterfactual)
            assert np.array_equal(reference.counterfactual, second.counterfactual)

    def test_engine_rejects_non_pool(self, workload):
        train, model, constraints, _ = workload
        with pytest.raises(ValidationError):
            CounterfactualEngine(_generator(train, model, constraints),
                                 pool=ThreadPoolExecutor(max_workers=1))


class TestSessionPooling:
    def test_process_sweep_constructs_exactly_one_process_pool(self, workload):
        """A session-scoped sweep over a GIL-holding backend constructs
        exactly one ProcessPoolExecutor, with results bitwise-equal to
        per-call pools."""
        train, model, constraints, rejected = workload
        per_call = CounterfactualEngine(
            _gil_holding_generator(train, model, constraints), n_jobs=2
        ).generate_aligned(rejected)

        with AuditSession(_generator(train, model, constraints), n_jobs=2,
                          backend=CallablePredictBackend(model.predict)) as session:
            # Three audits over three distinct populations: three sharded
            # engine passes, one worker pool.
            first = session.counterfactuals_for(rejected, np.arange(len(rejected))).solved()
            session.counterfactuals_for(rejected + 0.25, np.arange(8))
            session.counterfactuals_for(rejected + 0.5, np.arange(8))
            assert session.pool.created_counts == {"thread": 0, "process": 1}
        assert set(first) == {i for i, r in enumerate(per_call) if r is not None}
        for i, reference in enumerate(per_call):
            if reference is not None:
                assert np.array_equal(reference.counterfactual,
                                      first[i].counterfactual)

    def test_session_owns_and_closes_its_own_pool(self, workload):
        train, model, constraints, rejected = workload
        with AuditSession(_generator(train, model, constraints), n_jobs=2) as session:
            session.counterfactuals_for(rejected, np.arange(4))
            pool = session.pool
            assert pool.active_kinds() == ["thread"]
        with pytest.raises(ValidationError):
            pool.executor("thread")  # closed deterministically on exit
        session.close()  # idempotent

    def test_sequential_session_never_spawns_workers(self, workload):
        train, model, constraints, rejected = workload
        with AuditSession(_generator(train, model, constraints)) as session:
            session.counterfactuals_for(rejected, np.arange(4))
            assert session.pool.active_kinds() == []
            assert session.pool.created_counts == {"thread": 0, "process": 0}


class TestPoolInstrumentation:
    def test_stats_report_busy_workers_and_queue_depth(self):
        import threading
        import time

        release = threading.Event()

        def blocked_task(_):
            release.wait(timeout=10)
            return True

        with ExecutorPool(max_workers=2) as pool:
            runner = threading.Thread(
                target=lambda: pool.map("thread", blocked_task, range(5)))
            runner.start()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:  # wait for all 5 submissions
                stats = pool.stats()["thread"]
                if stats["queue_depth"] == 3:
                    break
                time.sleep(0.01)
            assert stats["executors_created"] == 1
            assert stats["workers"] == 2
            assert stats["busy_workers"] == 2
            assert stats["queue_depth"] == 3
            release.set()
            runner.join(timeout=10)
            assert not runner.is_alive()
            drained = pool.stats()["thread"]
            assert drained["busy_workers"] == 0 and drained["queue_depth"] == 0

    def test_pending_gauge_and_peak_high_water_mark(self):
        """Busy workers plus queue depth gauge the tasks pending right now;
        peak_pending keeps the lifetime high-water mark after the load
        drains."""
        import threading
        import time

        release = threading.Event()

        def blocked_task(_):
            release.wait(timeout=10)
            return True

        def pending(pool):
            stats = pool.stats()["thread"]
            return stats["busy_workers"] + stats["queue_depth"]

        with ExecutorPool(max_workers=2) as pool:
            assert pending(pool) == 0      # no live executor yet
            runner = threading.Thread(
                target=lambda: pool.map("thread", blocked_task, range(4)))
            runner.start()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and pending(pool) < 4:
                time.sleep(0.01)
            assert pending(pool) == 4
            release.set()
            runner.join(timeout=10)
            assert pending(pool) == 0
            assert pool.stats()["thread"]["peak_pending"] == 4

    def test_map_preserves_order_and_raises_first_error(self):
        with ExecutorPool(max_workers=2) as pool:
            assert pool.map("thread", lambda x: x * x, range(6)) == [
                0, 1, 4, 9, 16, 25]
            with pytest.raises(ZeroDivisionError):
                pool.map("thread", lambda x: 1 // x, [2, 1, 0])

    def test_reset_defers_shutdown_until_inflight_map_drains(self):
        """reset() during another thread's map must not kill that map: the
        retired executor drains first, and only the NEXT request builds a
        fresh generation."""
        import threading

        release = threading.Event()
        entered = threading.Event()

        def slow_task(x):
            entered.set()
            release.wait(timeout=5)
            return x + 1

        with ExecutorPool(max_workers=2) as pool:
            results: list = []
            runner = threading.Thread(
                target=lambda: results.extend(pool.map("thread", slow_task, range(4))))
            runner.start()
            entered.wait(timeout=5)
            pool.reset("thread")                  # concurrent with the map
            assert pool.active_kinds() == []      # forgotten immediately ...
            release.set()
            runner.join(timeout=10)
            assert results == [1, 2, 3, 4]        # ... but never shut down under it
            pool.executor("thread")               # next request: fresh generation
            assert pool.created_counts["thread"] == 2

    def test_concurrent_executor_reset_shutdown_stress(self):
        """Hammer executor()/map()/reset() from many threads, then shut down:
        no deadlock, no exception besides the expected closed-pool error."""
        import threading

        errors: list[Exception] = []
        stop = threading.Event()
        pool = ExecutorPool(max_workers=2)

        def hammer(worker: int):
            while not stop.is_set():
                try:
                    if worker % 3 == 0:
                        pool.reset("thread")
                    else:
                        pool.map("thread", lambda x: x, range(3))
                except ValidationError:
                    return  # pool closed under us: the documented outcome
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)
                    return

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        import time
        time.sleep(0.3)
        pool.shutdown()
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), "stress thread deadlocked"
        assert errors == []

