"""Batched counterfactual engine: predict-call reduction on the E1/E2 workload.

Verifies the engine acceptance criterion: with a fixed ``random_state`` one
``generate_batch_aligned`` call over the E1/E2 burden workload produces the
same counterfactuals as calling ``generate`` row by row (each call a one-row
batch) while issuing at least 5x fewer ``model.predict`` calls (counted by
:class:`~fairexp.explanations.BatchModelAdapter`).

It also measures the process-shard path on the one kind of backend that
selects it: a pure-Python per-row predict that holds the GIL.  Burden + NAWB
over the E1 biased population at 10x through one session with ``n_jobs=2``
(processes) must give the results of ``n_jobs=1`` bitwise and beat it on a
machine with two or more CPUs (``process_shard_speedup``).
"""

import functools
import os
import time

import numpy as np

from conftest import record

from fairexp.core import BurdenExplainer, NAWBExplainer
from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    BatchModelAdapter,
    CallablePredictBackend,
    ExplainerRegistry,
    GrowingSpheresCounterfactual,
)
from fairexp.models import LogisticRegression


def _burden_workload(n_samples=600, audit_size=80):
    dataset = make_loan_dataset(n_samples, direct_bias=1.2, recourse_gap=1.0, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    subset = test.subset(np.arange(min(audit_size, test.n_samples)))
    rejected = subset.X[model.predict(subset.X) == 0]
    return model, train, constraints, rejected


def test_engine_matches_sequential_with_fewer_predict_calls(benchmark):
    model, train, constraints, rejected = _burden_workload()

    # Row-by-row access pattern: one generate call (a one-row batch) per row.
    sequential_adapter = BatchModelAdapter(model, cache=False)
    sequential_generator = GrowingSpheresCounterfactual(
        sequential_adapter, train.X, constraints=constraints, random_state=0
    )
    sequential = [sequential_generator.generate(row) for row in rejected]

    # Engine path: one lockstep batch over all instances.
    batch_adapter = BatchModelAdapter(model, cache=False)
    batch_generator = GrowingSpheresCounterfactual(
        batch_adapter, train.X, constraints=constraints, random_state=0
    )
    batched = benchmark.pedantic(
        lambda: batch_generator.generate_batch_aligned(rejected), rounds=1, iterations=1,
    )

    assert len(batched) == len(sequential)
    for seq, bat in zip(sequential, batched):
        assert bat is not None
        assert np.array_equal(seq.counterfactual, bat.counterfactual)
        assert seq.changed_features == bat.changed_features
        assert seq.distance == bat.distance
        assert seq.counterfactual_prediction == bat.counterfactual_prediction

    # >=5x fewer model.predict invocations (the engine acceptance criterion).
    batch_calls = batch_adapter.predict_call_count
    assert sequential_adapter.predict_call_count >= 5 * batch_calls
    record(benchmark, {
        "n_instances": len(rejected),
        "sequential_predict_calls": sequential_adapter.predict_call_count,
        "batched_predict_calls": batch_calls,
        "reduction_factor": sequential_adapter.predict_call_count / max(batch_calls, 1),
    }, adapter=batch_adapter, experiment="ENGINE")


def test_registered_generators_reduce_predict_calls(benchmark):
    """Every registered generator's batch search beats row-by-row calls."""
    model, train, constraints, rejected = _burden_workload(n_samples=400, audit_size=40)
    reductions = {}

    def run_all():
        for entry in ExplainerRegistry.with_capability("counterfactual-generator"):
            sequential_adapter = BatchModelAdapter(model, cache=False)
            generator = entry.obj(sequential_adapter, train.X, constraints=constraints,
                                  random_state=0)
            for row in rejected:
                generator.generate(row)
            batch_adapter = BatchModelAdapter(model, cache=False)
            generator = entry.obj(batch_adapter, train.X, constraints=constraints,
                                  random_state=0)
            generator.generate_batch_aligned(rejected)
            reductions[entry.name] = (
                sequential_adapter.predict_call_count / max(batch_adapter.predict_call_count, 1)
            )
        return reductions

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name, reduction in reductions.items():
        assert reduction >= 5.0, f"{name}: only {reduction:.1f}x fewer predict calls"
    record(benchmark, {f"reduction_{name}": value for name, value in reductions.items()},
           experiment="ENGINE_ABLATION")


def _per_row_predict(weights, intercept, X):
    """Logistic labels computed one row at a time in pure Python: a predict
    that holds the GIL for its whole run."""
    return np.array([int(sum(w * x for w, x in zip(weights, row)) + intercept >= 0)
                     for row in X.tolist()])


def test_gil_bound_backend_process_shards_beat_sequential(benchmark):
    """E1 biased at 10x (6000 samples, 800 audited), burden + NAWB through one
    session over a GIL-holding callable: ``n_jobs=2`` runs on processes,
    matches ``n_jobs=1`` bitwise and, on two or more CPUs, is faster."""
    dataset = make_loan_dataset(6000, direct_bias=1.2, recourse_gap=1.0, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    audited = test.subset(np.arange(800))
    predict = functools.partial(_per_row_predict, tuple(model.coef_.tolist()),
                                float(model.intercept_))

    def audit(n_jobs):
        generator = GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                                 random_state=0)
        start = time.perf_counter()
        with AuditSession(generator, backend=CallablePredictBackend(predict),
                          n_jobs=n_jobs) as session:
            burden = BurdenExplainer(session=session).explain(
                audited.X, audited.sensitive_values)
            nawb = NAWBExplainer(session=session).explain(
                audited.X, audited.y, audited.sensitive_values)
        return time.perf_counter() - start, burden, nawb, session

    def alternate():
        runs = {1: [], 2: []}
        for _ in range(3):
            for n_jobs in (1, 2):
                runs[n_jobs].append(audit(n_jobs))
        return runs

    runs = benchmark.pedantic(alternate, rounds=1, iterations=1)
    (_, burden_seq, nawb_seq, session_seq), (_, burden_par, nawb_par, session_par) = (
        runs[1][0], runs[2][0])
    assert session_par.pool.created_counts["process"] == 1
    counterfactuals_seq = burden_seq.counterfactuals[1] + burden_seq.counterfactuals[0]
    counterfactuals_par = burden_par.counterfactuals[1] + burden_par.counterfactuals[0]
    assert counterfactuals_seq, "workload produced no counterfactuals to compare"
    assert len(counterfactuals_seq) == len(counterfactuals_par)
    for seq, par in zip(counterfactuals_seq, counterfactuals_par):
        assert np.array_equal(seq.original, par.original)
        assert np.array_equal(seq.counterfactual, par.counterfactual)
        assert seq.distance == par.distance
    assert burden_seq.as_dict() == burden_par.as_dict()
    assert nawb_seq.as_dict() == nawb_par.as_dict()
    assert session_seq.predict_row_count == session_par.predict_row_count

    best_seq = min(run[0] for run in runs[1])
    best_par = min(run[0] for run in runs[2])
    speedup = best_seq / best_par
    if (os.cpu_count() or 1) >= 2:
        assert speedup > 1.0, (
            f"2 process shards ({best_par:.3f}s) did not beat n_jobs=1 ({best_seq:.3f}s)")
    record(benchmark, {
        "process_shard_speedup": speedup,
        "sequential_seconds": best_seq,
        "process_sharded_seconds": best_par,
        "predicted_rows": session_seq.predict_row_count,
    }, experiment="ENGINE")
