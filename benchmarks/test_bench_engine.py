"""Batched counterfactual engine: predict-call reduction on the E1/E2 workload.

Verifies the engine acceptance criterion: with a fixed ``random_state`` one
``generate_batch_aligned`` call over the E1/E2 burden workload produces the
same counterfactuals as calling ``generate`` row by row (each call a one-row
batch) while issuing at least 5x fewer ``model.predict`` calls (counted by
:class:`~fairexp.explanations.BatchModelAdapter`).
"""

import numpy as np

from conftest import record

from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    BatchModelAdapter,
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
