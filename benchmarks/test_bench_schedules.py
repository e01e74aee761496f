"""Adaptive vs geometric search schedules: the PR's acceptance criteria.

Two claims are asserted on the E1 benchmark sweep:

* :class:`~fairexp.explanations.AdaptiveSchedule` performs **strictly
  fewer** engine predict calls (and schedule steps, and candidate draws)
  than :class:`~fairexp.explanations.GeometricSchedule`, while the audit's
  qualitative shape claims (burden gap, NAWB gap on the biased model) still
  hold, and its seed-0 counts stay exactly those in ``ADAPTIVE_E1_COUNTS``;
* :class:`~fairexp.explanations.GeometricSchedule` keeps a row's result
  **bitwise-equal** whether it is searched alone (``generate``, a one-row
  batch) or with the whole population under fixed seeds.  The check
  against the per-instance fixed-ladder oracle lives in
  ``tests/explanations/test_schedules.py``.

Both schedules' call/step/draw counts are recorded into
``BENCH_SCHEDULES.json`` so the trajectory tracks the adaptive win.
"""

import numpy as np

from conftest import record

from fairexp.datasets import make_loan_dataset
from fairexp.experiments import run_e1_e2_burden_nawb
from fairexp.explanations import (
    ActionabilityConstraints,
    AdaptiveSchedule,
    BatchModelAdapter,
    GrowingSpheresCounterfactual,
)
from fairexp.models import LogisticRegression

# Seed-0 adaptive counts of the E1 sweep below (600 samples, 80 audited).
ADAPTIVE_E1_COUNTS = {
    "engine_predict_calls_biased": 25, "engine_predict_calls_fair": 24,
    "schedule_steps_biased": 14, "schedule_steps_fair": 13,
    "schedule_draws_biased": 54_400, "schedule_draws_fair": 17_000,
}


def test_adaptive_schedule_fewer_predict_calls_on_e1(benchmark):
    geometric = run_e1_e2_burden_nawb(n_samples=600, audit_size=80,
                                      schedule="geometric")
    adaptive = benchmark.pedantic(
        run_e1_e2_burden_nawb,
        kwargs={"n_samples": 600, "audit_size": 80, "schedule": "adaptive"},
        rounds=1, iterations=1,
    )

    # Strictly fewer engine predict calls (and schedule steps) on BOTH
    # workloads of the sweep — the tentpole's acceptance criterion.
    for label in ("biased", "fair"):
        assert 0 < adaptive[f"engine_predict_calls_{label}"] \
            < geometric[f"engine_predict_calls_{label}"], label
        assert adaptive[f"schedule_steps_{label}"] \
            < geometric[f"schedule_steps_{label}"], label
    # Candidate draws drop strictly on the hard (biased) workload, where the
    # geometric ladder wastes waves below the decision boundary.  (On the
    # near-boundary fair workload the feasibility probe's draws can offset
    # the saved waves; calls and steps still shrink, recorded either way.)
    assert adaptive["schedule_draws_biased"] < geometric["schedule_draws_biased"]
    # benchmarks/COUNTERS.json gates only the geometric schedule; these are
    # the adaptive path's exact seed-0 counts on this sweep.
    assert {key: adaptive[key] for key in ADAPTIVE_E1_COUNTS} == ADAPTIVE_E1_COUNTS

    # The cheaper search must not wash out the audit's qualitative shape.
    assert adaptive["burden_gap_biased"] > 0.5
    assert adaptive["nawb_gap_biased"] > 0.05
    assert abs(adaptive["burden_gap_fair"]) < adaptive["burden_gap_biased"] / 2

    record(benchmark, {
        **{f"adaptive_{key}": adaptive[key]
           for key in ("engine_predict_calls_biased", "schedule_steps_biased",
                       "schedule_draws_biased", "burden_gap_biased")},
        **{f"geometric_{key}": geometric[key]
           for key in ("engine_predict_calls_biased", "schedule_steps_biased",
                       "schedule_draws_biased", "burden_gap_biased")},
        "predict_call_reduction": (
            geometric["engine_predict_calls_biased"]
            / max(adaptive["engine_predict_calls_biased"], 1)
        ),
    }, experiment="SCHEDULES")


def test_geometric_schedule_bitwise_equal_to_fixed_ladder(benchmark):
    """The default schedule gives each row the same result alone or batched."""
    dataset = make_loan_dataset(600, direct_bias=1.2, recourse_gap=1.0,
                                random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    subset = test.subset(np.arange(min(80, test.n_samples)))
    rejected = subset.X[model.predict(subset.X) == 0]

    sequential_generator = GrowingSpheresCounterfactual(
        BatchModelAdapter(model, cache=False), train.X,
        constraints=constraints, random_state=0,
    )
    sequential = [sequential_generator.generate(row) for row in rejected]

    scheduled_adapter = BatchModelAdapter(model, cache=False)
    scheduled_generator = GrowingSpheresCounterfactual(
        scheduled_adapter, train.X, constraints=constraints, random_state=0,
        schedule="geometric",
    )
    batched = benchmark.pedantic(
        lambda: scheduled_generator.generate_batch_aligned(rejected),
        rounds=1, iterations=1,
    )
    for seq, bat in zip(sequential, batched):
        assert bat is not None
        assert np.array_equal(seq.counterfactual, bat.counterfactual)
        assert seq.changed_features == bat.changed_features
        assert seq.distance == bat.distance
    record(benchmark, {
        "n_instances": len(rejected),
        "schedule_steps": scheduled_generator.search_step_count,
        "schedule_draws": scheduled_generator.search_draw_count,
    }, adapter=scheduled_adapter, experiment="SCHEDULES_PARITY")


def test_adaptive_coverage_matches_geometric_on_e1(benchmark):
    """Fewer probes must not drop instances the fixed ladder can solve."""
    dataset = make_loan_dataset(600, direct_bias=1.2, recourse_gap=1.0,
                                random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    rejected = test.X[model.predict(test.X) == 0]

    def solve(schedule):
        generator = GrowingSpheresCounterfactual(
            BatchModelAdapter(model, cache=False), train.X,
            constraints=constraints, random_state=0, schedule=schedule,
        )
        return generator.generate_batch_aligned(rejected)

    geometric = solve(None)
    adaptive = benchmark.pedantic(lambda: solve(AdaptiveSchedule()),
                                  rounds=1, iterations=1)
    solved_geometric = sum(r is not None for r in geometric)
    solved_adaptive = sum(r is not None for r in adaptive)
    assert solved_adaptive >= solved_geometric
    distances_geometric = float(np.mean([r.distance for r in geometric if r]))
    distances_adaptive = float(np.mean([r.distance for r in adaptive if r]))
    # Probing coarser rungs may cost some distance, but not a blow-up.
    assert distances_adaptive <= 1.5 * distances_geometric
    record(benchmark, {
        "coverage_geometric": solved_geometric / len(rejected),
        "coverage_adaptive": solved_adaptive / len(rejected),
        "mean_distance_geometric": distances_geometric,
        "mean_distance_adaptive": distances_adaptive,
    }, experiment="SCHEDULES_COVERAGE")
