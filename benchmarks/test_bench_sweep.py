"""Sweep orchestration benchmarks: plan scaling + cold/warm execution.

Two trajectory points feed ``BENCH_SWEEP.json``:

* ``SWEEP/plan`` — planning the full registered design space (every spec's
  cross product, pruned through the registry compatibility checks) stays
  cheap: it builds no workloads, so its cost is pure combinatorics.
* ``SWEEP`` — a small E1/E2 sub-design executed cold into a persistent
  store, then resumed: the resumed pass must replay every cell at **zero
  engine predict calls** (the acceptance criterion of the resume path),
  and both sweeps' accounting lands in the trajectory so the warm/cold
  wall-time ratio is tracked over time.
"""

from conftest import record

from fairexp.sweep import SweepRegistry, run_sweep, sweep_plan

SELECTION = {
    "where": {"explainer": ["growing_spheres", "random_search"],
              "schedule": ["geometric"],
              "backend": ["numpy"]},
    "overrides": {"n_samples": 300, "audit_size": 24},
}


def test_plan_full_design_space(benchmark):
    plan = benchmark.pedantic(sweep_plan, rounds=3, iterations=1)
    summary = plan.summary()
    # Exhaustive partition over every registered spec's cross product.
    assert summary["raw_cells"] == sum(
        spec.raw_size() for spec in SweepRegistry.specs()
    )
    assert summary["emitted_cells"] + summary["pruned_cells"] == summary["raw_cells"]
    assert summary["emitted_cells"] >= len(SweepRegistry.ids())
    assert all(cell.reasons for cell in plan.pruned)
    record(benchmark, {"n_experiments": len(SweepRegistry.ids()), **summary},
           experiment="SWEEP/plan")


def test_cold_then_warm_sweep(benchmark, tmp_path):
    store = tmp_path / "store"
    cold = run_sweep(["E1/E2"], store=store, **SELECTION)
    assert cold.summary()["engine_predict_calls"] > 0

    warm = benchmark.pedantic(
        lambda: run_sweep(["E1/E2"], store=store, resume=True, **SELECTION),
        rounds=1, iterations=1,
    )
    warm_summary = warm.summary()
    assert warm_summary["replayed_cells"] == len(warm.cells) == 2
    assert warm_summary["diverged_cells"] == 0
    assert warm_summary["engine_predict_calls"] == 0  # fully store-served
    assert warm_summary["store_row_hits"] > 0

    record(benchmark, {
        "cold_wall_time_seconds": cold.wall_time_seconds,
        "warm_wall_time_seconds": warm.wall_time_seconds,
        "cold_engine_predict_calls": cold.summary()["engine_predict_calls"],
        "warm_engine_predict_calls": warm_summary["engine_predict_calls"],
        "warm_store_row_hits": warm_summary["store_row_hits"],
        "emitted_cells": len(warm.cells),
    }, experiment="SWEEP")
