"""Scaling *curves* for the E1/E3/E5 trajectories (1x → 10x → 100x).

``BENCH_E1_E2.json`` (from ``test_bench_burden.py``) records the standard
600-sample configuration; this module grows that into wall-time scaling
curves: a **10x** point (6000 samples, 800 audited rows) and a **100x**
point (60000 samples, 8000 audited rows) for E1, plus 10x points for E3
(PreCoF) and E5 (group counterfactuals).  Every point is appended to the
experiment's ``BENCH_<experiment>_XL.json`` trajectory (see
``conftest.record``).

Two shape claims are asserted *across* curve points, not per run:

* predict **calls** grow with the number of search steps, not the number of
  audited rows — a 10x workload costs far fewer than 10x the predict calls
  (rows per call grow instead);
* wall time grows sub-quadratically in the row count: each 10x step in rows
  may cost at most ``MAX_STEP_GROWTH``x the previous point's wall time.
  Before the kernel layer the inner Python loops made the 100x point scale
  super-linearly in practice; the vectorized kernels keep the per-row cost
  flat.
"""

import time

from conftest import record

from fairexp.experiments import (
    run_e1_e2_burden_nawb,
    run_e3_precof,
    run_e5_group_counterfactuals,
)

SMALL = {"n_samples": 600, "audit_size": 80}
LARGE = {"n_samples": 6000, "audit_size": 800}
XLARGE = {"n_samples": 60000, "audit_size": 8000}

# One 10x step in rows may cost at most this factor in wall time.  Linear
# scaling is ~10x; the margin absorbs cache effects and CI timer noise while
# still rejecting the quadratic regime (a 10x step costing 100x).
MAX_STEP_GROWTH = 30.0
# Ratios of sub-second runs are noise; clamp the denominator.
MIN_TIMED_SECONDS = 0.05


def _timed(runner, **kwargs):
    """Run ``runner`` once, returning ``(results, wall_seconds)``."""
    start = time.perf_counter()
    results = runner(**kwargs)
    return results, time.perf_counter() - start


def test_e1_at_10x_samples(benchmark):
    small = run_e1_e2_burden_nawb(**SMALL)
    large = benchmark.pedantic(run_e1_e2_burden_nawb, kwargs=LARGE,
                               rounds=1, iterations=1)

    # The paper's qualitative claims hold at 10x scale.
    assert large["burden_gap_biased"] > 0.5
    assert large["nawb_gap_biased"] > 0.05
    assert abs(large["burden_gap_fair"]) < large["burden_gap_biased"] / 2

    # Lockstep batching: 10x rows must NOT cost 10x predict calls (the
    # whole point of the batched engine; calls scale with search steps).
    assert large["predict_calls_biased"] < 5 * small["predict_calls_biased"]
    assert large["predict_calls_biased"] < 200

    record(benchmark, {
        **{f"small_{key}": small[key]
           for key in ("predict_calls_biased", "burden_gap_biased",
                       "schedule_steps_biased", "schedule_draws_biased")},
        **{key: large[key] for key in large if "rendered" not in key},
        "scale_factor": LARGE["n_samples"] / SMALL["n_samples"],
        "predict_call_growth": (
            large["predict_calls_biased"] / max(small["predict_calls_biased"], 1)
        ),
    }, experiment="E1_E2_XL")


def test_e1_scaling_curve_to_100x(benchmark):
    """E1 wall time must scale sub-quadratically from 1x through 100x rows."""
    small, t_small = _timed(run_e1_e2_burden_nawb, **SMALL)
    large, t_large = _timed(run_e1_e2_burden_nawb, **LARGE)
    xl = benchmark.pedantic(run_e1_e2_burden_nawb, kwargs=XLARGE,
                            rounds=1, iterations=1)
    t_xl = benchmark.stats.stats.mean

    # The paper's qualitative claims survive at 100x scale.
    assert xl["burden_gap_biased"] > 0.5
    assert xl["nawb_gap_biased"] > 0.05
    assert abs(xl["burden_gap_fair"]) < xl["burden_gap_biased"] / 2

    # Predict-call flatness across the whole curve: 100x the rows costs a
    # bounded number of extra search steps, never 100x the calls.
    assert xl["predict_calls_biased"] < 5 * small["predict_calls_biased"]
    assert xl["predict_calls_biased"] < 250

    # Wall-time curve: each 10x step in rows stays well below quadratic
    # growth.  Asserted per step so a single pathological point fails even
    # when the other step is comfortably linear.
    assert t_large <= MAX_STEP_GROWTH * max(t_small, MIN_TIMED_SECONDS)
    assert t_xl <= MAX_STEP_GROWTH * max(t_large, MIN_TIMED_SECONDS)

    record(benchmark, {
        **{key: xl[key] for key in xl if "rendered" not in key},
        "scale_factor": XLARGE["n_samples"] / SMALL["n_samples"],
        "wall_time_1x_seconds": t_small,
        "wall_time_10x_seconds": t_large,
        "wall_time_100x_seconds": t_xl,
        "wall_time_step_growth_10x": t_large / max(t_small, MIN_TIMED_SECONDS),
        "wall_time_step_growth_100x": t_xl / max(t_large, MIN_TIMED_SECONDS),
        "predict_call_growth": (
            xl["predict_calls_biased"] / max(small["predict_calls_biased"], 1)
        ),
    }, experiment="E1_E2_XL")


def test_e3_scaling_curve_at_10x(benchmark):
    """E3 (PreCoF) at 10x rows: same bias findings, sub-quadratic wall time."""
    small, t_small = _timed(run_e3_precof, **SMALL)
    large = benchmark.pedantic(run_e3_precof, kwargs=LARGE,
                               rounds=1, iterations=1)
    t_large = benchmark.stats.stats.mean

    # Explicit and implicit (proxy) bias signals survive at scale.
    assert large["explicit_sensitive_change_rate"] > 0.1
    assert large["implicit_top_attribute"] in {
        "occupation_score", "hours_per_week", "education_years", "capital_gain",
    }
    assert large["implicit_top_gap"] > 0.1

    # Curve claims: predict calls and wall time both stay far below 10x.
    assert large["predict_calls_explicit"] < 5 * small["predict_calls_explicit"]
    assert t_large <= MAX_STEP_GROWTH * max(t_small, MIN_TIMED_SECONDS)

    record(benchmark, {
        **{key: large[key] for key in large if "rendered" not in key},
        "scale_factor": LARGE["n_samples"] / SMALL["n_samples"],
        "wall_time_1x_seconds": t_small,
        "wall_time_10x_seconds": t_large,
        "wall_time_step_growth_10x": t_large / max(t_small, MIN_TIMED_SECONDS),
        "predict_call_growth": (
            large["predict_calls_explicit"]
            / max(small["predict_calls_explicit"], 1)
        ),
    }, experiment="E3_XL")


def test_e5_scaling_curve_at_10x(benchmark):
    """E5 (group counterfactuals) at 10x rows: summaries hold, wall time sub-quadratic."""
    small, t_small = _timed(run_e5_group_counterfactuals,
                            n_samples=SMALL["n_samples"])
    large = benchmark.pedantic(run_e5_group_counterfactuals,
                               kwargs={"n_samples": LARGE["n_samples"]},
                               rounds=1, iterations=1)
    t_large = benchmark.stats.stats.mean

    # Group-level findings survive at scale.
    assert large["globe_cost_gap"] > 0.2
    assert 1 <= large["cftree_n_leaves"] <= 8
    assert large["recourse_set_coverage"] > 0.3

    # Curve claims: predict calls and wall time both stay far below 10x.
    assert large["predict_calls"] < 5 * small["predict_calls"]
    assert t_large <= MAX_STEP_GROWTH * max(t_small, MIN_TIMED_SECONDS)

    record(benchmark, {
        **{key: large[key] for key in large if "rendered" not in key},
        "scale_factor": LARGE["n_samples"] / SMALL["n_samples"],
        "wall_time_1x_seconds": t_small,
        "wall_time_10x_seconds": t_large,
        "wall_time_step_growth_10x": t_large / max(t_small, MIN_TIMED_SECONDS),
        "predict_call_growth": (
            large["predict_calls"] / max(small["predict_calls"], 1)
        ),
    }, experiment="E5_XL")
