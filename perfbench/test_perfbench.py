"""Tests of the audit benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading

import pytest

import run
import spans

run.import_fairexp()

import audits  # noqa: E402  (needs fairexp on the path)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = run.load_json(run.ROOT / "BENCHMARK.json")
SPEC = run.load_json(run.HERE / "spec.json")


def span(id_, start, end, parent=None, name="x"):
    return spans.Span(id_, name, start, end, parent)


# ---------------------------------------------------------------- self time
def test_self_time_subtracts_nested_children_only_once():
    tree = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),  # grandchild: counts against span 1 only
        span(3, 5.0, 7.0, parent=0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0})


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    tree = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 6.0, parent=0),
        span(2, 4.0, 8.0, parent=0),   # overlaps span 1 on [4, 6]
        span(3, 5.0, 5.5, parent=0),   # inside the union already
        span(4, 9.0, 12.0, parent=0),  # only [9, 10] lies inside the parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert spans.covered_length([(1, 6), (4, 8), (5, 5.5)], 0, 10) == pytest.approx(7.0)
    assert spans.covered_length([], 0, 10) == 0.0


def test_tracer_parents_stay_on_their_own_thread():
    tracer = spans.Tracer()

    def other_thread():
        with tracer.span("other"):
            pass

    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["other"].parent is None  # opened while "outer" was open elsewhere


def test_instrument_restores_every_patched_entry_point():
    from fairexp.core import BurdenExplainer
    from fairexp.explanations import ComputeGraph, counterfactual, resolve_kernels

    kernel_set = resolve_kernels(None)
    before = (BurdenExplainer.__dict__["explain"], ComputeGraph.__dict__["__call__"],
              counterfactual.lockstep_candidate_search, kernel_set.project_candidates)
    with spans.instrument(spans.Tracer(), kernel_set):
        assert BurdenExplainer.__dict__["explain"] is not before[0]
    after = (BurdenExplainer.__dict__["explain"], ComputeGraph.__dict__["__call__"],
             counterfactual.lockstep_candidate_search, kernel_set.project_candidates)
    assert after == before


# -------------------------------------------------------------------- names
def test_declared_names_are_well_formed_and_match_the_spec():
    declared = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in declared)
    layer_metrics = [m for layer in SPEC["layers"].values() for m in layer["metrics"]]
    assert layer_metrics == [m["name"] for m in BENCH["per_layer"]]
    assert list(SPEC["end_to_end"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert list(SPEC["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    assert set(audits.WORKLOADS) == set(SPEC["workloads"])


def test_layer_metrics_emit_exactly_the_declared_per_layer_names():
    emitted = set(spans.layer_metrics([], 1)) | {"trace.overhead_ratio"}
    assert emitted == {m["name"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_remote_run_is_correct_and_emits_declared_names(trace):
    result = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "audit-remote",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = result.stdout.strip().splitlines()
    stamp = json.loads(lines[0].removeprefix("perfbench: "))
    assert {"nproc", "numpy", "kernel_path", "seed"} <= set(stamp)
    outcome = json.loads(lines[-1])
    assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
    assert outcome["correct"] and outcome["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert outcome["metrics"] == {
        m["name"]: {"value": outcome["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    if trace:
        assert outcome["metrics"]["serving.score_samples"]["value"] >= run.MIN_SCORE_SAMPLES


def test_the_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


# --------------------------------------------------------------- workloads
def test_seed_zero_cold_pass_reproduces_experiment_e1(tmp_path):
    from fairexp.experiments import run_e1_e2_burden_nawb

    sizes = SPEC["workloads"]["audit-cold"]
    workload = audits.ColdAudit(0, tmp_path, n_samples=sizes["n_samples"],
                                audit_size=sizes["audit_size"])
    workload.run_pass()
    expected = run_e1_e2_burden_nawb(sizes["n_samples"], sizes["audit_size"])
    for (label, _, _), audit in zip(audits.POPULATIONS, workload.last):
        nawb = audit.nawb
        assert audit.burden.gap == expected[f"burden_gap_{label}"]
        assert audit.burden.ratio == expected[f"burden_ratio_{label}"]
        assert nawb.gap == expected[f"nawb_gap_{label}"]
        assert (nawb.protected.false_negative_rate - nawb.reference.false_negative_rate
                == expected[f"fnr_gap_{label}"])
        assert audit.predict_calls == expected[f"predict_calls_{label}"]
        assert audit.engine_predict_calls == expected[f"engine_predict_calls_{label}"]
    assert workload.check() == []
