"""Exact gate on the benchmark's deterministic per-layer counts.

``benchmarks/COUNTERS.json`` commits, per ``perfbench`` workload, the counts
one traced pass reports that depend only on the seed: lockstep waves and
candidate draws, engine predict calls, projection and prefix-trial kernel
calls, predicted rows, store saves, rows loaded and hit ratio, and rows
sent over the scoring wire.  This test runs one traced pass of each
workload through ``perfbench/audits.py`` and ``perfbench/spans.py`` — the
same code the benchmark runs — and asserts every committed count exactly.

Seconds stay out of the gate (host speed drifts; the benchmark's bounds
cover time), and so do counts that depend on timing, such as the number of
coalesced wire calls.  A change that moves a count on purpose updates
``COUNTERS.json`` and says why.
"""

import json
import sys
from pathlib import Path

import pytest

from fairexp.explanations import resolve_kernels

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
COUNTERS = json.loads((HERE / "COUNTERS.json").read_text())
SIZES = json.loads((PERFBENCH / "spec.json").read_text())["workloads"]


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's ``audits`` and ``spans`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import audits
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return audits, spans


@pytest.mark.parametrize("workload", sorted(COUNTERS["workloads"]))
def test_traced_counts_match_committed(workload, perfbench, tmp_path):
    audits, spans = perfbench
    expected = COUNTERS["workloads"][workload]
    built = audits.WORKLOADS[workload](COUNTERS["seed"], tmp_path,
                                       n_samples=SIZES[workload]["n_samples"],
                                       audit_size=SIZES[workload]["audit_size"])
    try:
        tracer = spans.Tracer()
        with spans.instrument(tracer, resolve_kernels(None)):
            built.run_pass()
        built.tidy()
        assert built.violations == []
        metrics = spans.layer_metrics(tracer.spans, 1,
                                      serving_counters=built.serving_counters)
    finally:
        built.close()
    assert {name: metrics[name] for name in expected} == expected
