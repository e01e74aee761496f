"""Persistent counterfactual store: the PR's acceptance criteria.

Two claims are asserted here:

* a warm-start :class:`~fairexp.explanations.AuditSession` sweep in a
  **fresh process** performs **0 engine predict calls** — every population's
  counterfactual matrix is served from the on-disk store a cold process
  published, and the audit numbers are identical;
* process sharding (what a GIL-holding predict backend selects) produces
  **bitwise-identical** counterfactual matrices to the sequential path
  under fixed seeds (the shard specs rebuild the generator in each worker,
  and with an int seed a row's candidate offsets depend only on the seed,
  the draws it has consumed and its rung — never on which other rows share
  its shard).

Cold and warm wall times are recorded into ``BENCH_STORE.json``, and the
warm sweep must beat the cold one: a store that reads back slower than the
engine recomputes does not pay for itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import record

from fairexp.explanations import (
    AuditSession,
    CallablePredictBackend,
    CounterfactualEngine,
    CounterfactualStore,
    GrowingSpheresCounterfactual,
)

from store_workload import build_session, run_sweep, timed_sweep

WORKLOAD_SCRIPT = Path(__file__).resolve().parent / "store_workload.py"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _fresh_process_sweep(store_dir) -> dict:
    """Run the sweep in a brand-new interpreter against ``store_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("FAIREXP_STORE_DIR", None)  # the argument, not the env, decides
    completed = subprocess.run(
        [sys.executable, str(WORKLOAD_SCRIPT), str(store_dir)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def _payload_compression(store_dir) -> dict:
    """Bytes-on-disk of the store's (compressed) payloads vs the uncompressed
    npz equivalent of the same arrays — the satellite's recorded saving."""
    import io

    compressed = uncompressed = 0
    for payload_path in Path(store_dir).glob("*.npz"):
        compressed += payload_path.stat().st_size
        with np.load(payload_path) as payload:
            buffer = io.BytesIO()
            np.savez(buffer, **{key: payload[key] for key in payload.files})
            uncompressed += len(buffer.getvalue())
    return {
        "store_payload_bytes_compressed": compressed,
        "store_payload_bytes_uncompressed": uncompressed,
        "store_compression_ratio": uncompressed / max(compressed, 1),
    }


def test_warm_start_sweep_has_zero_engine_predict_calls(benchmark, tmp_path):
    store_dir = tmp_path / "store"

    # Cold pass: an empty store, every population pays its engine passes.
    cold = timed_sweep(store_dir)
    assert cold["engine_predict_calls"] > 0
    assert cold["store_row_hits"] == 0
    assert cold["store_entries"] >= 1
    compression = _payload_compression(store_dir)
    assert compression["store_compression_ratio"] > 1.0  # compressed on disk

    # Warm pass, FRESH process: zero engine predict calls, identical numbers.
    warm = benchmark.pedantic(lambda: _fresh_process_sweep(store_dir),
                              rounds=1, iterations=1)
    assert warm["engine_predict_calls"] == 0, (
        f"warm start still paid {warm['engine_predict_calls']} engine predict calls"
    )
    assert warm["store_row_hits"] > 0
    for key in ("burden_gap", "nawb_gap", "precof_sensitive_change_rate"):
        assert warm[key] == cold[key], key

    warm_speedup = (cold["sweep_wall_time_seconds"]
                    / max(warm["sweep_wall_time_seconds"], 1e-9))
    assert warm_speedup > 1.0, f"warm sweep is slower than cold ({warm_speedup:.2f}x)"
    record(benchmark, {
        "cold_wall_time_seconds": cold["sweep_wall_time_seconds"],
        "warm_wall_time_seconds": warm["sweep_wall_time_seconds"],
        "warm_speedup": warm_speedup,
        "cold_engine_predict_calls": cold["engine_predict_calls"],
        "warm_engine_predict_calls": warm["engine_predict_calls"],
        "warm_store_row_hits": warm["store_row_hits"],
        "warm_store_bytes_read": warm.get("store_bytes_read", 0),
        "store_entries": warm["store_entries"],
        **compression,
    }, experiment="STORE")


def test_corrupted_store_recovers_by_recomputing(tmp_path):
    """Damage every manifest after the cold pass: the warm process must fall
    back to recomputation (non-zero engine calls) yet report the same gaps."""
    store_dir = tmp_path / "store"
    cold = timed_sweep(store_dir)
    for manifest in Path(store_dir).glob("*.json"):
        manifest.write_text("{ definitely not json")
    recovered = _fresh_process_sweep(store_dir)
    assert recovered["engine_predict_calls"] > 0
    for key in ("burden_gap", "nawb_gap", "precof_sensitive_change_rate"):
        assert recovered[key] == cold[key], key


def test_process_executor_sharding_bitwise_equal(benchmark, tmp_path):
    session_seq, dataset, subset = build_session(tmp_path / "s1", n_jobs=1)
    rejected = subset.X[session_seq.predict(subset.X) == 0]
    sequential = session_seq.engine.generate_aligned(rejected)

    # A pure-Python predict callable holds the GIL, so n_jobs=2 picks processes.
    model, reference = session_seq.adapter.model, session_seq.generator
    generator = GrowingSpheresCounterfactual(
        model, reference.background, constraints=reference.constraints, random_state=0)
    session_proc = AuditSession(generator, store=tmp_path / "s2", n_jobs=2,
                                backend=CallablePredictBackend(model.predict))
    sharded = benchmark.pedantic(
        lambda: session_proc.engine.generate_aligned(rejected), rounds=1, iterations=1,
    )
    assert session_proc.pool.created_counts["process"] == 1

    assert len(sharded) == len(sequential)
    for seq, par in zip(sequential, sharded):
        assert (seq is None) == (par is None)
        if seq is None:
            continue
        assert np.array_equal(seq.counterfactual, par.counterfactual)
        assert seq.changed_features == par.changed_features
        assert seq.distance == par.distance
    record(benchmark, {
        "n_instances": len(rejected),
        "sequential_predict_calls": session_seq.predict_call_count,
        "process_sharded_predict_calls": session_proc.predict_call_count,
    }, experiment="STORE_PROCESS")


def test_store_population_results_survive_round_trip(tmp_path):
    """The store path feeds audits bit-identical results: a sweep through a
    freshly reloaded store entry equals the in-memory originals row by row."""
    session, dataset, subset = build_session(tmp_path / "store")
    run_sweep(session, dataset, subset)
    [fingerprint] = CounterfactualStore(tmp_path / "store").entries()
    reloaded = CounterfactualStore(tmp_path / "store").load(fingerprint)
    original = session._populations[session.population_key(subset.X)].batch
    assert np.array_equal(reloaded.indices, original.indices)
    for warm, result in zip(reloaded, original):
        if result is None:
            assert warm is None
            continue
        assert np.array_equal(warm.counterfactual, result.counterfactual)
        assert warm.distance == result.distance
        assert warm.changed_features == result.changed_features
