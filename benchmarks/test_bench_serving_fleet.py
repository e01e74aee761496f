"""Fleet-serving acceptance benchmarks (BENCH_SERVING_FLEET.json trajectory).

The multi-model serving PR's claims, asserted against a real loopback HTTP
server hosting THREE exported compute graphs at once:

* **Sustained load**: hundreds of concurrent :class:`AuditSession`\\ s,
  spread across the three graphs, score through ONE fleet server with
  hash-routed wire calls — throughput, per-session p50/p99 latency and the
  client-side coalescing factor are recorded, and every session's
  counterfactuals AND predict-row accounting are bitwise/exactly equal to
  its in-process twin's;
* **Shed/retry accounting**: a server wedged down to ``max_inflight=1``
  sheds concurrent batches; the clients' bounded retry ladders land every
  batch eventually and per-session row accounting still sums exactly —
  shed-then-retry never double-counts or drops a row.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from conftest import record

from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    CoalescingScoringClient,
    ComputeGraph,
    GrowingSpheresCounterfactual,
    RemoteScoringBackend,
    ScoringServer,
    export_model,
    serve_fleet,
)
from fairexp.models import (
    DecisionTreeClassifier,
    LogisticRegression,
    RandomForestClassifier,
)

N_FLEET_SESSIONS = 210          # sustained-load sessions (>= 200, 70/graph)
N_WORKERS = 24                  # concurrently live sessions at any moment
ROWS_PER_SESSION = 1            # tiny populations keep the run minutes-free


def _fleet_workload(n_samples=600):
    """Three model families over one loan dataset: the fleet under test."""
    dataset = make_loan_dataset(n_samples, direct_bias=1.2, recourse_gap=1.0,
                                random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    models = [
        LogisticRegression(n_iter=800, random_state=0).fit(train.X, train.y),
        DecisionTreeClassifier(max_depth=5, random_state=0).fit(train.X, train.y),
        RandomForestClassifier(n_estimators=5, max_depth=4,
                               random_state=0).fit(train.X, train.y),
    ]
    graphs = [export_model(model) for model in models]
    rejected = [test.X[model.predict(test.X) == 0] for model in models]
    assert all(len(r) >= N_FLEET_SESSIONS // len(models) for r in rejected)
    return train, constraints, models, graphs, rejected


def _generator(train, model, constraints):
    # Small search parameters: each 1-row session issues a handful of
    # predict batches, so 210 sessions stay a sustained stream rather than
    # a multi-minute soak.
    return GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                        n_samples_per_shell=24, max_shells=6,
                                        random_state=0)


def _session_plan(models, rejected):
    """(model_index, population) per session, round-robin across graphs."""
    plan = []
    for k in range(N_FLEET_SESSIONS):
        m = k % len(models)
        start = (k // len(models)) * ROWS_PER_SESSION
        population = rejected[m][start:start + ROWS_PER_SESSION]
        plan.append((m, population))
    return plan


class _SlowGraph(ComputeGraph):
    """A deliberately slow graph (a few ms per batch, sleeping off-GIL):
    the pure-NumPy graph scores in microseconds, far too fast for 12
    clients to overlap inside the admission window — the sleep models a
    realistically loaded scorer so the gate actually engages."""

    def run(self, X):
        time.sleep(0.004)
        return super().run(X)

    __call__ = run


class _PatientClient(CoalescingScoringClient):
    """Rides out a long shed streak: 12 retries from a 5 ms base delay."""

    MAX_RETRIES = 12
    BACKOFF = 0.005


def _run_session(train, model, constraints, population, backend):
    with AuditSession(_generator(train, model, constraints),
                      backend=backend) as session:
        results = session.counterfactuals_for(population,
                                              np.arange(len(population)))
        rows = session.predict_row_count
    return results, rows


def _reference_runs(train, constraints, models, plan):
    """In-process twins: expected counterfactuals and row counts, session
    by session (sequential NumPy — the parity/accounting oracle)."""
    references = []
    for m, population in plan:
        references.append(_run_session(train, models[m], constraints,
                                       population, None))
    return references


def _assert_matches_reference(outputs, rows, references):
    for k, (reference_results, reference_rows) in enumerate(references):
        results_k, rows_k = outputs[k], rows[k]
        assert rows_k == reference_rows, (
            f"session {k}: {rows_k} rows scored, expected {reference_rows}")
        assert set(results_k) == set(reference_results)
        for i in reference_results:
            assert np.array_equal(results_k[i].counterfactual,
                                  reference_results[i].counterfactual)


def test_sustained_fleet_load_routes_and_accounts_exactly(benchmark):
    """>= 200 sessions over 3 graphs against ONE server: hash routing keeps
    every session bitwise-equal to its in-process twin, accounting stays
    exact, and the run's throughput / latency tail goes on record."""
    train, constraints, models, graphs, rejected = _fleet_workload()
    plan = _session_plan(models, rejected)
    references = _reference_runs(train, constraints, models, plan)

    with serve_fleet(graphs) as server:
        client = CoalescingScoringClient(server.url)

        def sustained_run():
            outputs = [None] * N_FLEET_SESSIONS
            rows = [0] * N_FLEET_SESSIONS
            latencies = [0.0] * N_FLEET_SESSIONS

            def run(k):
                m, population = plan[k]
                backend = RemoteScoringBackend(client, graph=graphs[m])
                start = time.perf_counter()
                try:
                    outputs[k], rows[k] = _run_session(
                        train, models[m], constraints, population, backend)
                finally:
                    backend.close()
                latencies[k] = time.perf_counter() - start

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=N_WORKERS) as executor:
                list(executor.map(run, range(N_FLEET_SESSIONS)))
            elapsed = time.perf_counter() - start
            return outputs, rows, latencies, elapsed

        outputs, rows, latencies, elapsed = benchmark.pedantic(
            sustained_run, rounds=1, iterations=1)
        server_stats = server.stats()

    # Bitwise parity and exact per-session accounting, all 210 sessions.
    _assert_matches_reference(outputs, rows, references)

    # Global accounting closes: every row crossed the wire exactly once and
    # the server booked all of them, graph by graph.
    assert client.wire_row_count == sum(rows)
    assert server_stats["rows"] == sum(rows)
    per_graph_rows = [
        sum(rows[k] for k in range(N_FLEET_SESSIONS) if plan[k][0] == m)
        for m in range(len(graphs))
    ]
    for graph, expected in zip(graphs, per_graph_rows):
        assert server_stats["graphs"][graph.signature()]["rows"] == expected

    total_batches = client.wire_call_count + client.coalesced_count
    record(benchmark, {
        "n_sessions": N_FLEET_SESSIONS,
        "n_graphs": len(graphs),
        "n_workers": N_WORKERS,
        "elapsed_seconds": elapsed,
        "throughput_sessions_per_second": N_FLEET_SESSIONS / elapsed,
        "latency_p50_seconds": float(np.percentile(latencies, 50)),
        "latency_p99_seconds": float(np.percentile(latencies, 99)),
        "wire_calls": client.wire_call_count,
        "wire_rows": client.wire_row_count,
        "caller_batches": total_batches,
        "coalescing_factor": total_batches / max(client.wire_call_count, 1),
        "shed_count": client.shed_count,
        "retry_count": client.retry_count,
        "server_peak_inflight": server_stats["peak_inflight"],
    }, experiment="SERVING_FLEET")


def test_shed_retry_keeps_per_session_rows_exact(benchmark):
    """A server wedged to max_inflight=1 sheds most of a 12-way concurrent
    wave; the retry ladders land every batch and the row accounting still
    sums exactly — per session, on the wire, and server-side."""
    train, constraints, models, graphs, rejected = _fleet_workload()
    model, graph = models[0], graphs[0]
    n_sessions = 12
    populations = [rejected[0][k:k + 1] for k in range(n_sessions)]
    references = [_run_session(train, model, constraints, populations[k], None)
                  for k in range(n_sessions)]

    slow_graph = _SlowGraph(graph.ops, n_features=graph.n_features,
                            source=graph.source)
    with ScoringServer([slow_graph], max_inflight=1) as server:
        # One PRIVATE client per session: a shared client's lane keeps at
        # most one wire call in flight (the leader's), which would never
        # trip the admission gate — independent clients genuinely race it.
        def overloaded_run():
            outputs = [None] * n_sessions
            rows = [0] * n_sessions
            clients = [None] * n_sessions
            barrier = threading.Barrier(n_sessions)

            def run(k):
                backend = RemoteScoringBackend(
                    _PatientClient(server.url, window=0.0), graph=slow_graph)
                clients[k] = backend.client
                barrier.wait(timeout=30)
                try:
                    outputs[k], rows[k] = _run_session(
                        train, model, constraints, populations[k], backend)
                finally:
                    backend.close()

            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(n_sessions)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            return outputs, rows, clients

        outputs, rows, clients = benchmark.pedantic(overloaded_run, rounds=1,
                                                    iterations=1)
        server_shed, server_rows = server.shed_count, server.row_count

    shed_total = sum(client.shed_count for client in clients)
    retry_total = sum(client.retry_count for client in clients)
    wire_rows_total = sum(client.wire_row_count for client in clients)
    wire_calls_total = sum(client.wire_call_count for client in clients)
    assert shed_total > 0, "the wedged server never shed a batch"
    assert retry_total == shed_total  # every shed was retried and landed
    _assert_matches_reference(outputs, rows, references)
    assert wire_rows_total == sum(rows)
    assert server_rows == sum(rows)
    assert server_shed == shed_total

    record(benchmark, {
        "n_sessions": n_sessions,
        "max_inflight": 1,
        "shed_count": shed_total,
        "retry_count": retry_total,
        "wire_calls": wire_calls_total,
        "wire_rows": wire_rows_total,
        "rows_per_session": rows,
    }, experiment="SERVING_FLEET_SHED")
