"""Serving-layer acceptance benchmarks (BENCH_SERVING.json trajectory).

Two claims about the serving layer are asserted here:

* **Coalescing**: N = 4 concurrent sessions scoring through ONE shared
  :class:`~fairexp.explanations.CoalescingScoringClient` issue strictly
  fewer wire calls than the same 4 sessions with private clients — the
  concurrent batches landing inside the dispatch window are stacked into
  shared ``POST /score`` calls;
* **Accounting**: per-session predict-row accounting is untouched by the
  stacking — each coalescing session reports exactly the rows its
  independent twin reports, and the totals match.

Everything runs against a real loopback HTTP scoring server over the
exported compute graph — the identical serving path
``python -m fairexp serve`` runs in a separate process (CI exercises that
variant via ``benchmarks/serving_workload.py``).
"""

import threading

import numpy as np

from conftest import record

from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    CoalescingScoringClient,
    GrowingSpheresCounterfactual,
    RemoteScoringBackend,
    export_model,
    serve_fleet,
)
from fairexp.models import LogisticRegression

N_SESSIONS = 4
ROWS_PER_SESSION = 6


def _workload(n_samples=400):
    dataset = make_loan_dataset(n_samples, direct_bias=1.2, recourse_gap=1.0,
                                random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1000, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    rejected = test.X[model.predict(test.X) == 0]
    # One distinct population slice per session, so no cross-session result
    # sharing can hide predict traffic.
    populations = [rejected[k * ROWS_PER_SESSION:(k + 1) * ROWS_PER_SESSION]
                   for k in range(N_SESSIONS)]
    assert all(len(p) == ROWS_PER_SESSION for p in populations)
    return train, model, constraints, populations


def _generator(train, model, constraints):
    return GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                        random_state=0)


def _run_session(train, model, constraints, population, backend):
    """One audit session's engine pass through the given predict backend."""
    with AuditSession(_generator(train, model, constraints),
                      backend=backend) as session:
        results = session.counterfactuals_for(population,
                                              np.arange(len(population)))
        rows = session.predict_row_count
    return results, rows


def test_coalescing_sessions_issue_fewer_wire_calls(benchmark):
    train, model, constraints, populations = _workload()
    graph = export_model(model)

    with serve_fleet([graph]) as server:
        # Independent baseline: each session scores through its own client,
        # so every predict batch is its own wire call.
        independent_clients = [
            CoalescingScoringClient(server.url, window=0.0)
            for _ in range(N_SESSIONS)
        ]
        independent_rows = []
        independent_results = []
        for k in range(N_SESSIONS):
            backend = RemoteScoringBackend(independent_clients[k], graph=graph)
            results, rows = _run_session(train, model, constraints,
                                         populations[k], backend)
            backend.close()
            independent_results.append(results)
            independent_rows.append(rows)
        independent_wire_calls = sum(c.wire_call_count
                                     for c in independent_clients)

        # Coalescing run: the same four sessions, concurrent, one shared
        # client — batches landing in the window share wire calls.
        def coalesced_run():
            client = CoalescingScoringClient(server.url, window=0.25)
            outputs = [None] * N_SESSIONS
            rows = [0] * N_SESSIONS
            barrier = threading.Barrier(N_SESSIONS)

            def run(k):
                backend = RemoteScoringBackend(client, graph=graph)
                barrier.wait(timeout=30)
                try:
                    outputs[k], rows[k] = _run_session(
                        train, model, constraints, populations[k], backend)
                finally:
                    # Leaving the window: later dispatchers must not wait
                    # for a session that already finished its sweep.
                    backend.close()

            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(N_SESSIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            return client, outputs, rows

        client, outputs, coalesced_rows = benchmark.pedantic(
            coalesced_run, rounds=1, iterations=1)

    # (a) strictly fewer wire calls than the independent sessions issued.
    assert 0 < client.wire_call_count < independent_wire_calls, (
        f"coalesced: {client.wire_call_count} wire calls, "
        f"independent: {independent_wire_calls}"
    )
    assert client.coalesced_count > 0

    # (b) identical audit results, session by session.
    for k in range(N_SESSIONS):
        assert set(outputs[k]) == set(independent_results[k])
        for i in independent_results[k]:
            assert np.array_equal(outputs[k][i].counterfactual,
                                  independent_results[k][i].counterfactual)

    # (c) per-session row accounting is untouched by the stacking: each
    # coalescing session reports its independent twin's rows, the totals
    # match, and the shared client's wire rows account for every row once.
    assert coalesced_rows == independent_rows
    assert sum(coalesced_rows) == sum(independent_rows)
    assert client.wire_row_count == sum(coalesced_rows)

    record(benchmark, {
        "n_sessions": N_SESSIONS,
        "independent_wire_calls": independent_wire_calls,
        "coalesced_wire_calls": client.wire_call_count,
        "coalescing_factor": independent_wire_calls / max(client.wire_call_count, 1),
        "batches_coalesced": client.coalesced_count,
        "wire_rows": client.wire_row_count,
        "rows_per_session": coalesced_rows,
    }, experiment="SERVING")

