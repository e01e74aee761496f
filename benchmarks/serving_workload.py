"""CI smoke for the out-of-process serving path — importable and runnable.

Not a test module.  Where ``benchmarks/test_bench_serving.py`` runs the
scoring server on an in-process thread, this script exercises the REAL
deployment shape: it exports the E1 loan model's compute graph to an
``.npz`` archive, launches ``python -m fairexp serve --graph …`` as a
separate process (which therefore scores without ever importing the
training classes it doesn't have in memory), and asserts over the loopback
wire that

* remote predictions are **bitwise-equal** to in-process ``model.predict``;
* 4 concurrent callers sharing one coalescing client issue **strictly
  fewer** wire calls than their 4 sequential independent counterparts,
  with per-caller row accounting intact.

It then relaunches the server as a TWO-graph fleet
(``--graph a.npz --graph b.npz``) and asserts cross-graph routing
correctness: batches routed by each graph's content hash come back
bitwise-equal to THAT graph's model (the two models disagree on part of
the matrix, so a misroute cannot cancel out), a header-less request is
refused, and the server's ``/stats`` books each graph's rows separately.

As a script it prints one JSON object with the parity/coalescing numbers
and appends the same points to ``BENCH_SERVING.json`` /
``BENCH_SERVING_FLEET_SUBPROCESS.json`` next to the benchmarks'
trajectories (CI uploads the artifact directory).  Loopback only: the
server binds 127.0.0.1 and no external network is touched.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

import numpy as np

from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    CoalescingScoringClient,
    RemoteScoringBackend,
    export_model,
)
from fairexp.models import DecisionTreeClassifier, LogisticRegression

N_CALLERS = 4


def build_workload(n_samples: int = 500):
    """The E1 loan workload: two fitted models + the matrix to score."""
    dataset = make_loan_dataset(n_samples, direct_bias=1.2, recourse_gap=1.0,
                                random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1000, random_state=0).fit(train.X, train.y)
    tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(train.X,
                                                                   train.y)
    return model, tree, test.X


def launch_server(graph_paths) -> tuple[subprocess.Popen, str]:
    """Start ``python -m fairexp serve`` over one or more ``.npz`` archives
    and return (process, base URL)."""
    if isinstance(graph_paths, str):
        graph_paths = [graph_paths]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "fairexp", "serve"]
    for path in graph_paths:
        argv += ["--graph", path]
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    # First line is the launcher contract ("serving … on <url>"); the
    # per-graph hash lines that follow are informational.
    line = process.stdout.readline().strip()
    if not line or process.poll() is not None:
        raise RuntimeError(f"scoring server failed to start: {line!r}")
    return process, line.rsplit(" ", 1)[-1]


def run_checks(url: str, model, graph, X: np.ndarray) -> dict:
    """Parity + coalescing assertions against a live server hosting
    ``graph`` (``model``'s export); numbers returned."""
    reference = np.asarray(model.predict(X))

    # Bitwise parity over the wire.
    solo = RemoteScoringBackend(CoalescingScoringClient(url, window=0.0),
                                graph=graph)
    remote = solo.predict(X)
    assert np.array_equal(remote, reference), "remote labels diverge from model.predict"
    solo.close()

    # Independent baseline: sequential callers, private clients.
    slices = np.array_split(np.arange(X.shape[0]), N_CALLERS)
    independent_clients = [CoalescingScoringClient(url, window=0.0)
                           for _ in range(N_CALLERS)]
    independent_rows = []
    for k, rows in enumerate(slices):
        backend = RemoteScoringBackend(independent_clients[k], graph=graph)
        for start in range(0, len(rows), 8):  # several batches per caller
            backend.predict(X[rows[start:start + 8]])
        independent_rows.append(backend.row_count)
        backend.close()
    independent_wire_calls = sum(c.wire_call_count for c in independent_clients)

    # Coalescing run: the same batches, concurrent callers, one client.
    client = CoalescingScoringClient(url, window=0.25)
    backends = [RemoteScoringBackend(client, graph=graph)
                for _ in range(N_CALLERS)]
    barrier = threading.Barrier(N_CALLERS)
    failures: list[BaseException] = []

    def run(k):
        try:
            barrier.wait(timeout=30)
            rows = slices[k]
            for start in range(0, len(rows), 8):
                out = backends[k].predict(X[rows[start:start + 8]])
                assert np.array_equal(out, reference[rows[start:start + 8]])
        except BaseException as error:  # noqa: BLE001 - surfaced below
            failures.append(error)
        finally:
            backends[k].close()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(N_CALLERS)]
    start_time = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - start_time
    if failures:
        raise failures[0]

    coalesced_rows = [backend.row_count for backend in backends]
    assert 0 < client.wire_call_count < independent_wire_calls, (
        f"coalescing did not reduce wire calls: {client.wire_call_count} vs "
        f"{independent_wire_calls}"
    )
    assert coalesced_rows == independent_rows, "per-caller row accounting drifted"
    assert client.wire_row_count == sum(coalesced_rows)

    return {
        "experiment": "SERVING_SUBPROCESS",
        "n_rows_scored": int(X.shape[0]),
        "parity_bitwise": True,
        "independent_wire_calls": independent_wire_calls,
        "coalesced_wire_calls": client.wire_call_count,
        "coalescing_factor": independent_wire_calls / max(client.wire_call_count, 1),
        "rows_per_caller": coalesced_rows,
        "coalesced_wall_seconds": elapsed,
    }


def run_fleet_checks(url: str, fleet: dict, X: np.ndarray) -> dict:
    """Cross-graph routing assertions against a live 2-graph fleet server.

    ``fleet`` maps each graph to its source model; the models disagree on
    part of ``X``, so a misrouted batch cannot come back bitwise-correct.
    """
    graphs = list(fleet)
    references = {graph: np.asarray(model.predict(X))
                  for graph, model in fleet.items()}
    assert not np.array_equal(references[graphs[0]], references[graphs[1]]), \
        "fleet models agree everywhere; routing errors would be invisible"

    client = CoalescingScoringClient(url, window=0.0)
    rows_routed = {}
    for graph in graphs:
        backend = RemoteScoringBackend(client, graph=graph)
        out = backend.predict(X)
        assert np.array_equal(out, references[graph]), (
            f"fleet misroute: labels for {graph.source} diverge from its model"
        )
        rows_routed[graph.signature()] = backend.row_count
        backend.close()

    # A fleet must refuse to guess: a request naming no graph is a 400.
    payload = io.BytesIO()
    np.save(payload, X[:4], allow_pickle=False)
    headerless = urllib.request.Request(f"{url}/score", data=payload.getvalue(),
                                        method="POST")
    try:
        urllib.request.urlopen(headerless, timeout=10).close()
        raise AssertionError("fleet server accepted a header-less request")
    except urllib.error.HTTPError as error:
        detail = error.read().decode(errors="replace")
        assert error.code == 400 and "X-Fairexp-Graph" in detail, detail

    # Server-side /stats books each graph's rows separately.
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as reply:
        stats = json.loads(reply.read().decode("utf-8"))
    for signature, rows in rows_routed.items():
        assert stats["graphs"][signature]["rows"] == rows, (
            f"/stats rows for {signature[:12]} drifted"
        )

    return {
        "experiment": "SERVING_FLEET_SUBPROCESS",
        "n_graphs": len(graphs),
        "n_rows_per_graph": int(X.shape[0]),
        "routing_bitwise": True,
        "headerless_refused": True,
        "server_requests": stats["requests"],
        "server_rows": stats["rows"],
    }


def main() -> dict:
    """Export, serve out of process, verify; returns the recorded points."""
    model, tree, X = build_workload()
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "e1_model.npz")
        model_graph = export_model(model)
        model_graph.save(graph_path)
        process, url = launch_server(graph_path)
        try:
            point = run_checks(url, model, model_graph, X)
        finally:
            process.terminate()
            process.wait(timeout=30)

        # Same archives, fleet shape: one server process, two graphs,
        # hash-routed requests.
        tree_path = os.path.join(tmp, "e1_tree.npz")
        tree_graph = export_model(tree)
        tree_graph.save(tree_path)
        process, url = launch_server([graph_path, tree_path])
        try:
            fleet_point = run_fleet_checks(
                url, {model_graph: model, tree_graph: tree}, X)
        finally:
            process.terminate()
            process.wait(timeout=30)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import emit_trajectory

    class _NoBenchmark:
        stats = None

    emit_trajectory("SERVING_SUBPROCESS", _NoBenchmark(), point)
    emit_trajectory("SERVING_FLEET_SUBPROCESS", _NoBenchmark(), fleet_point)
    return {**point, **fleet_point}


if __name__ == "__main__":
    print(json.dumps(main(), indent=2))
