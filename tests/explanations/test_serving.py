"""Tests for the serving layer: graph export parity, the ONNX-style backend,
the loopback fleet scoring server (hash routing, admission control) and the
coalescing remote client (per-graph lanes, fixed windows, shed retry)."""

import http.client
import io
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    AuditSession,
    CoalescingScoringClient,
    ComputeGraph,
    GrowingSpheresCounterfactual,
    OnnxExportBackend,
    RemoteScoringBackend,
    ScoringServer,
    export_model,
    serve_fleet,
)
from fairexp.explanations.serving import _Body, _npy_chunks
from fairexp.fairness.mitigation import (
    FairLogisticRegression,
    RecourseRegularizedClassifier,
)
from fairexp.models import (
    DecisionTreeClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)


def _model_zoo(train):
    """One fitted model per exportable family used across E1-E9."""
    return {
        "logistic": LogisticRegression(n_iter=600, random_state=0).fit(
            train.X, train.y),
        "fair_logistic": FairLogisticRegression(
            fairness_weight=3.0, n_iter=400, random_state=0
        ).fit(train.X, train.y, sensitive=train.sensitive_values),
        "recourse_regularized": RecourseRegularizedClassifier(
            recourse_weight=2.0, n_iter=400, random_state=0
        ).fit(train.X, train.y, sensitive=train.sensitive_values),
        "mlp": MLPClassifier(hidden_sizes=(12, 6), n_epochs=40, random_state=0).fit(
            train.X, train.y),
        "tree": DecisionTreeClassifier(max_depth=5, random_state=0).fit(
            train.X, train.y),
        "forest": RandomForestClassifier(n_estimators=7, max_depth=4,
                                         random_state=0).fit(train.X, train.y),
    }


@pytest.fixture(scope="module")
def zoo(loan_data):
    _, train, test = loan_data
    return _model_zoo(train), train, test


def _remote(server, *, window=0.0, client=CoalescingScoringClient):
    """A backend on the server's first graph over a private ``client``."""
    return RemoteScoringBackend(client(server.url, window=window),
                                graph=server.graph_keys()[0])


def _npy(X) -> bytes:
    """``X`` as the raw ``.npy`` bytes the wire carries."""
    payload = io.BytesIO()
    np.save(payload, X, allow_pickle=False)
    return payload.getvalue()


class _TwoRetryClient(CoalescingScoringClient):
    """Gives up on a shed batch after two retries."""

    MAX_RETRIES = 2
    BACKOFF = 0.001


class TestExportParity:
    """The tentpole's acceptance criterion: bitwise-equal predict for every
    exportable model family E1-E9 audit."""

    @pytest.mark.parametrize("name", ["logistic", "fair_logistic",
                                      "recourse_regularized", "mlp", "tree",
                                      "forest"])
    def test_graph_predict_bitwise_equals_model_predict(self, zoo, name):
        models, train, test = zoo
        model = models[name]
        graph = export_model(model)
        for X in (test.X, train.X[:50], test.X[:1],
                  test.X + np.linspace(-0.5, 0.5, test.X.shape[1])):
            assert np.array_equal(graph.run(X), np.asarray(model.predict(X)))

    @pytest.mark.parametrize("name", ["logistic", "mlp", "forest"])
    def test_graph_roundtrips_through_npz(self, zoo, name, tmp_path):
        models, _, test = zoo
        graph = export_model(models[name])
        path = tmp_path / f"{name}.npz"
        graph.save(path)
        loaded = ComputeGraph.load(path)
        assert loaded.source == graph.source
        assert loaded.n_features == graph.n_features
        assert np.array_equal(loaded.run(test.X), graph.run(test.X))

    def test_export_rejects_unsupported_models(self):
        class OpaqueModel:
            def predict(self, X):
                return np.zeros(len(X), dtype=int)

        with pytest.raises(ValidationError, match="OpaqueModel"):
            export_model(OpaqueModel())

    def test_graph_rejects_wrong_feature_count(self, zoo):
        models, _, test = zoo
        graph = export_model(models["logistic"])
        with pytest.raises(ValidationError, match="features"):
            graph.run(test.X[:, :3])

    def test_load_rejects_non_graph_archive(self, tmp_path):
        path = tmp_path / "noise.npz"
        np.savez(path, junk=np.arange(3))
        with pytest.raises(ValidationError, match="not a compute-graph"):
            ComputeGraph.load(path)


class TestOnnxExportBackend:
    def test_backend_scores_without_the_model(self, zoo):
        models, _, test = zoo
        backend = OnnxExportBackend(models["logistic"])
        assert backend.releases_gil
        assert backend.name == "onnx"
        out = backend.predict(test.X)
        assert np.array_equal(out, models["logistic"].predict(test.X))
        assert backend.call_count == 1
        assert backend.row_count == test.X.shape[0]

    def test_backend_accepts_prebuilt_graph(self, zoo):
        models, _, test = zoo
        graph = export_model(models["forest"])
        backend = OnnxExportBackend(graph, name="forest-graph")
        assert np.array_equal(backend.predict(test.X),
                              models["forest"].predict(test.X))

    def test_verify_on_catches_unfaithful_graphs(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        OnnxExportBackend(model, verify_on=test.X)  # faithful: constructs
        graph = export_model(model)
        graph.ops[0]["b"] = graph.ops[0]["b"] + 10.0  # corrupt the intercept

        class Lying:
            pass

        backend = OnnxExportBackend(graph)  # graphs skip verification ...
        # ... but a model + corrupted-export combination must fail fast.
        lying = Lying()
        lying.coef_ = np.asarray(model.coef_) * -1.0
        lying.intercept_ = float(model.intercept_)
        lying.predict = model.predict
        with pytest.raises(ValidationError, match="diverges"):
            OnnxExportBackend(lying, verify_on=test.X)
        assert backend.predict(test.X).shape == (test.X.shape[0],)

class TestScoringServer:
    def test_serves_graph_over_loopback(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        with serve_fleet([model]) as server:
            backend = _remote(server)
            out = backend.predict(test.X)
            assert np.array_equal(out, model.predict(test.X))
            assert backend.call_count == 1
            assert backend.client.wire_call_count == 1
            assert server.request_count == 1
            assert server.row_count == test.X.shape[0]
            backend.client.close()

    def test_server_close_is_idempotent(self, zoo):
        models, _, _ = zoo
        server = serve_fleet([models["logistic"]])
        server.close()
        server.close()


class TestWireFormat:
    """The wire streams ``np.save``'s exact bytes and reads them in place."""

    @staticmethod
    def _assert_round_trip(array):
        chunks = _npy_chunks(array)
        blob = b"".join(chunks)
        assert blob == _npy(array)
        assert sum(map(len, chunks)) == len(blob)
        body = _Body(io.BytesIO(blob), len(blob))
        back = body.read_array()
        assert body.remaining == 0
        assert (back.dtype, back.shape) == (array.dtype, array.shape)
        assert back.tobytes() == array.tobytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 134_400])
    def test_stacked_matrix_bytes_are_np_save_bytes(self, n_rows):
        X = np.random.default_rng(n_rows).normal(size=(n_rows, 6))
        self._assert_round_trip(X)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   min_side=0, max_side=40)),
           hnp.arrays(np.int64, st.integers(0, 200)))
    def test_any_matrix_and_label_vector_are_np_save_bytes(self, X, labels):
        self._assert_round_trip(X)
        self._assert_round_trip(labels)

    def test_eight_megabyte_batch_is_bitwise_equal(self, zoo):
        """A batch larger than the socket buffers, streamed both ways."""
        models, _, test = zoo
        model = models["logistic"]
        rng = np.random.default_rng(0)
        rows = rng.integers(0, test.X.shape[0], size=180_000)
        X = test.X[rows] + rng.normal(scale=0.5, size=(rows.size, test.X.shape[1]))
        assert X.nbytes >= 8_000_000
        with serve_fleet([model]) as server:
            backend = _remote(server)
            labels = backend.predict(X)
            reference = model.predict(X)
            assert labels.dtype == reference.dtype
            assert labels.tobytes() == reference.tobytes()
            assert len(np.unique(reference)) == 2
            assert server.row_count == X.shape[0]
            backend.client.close()

    def test_fortran_order_payload_scores_in_order(self, zoo):
        models, _, test = zoo
        model = models["mlp"]
        X = np.asfortranarray(test.X[:30])
        with serve_fleet([model]) as server:
            host, port = server.url.rsplit("/", 1)[-1].split(":")
            connection = http.client.HTTPConnection(host, int(port), timeout=10)
            connection.request("POST", "/score", body=_npy(X),
                               headers={"X-Fairexp-Graph": server.graph_keys()[0]})
            reply = connection.getresponse()
            assert reply.status == 200
            labels = np.load(io.BytesIO(reply.read()), allow_pickle=False)
            assert np.array_equal(labels, model.predict(X))
            connection.close()


class TestCoalescing:
    def test_concurrent_callers_share_one_wire_call(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        with serve_fleet([model]) as server:
            client = CoalescingScoringClient(server.url, window=1.0)
            key = server.graph_keys()[0]
            backends = [RemoteScoringBackend(client, graph=key) for _ in range(4)]
            barrier = threading.Barrier(4)
            outputs: list = [None] * 4

            def score(k):
                barrier.wait(timeout=10)
                outputs[k] = backends[k].predict(test.X[k * 15:(k + 1) * 15])

            threads = [threading.Thread(target=score, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            reference = model.predict(test.X)
            for k in range(4):
                assert np.array_equal(outputs[k], reference[k * 15:(k + 1) * 15])
            # Four registered callers, four concurrent batches -> ONE wire
            # call (the leader waits for every registered peer, so the first
            # wave coalesces deterministically, not by racing the window).
            assert client.wire_call_count == 1
            assert client.coalesced_count == 3
            assert server.request_count == 1
            # Per-caller accounting is untouched by the stacking.
            assert [b.call_count for b in backends] == [1, 1, 1, 1]
            assert [b.row_count for b in backends] == [15, 15, 15, 15]
            client.close()

    def test_sequential_caller_never_waits_for_absent_peers(self, zoo):
        models, _, test = zoo
        with serve_fleet([models["logistic"]]) as server:
            backend = _remote(server, window=0.05)
            for _ in range(3):
                backend.predict(test.X[:10])
            # One registered caller: each dispatch flushes as soon as its
            # own batch is pending — no window-long stalls, no merging.
            assert backend.client.wire_call_count == 3
            backend.client.close()

    def test_failed_wire_call_raises_in_every_coalesced_caller(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        server = serve_fleet([model])
        client = CoalescingScoringClient(server.url, window=0.5)
        key = server.graph_keys()[0]
        backends = [RemoteScoringBackend(client, graph=key) for _ in range(2)]
        server.close()  # the wire call will fail for the whole batch
        errors: list = [None] * 2
        barrier = threading.Barrier(2)

        def score(k):
            barrier.wait(timeout=10)
            try:
                backends[k].predict(test.X[:5])
            except Exception as error:  # noqa: BLE001 - asserting propagation
                errors[k] = error

        threads = [threading.Thread(target=score, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert all(error is not None for error in errors)
        assert client.wire_call_count == 0
        assert [b.call_count for b in backends] == [0, 0]
        client.close()

    def test_unregister_releases_the_window(self, zoo):
        models, _, test = zoo
        with serve_fleet([models["logistic"]]) as server:
            client = CoalescingScoringClient(server.url, window=5.0)
            key = server.graph_keys()[0]
            stays = RemoteScoringBackend(client, graph=key)
            leaves = RemoteScoringBackend(client, graph=key)
            leaves.close()
            import time
            start = time.monotonic()
            stays.predict(test.X[:5])
            # With the peer gone, the single registered caller dispatches
            # immediately instead of waiting out the 5s window.
            assert time.monotonic() - start < 2.0
            client.close()


class TestFleetRouting:
    """One server, many graphs: requests route by content hash."""

    FLEET = ["logistic", "tree", "forest"]

    def test_fleet_routes_each_graph_bitwise_correctly(self, zoo):
        models, _, test = zoo
        fleet = {name: models[name] for name in self.FLEET}
        graphs = {name: export_model(model) for name, model in fleet.items()}
        with serve_fleet(list(graphs.values())) as server:
            assert server.graph_keys() == [g.signature()
                                           for g in graphs.values()]
            client = CoalescingScoringClient(server.url, window=0.0)
            for name, graph in graphs.items():
                backend = RemoteScoringBackend(client, graph=graph)
                out = backend.predict(test.X)
                assert np.array_equal(out, fleet[name].predict(test.X)), name
                backend.close()
            # Per-graph accounting on the server: every lane saw exactly
            # one request for the full test matrix, none of them mixed.
            stats = server.stats()
            assert stats["requests"] == len(graphs)
            for graph in graphs.values():
                entry = stats["graphs"][graph.signature()]
                assert entry["requests"] == 1
                assert entry["rows"] == test.X.shape[0]
            client.close()

    def test_unknown_hash_is_rejected_not_misrouted(self, zoo):
        models, _, test = zoo
        with serve_fleet([models["logistic"], models["tree"]]) as server:
            client = CoalescingScoringClient(server.url, window=0.0)
            backend = RemoteScoringBackend(client, graph="0" * 64)
            with pytest.raises(ValidationError, match="unknown graph"):
                backend.predict(test.X[:4])
            assert backend.call_count == 0
            client.close()

    @staticmethod
    def _post_headerless(server, X):
        """POST ``X`` to ``/score`` without an ``X-Fairexp-Graph`` header;
        returns the reply's status and body."""
        import urllib.error
        import urllib.request

        request = urllib.request.Request(f"{server.url}/score",
                                         data=_npy(X), method="POST")
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                return reply.status, reply.read().decode()
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode()

    def test_fleet_requires_the_routing_header(self, zoo):
        """A multi-graph server must never guess: header-less requests are
        a 400, not a dispatch to whichever graph registered first."""
        models, _, test = zoo
        with serve_fleet([models["logistic"], models["tree"]]) as server:
            status, body = self._post_headerless(server, test.X[:4])
            assert status == 400
            assert "X-Fairexp-Graph" in body
            assert server.request_count == 0

    def test_one_graph_server_refuses_headerless_requests(self, zoo):
        """One request shape whatever the fleet size: a one-graph server
        answers a header-less request with 400, and routed requests score."""
        models, _, test = zoo
        model = models["logistic"]
        graph = export_model(model)
        with ScoringServer([graph]) as server:
            status, body = self._post_headerless(server, test.X[:4])
            assert status == 400
            assert "X-Fairexp-Graph" in body
            assert server.request_count == 0
            routed = _remote(server)
            assert np.array_equal(routed.predict(test.X), model.predict(test.X))
            routed.client.close()

    def test_backend_must_name_its_graph(self, zoo):
        """``RemoteScoringBackend`` has one form: a client and a graph."""
        models, _, _ = zoo
        with serve_fleet([models["logistic"]]) as server:
            client = CoalescingScoringClient(server.url)
            with pytest.raises(TypeError, match="graph"):
                RemoteScoringBackend(client)
            with pytest.raises(ValidationError, match="name its graph"):
                RemoteScoringBackend(client, graph=None)
            assert client.registered_count == 0

    def test_server_hosts_only_compute_graphs(self, zoo):
        models, _, _ = zoo
        with pytest.raises(ValidationError, match="ComputeGraph"):
            ScoringServer([models["logistic"].predict])
        with pytest.raises(ValidationError, match="at least one graph"):
            ScoringServer([])

    def test_lanes_never_share_a_wire_call_across_graphs(self, zoo):
        """Concurrent batches for DIFFERENT graphs must not coalesce: each
        graph's lane dispatches its own wire call even inside one window."""
        models, _, test = zoo
        graphs = [export_model(models[name]) for name in self.FLEET]
        with serve_fleet(graphs) as server:
            client = CoalescingScoringClient(server.url, window=1.0)
            backends = [RemoteScoringBackend(client, graph=g) for g in graphs]
            barrier = threading.Barrier(len(backends))
            outputs: list = [None] * len(backends)

            def score(k):
                barrier.wait(timeout=10)
                outputs[k] = backends[k].predict(test.X[:20])

            threads = [threading.Thread(target=score, args=(k,))
                       for k in range(len(backends))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            for k, name in enumerate(self.FLEET):
                assert np.array_equal(outputs[k],
                                      models[name].predict(test.X[:20]))
            assert client.wire_call_count == len(graphs)
            assert client.coalesced_count == 0
            assert server.request_count == len(graphs)
            client.close()

    def test_audit_sessions_share_one_fleet_server(self, zoo, loan_cf_generator):
        """Two sessions over two different models route through ONE server
        and reproduce their in-process counterfactuals bitwise."""
        models, train, test = zoo
        constraints = loan_cf_generator.constraints
        fleet = [models["logistic"], models["tree"]]
        graphs = [export_model(model) for model in fleet]
        references = []
        for model in fleet:
            session = AuditSession(GrowingSpheresCounterfactual(
                model, train.X, constraints=constraints, random_state=0))
            idx = np.flatnonzero(model.predict(test.X) == 0)[:4]
            references.append(session.counterfactuals_for(test.X, idx).solved())
        with serve_fleet(graphs) as server:
            client = CoalescingScoringClient(server.url, window=0.005)
            for model, graph, reference in zip(fleet, graphs, references):
                backend = RemoteScoringBackend(client, graph=graph)
                session = AuditSession(
                    GrowingSpheresCounterfactual(model, train.X,
                                                 constraints=constraints,
                                                 random_state=0),
                    backend=backend)
                idx = np.flatnonzero(model.predict(test.X) == 0)[:4]
                remote = session.counterfactuals_for(test.X, idx).solved()
                backend.close()
                assert set(remote) == set(reference)
                for i in reference:
                    assert np.array_equal(remote[i].counterfactual,
                                          reference[i].counterfactual)
            client.close()


class TestDynamicWindow:
    """The EWMA window is gone: a client's dispatch window is one fixed
    number of seconds, and ``"auto"`` only names the default."""

    def test_numeric_window_stays_fixed(self, zoo):
        """Explicit numeric windows keep the exact fixed behaviour, whatever
        the arrival pattern."""
        models, _, test = zoo
        with serve_fleet([models["logistic"]]) as server:
            backend = _remote(server, window=0.03)
            for _ in range(5):
                backend.predict(test.X[:3])
            assert backend.client.window == 0.03
            graph_stats = next(iter(server.stats()["graphs"].values()))
            assert graph_stats["window"] == 0.03
            backend.client.close()

    def test_auto_window_is_the_default_fixed_window(self, zoo):
        models, _, test = zoo
        with serve_fleet([models["logistic"]]) as server:
            client = CoalescingScoringClient(server.url, window="auto")
            key = server.graph_keys()[0]
            backend = RemoteScoringBackend(client, graph=key)
            for _ in range(5):
                backend.predict(test.X[:2])
            assert client.window == CoalescingScoringClient.DEFAULT_WINDOW == 0.02
            assert CoalescingScoringClient(server.url).window == client.window
            backend.close()
            client.close()

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), -0.01, "fast",
                                        "0.02", None])
    def test_bad_window_is_refused(self, window):
        """A NaN window would spin the lane leader (``Condition.wait(nan)``
        returns at once); every window but a finite ``>= 0`` or ``"auto"``
        is refused at construction."""
        with pytest.raises(ValidationError, match="window"):
            CoalescingScoringClient("http://127.0.0.1:1", window=window)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0, -1.0, "30",
                                         None])
    def test_bad_timeout_is_refused(self, timeout):
        with pytest.raises(ValidationError, match="timeout"):
            CoalescingScoringClient("http://127.0.0.1:1", timeout=timeout)


class TestAdmissionControl:
    # 134,400 rows of 6 features is a 6.4 MB body, larger than the socket
    # buffers: the server sheds it before the client has sent it all.
    @pytest.mark.parametrize("n_rows", [8, 134_400])
    def test_exhausted_retries_raise_and_count_nothing(self, zoo, n_rows):
        """A server wedged past its admission limit sheds every attempt; the
        client gives up after MAX_RETRIES with a clean error and ZERO
        call/row accounting."""
        models, _, test = zoo
        X = np.resize(test.X, (n_rows, test.X.shape[1]))
        with serve_fleet([models["logistic"]], max_inflight=0) as server:
            backend = _remote(server, client=_TwoRetryClient)
            with pytest.raises(ValidationError, match="shed"):
                backend.predict(X)
            assert backend.call_count == 0
            assert backend.row_count == 0
            client = backend.client
            assert client.wire_call_count == 0
            assert client.shed_count == 3      # initial + 2 retries
            assert client.retry_count == 2
            assert server.shed_count == 3
            assert server.stats()["graphs"][next(iter(server.graph_keys()))][
                "shed"] == 3
            client.close()

    def test_shed_then_retry_succeeds_with_exact_accounting(self, zoo):
        """Transient overload: the first dispatch sheds, the backoff ladder
        retries, the batch eventually lands — counted exactly once."""
        models, _, test = zoo
        model = models["logistic"]
        with serve_fleet([model], max_inflight=0) as server:
            backend = _remote(server)

            def lift_limit():
                time.sleep(0.1)
                server.max_inflight = None

            lifter = threading.Thread(target=lift_limit)
            lifter.start()
            out = backend.predict(test.X[:12])
            lifter.join(timeout=10)
            assert np.array_equal(out, model.predict(test.X[:12]))
            client = backend.client
            assert client.shed_count >= 1
            assert client.retry_count >= 1
            assert server.shed_count >= 1
            # Exactly-once accounting despite the shed/retry churn.
            assert backend.call_count == 1
            assert backend.row_count == 12
            assert client.wire_call_count == 1
            assert client.wire_row_count == 12
            assert server.request_count == 1
            assert server.row_count == 12
            client.close()

    @pytest.mark.parametrize("refusal", ["unknown-graph", "no-graph-header"])
    def test_refusal_closes_the_connection(self, zoo, refusal):
        """A refused request's body is drained, never parsed, and the
        refusal carries ``Connection: close``: the next request on the same
        client connection scores correctly instead of being parsed out of
        the refused body."""
        models, _, test = zoo
        model = models["logistic"]
        with serve_fleet([model]) as server:
            host, port = server.url.rsplit("/", 1)[-1].split(":")
            connection = http.client.HTTPConnection(host, int(port), timeout=10)
            headers = {"X-Fairexp-Graph": "0" * 64} if refusal == "unknown-graph" else {}
            # The body is a valid request line: a server that kept the
            # connection would answer it instead of the next request.
            junk = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" * 4)
            connection.request("POST", "/score", body=junk, headers=headers)
            reply = connection.getresponse()
            reply.read()
            assert reply.status == (404 if refusal == "unknown-graph" else 400)
            assert reply.getheader("Connection") == "close"
            connection.request("POST", "/score", body=_npy(test.X[:9]),
                               headers={"X-Fairexp-Graph": server.graph_keys()[0]})
            reply = connection.getresponse()
            assert reply.status == 200
            labels = np.load(io.BytesIO(reply.read()), allow_pickle=False)
            assert np.array_equal(labels, model.predict(test.X[:9]))
            connection.close()
            assert server.request_count == 1

    def test_admitted_requests_track_peak_inflight(self, zoo):
        models, _, test = zoo
        with serve_fleet([models["logistic"]], max_inflight=4) as server:
            backend = _remote(server)
            backend.predict(test.X[:5])
            stats = server.stats()
            assert stats["max_inflight"] == 4
            assert stats["peak_inflight"] >= 1
            assert stats["inflight"] == 0
            assert stats["shed"] == 0
            backend.client.close()

class TestServerLifecycle:
    def test_context_manager_leaves_no_live_thread(self, zoo):
        """The satellite close() fix: after the context exits, the request
        loop thread has actually terminated — not merely been asked to."""
        models, _, _ = zoo
        with serve_fleet([models["logistic"]]) as server:
            assert server._thread.is_alive()
        assert not server._thread.is_alive()
        server.close()  # idempotent after the context already closed

    def test_concurrent_close_is_safe_and_joins_once(self, zoo):
        models, _, _ = zoo
        server = serve_fleet([models["logistic"]])
        threads = [threading.Thread(target=server.close) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert not any(thread.is_alive() for thread in threads)
        assert not server._thread.is_alive()

    def test_close_with_inflight_coalesced_batch_fails_clean(self, zoo):
        """Shutdown racing an open dispatch window: the leader's wire call
        hits the closed socket and every coalesced caller gets a clean
        backend exception — no hang, no call/row inflation."""
        models, _, test = zoo
        server = serve_fleet([models["logistic"]])
        client = CoalescingScoringClient(server.url, window=0.75)
        key = server.graph_keys()[0]
        backends = [RemoteScoringBackend(client, graph=key) for _ in range(3)]
        # Only 2 of the 3 registered peers submit, so the leader holds the
        # window open (waiting for the third) while the server goes away.
        errors: list = [None, None]
        barrier = threading.Barrier(3)

        def score(k):
            barrier.wait(timeout=10)
            try:
                backends[k].predict(test.X[:5])
            except Exception as error:  # noqa: BLE001 - asserting propagation
                errors[k] = error

        threads = [threading.Thread(target=score, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=10)
        time.sleep(0.2)          # let the leader start waiting in-window
        server.close()           # returns only once the loop thread exited
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        for error in errors:
            assert isinstance(error, ValidationError)
            assert "unreachable" in str(error)
        assert client.wire_call_count == 0
        assert client.wire_row_count == 0
        assert [b.call_count for b in backends] == [0, 0, 0]
        assert [b.row_count for b in backends] == [0, 0, 0]


class TestKeepAlive:
    """Wire calls ride persistent connections from the client's idle pool."""

    def test_sequential_wire_calls_reuse_one_connection(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        with serve_fleet([model]) as server:
            backend = _remote(server)
            for start in range(0, 40, 8):
                assert np.array_equal(backend.predict(test.X[start:start + 8]),
                                      model.predict(test.X[start:start + 8]))
            assert backend.client.wire_call_count == 5
            assert server.stats()["connections"] == 1
            backend.client.close()

    def test_client_close_is_idempotent_and_reconnects(self, zoo):
        models, _, test = zoo
        model = models["logistic"]
        with serve_fleet([model]) as server:
            backend = _remote(server)
            backend.predict(test.X[:4])
            backend.client.close()
            backend.client.close()
            assert np.array_equal(backend.predict(test.X[:6]),
                                  model.predict(test.X[:6]))
            assert server.stats()["connections"] == 2
            assert backend.call_count == 2
            backend.client.close()

    def test_server_close_shuts_pooled_connections(self, zoo):
        """A pooled connection outliving its server: the next score fails as
        unreachable, counts nothing, and no handler thread is left behind
        parked on the idle connection."""
        models, _, test = zoo
        server = serve_fleet([models["logistic"]])
        backend = _remote(server)
        backend.predict(test.X[:5])
        handlers = list(server._connections.values())
        assert len(handlers) == 1 and handlers[0].is_alive()
        server.close()
        assert not any(handler.is_alive() for handler in handlers)
        client = backend.client
        with pytest.raises(ValidationError, match="unreachable"):
            backend.predict(test.X[:5])
        assert (client.wire_call_count, client.wire_row_count) == (1, 5)
        assert (backend.call_count, backend.row_count) == (1, 5)
        client.close()


class TestStatsEndpoint:
    def test_stats_reports_per_graph_counters_over_http(self, zoo):
        import json
        import urllib.request

        models, _, test = zoo
        graphs = [export_model(models["logistic"]), export_model(models["tree"])]
        with serve_fleet(graphs) as server:
            client = CoalescingScoringClient(server.url, window=0.0)
            for graph in graphs:
                backend = RemoteScoringBackend(client, graph=graph)
                backend.predict(test.X[:10])
                backend.close()
            with urllib.request.urlopen(f"{server.url}/stats",
                                        timeout=10) as reply:
                stats = json.loads(reply.read().decode("utf-8"))
            client.close()
        assert stats["requests"] == 2
        assert stats["rows"] == 20
        assert stats["shed"] == 0
        assert stats["connections"] == 2   # the pooled client's one + this GET
        assert stats["max_inflight"] is None
        for graph in graphs:
            entry = stats["graphs"][graph.signature()]
            assert entry["requests"] == 1
            assert entry["rows"] == 10
            assert entry["client_batches"] == 1
            assert entry["coalescing_factor"] == 1.0
            assert entry["window"] == 0.0
            assert entry["source"] == graph.source

    def test_stats_fold_in_client_coalescing_and_window(self, zoo):
        """The X-Fairexp-Batches / X-Fairexp-Window telemetry: a coalesced
        wire call raises the server-side coalescing factor above 1."""
        models, _, test = zoo
        model = models["logistic"]
        with serve_fleet([model]) as server:
            client = CoalescingScoringClient(server.url, window=1.0)
            key = server.graph_keys()[0]
            backends = [RemoteScoringBackend(client, graph=key) for _ in range(3)]
            barrier = threading.Barrier(3)

            def score(k):
                barrier.wait(timeout=10)
                backends[k].predict(test.X[k * 5:(k + 1) * 5])

            threads = [threading.Thread(target=score, args=(k,))
                       for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            entry = server.stats()["graphs"][server.graph_keys()[0]]
            assert entry["requests"] == 1
            assert entry["client_batches"] == 3
            assert entry["coalescing_factor"] == 3.0
            assert entry["window"] == 1.0
            client.close()

class TestServeCLI:
    """``python -m fairexp serve`` fleet flags and the /stats pretty-printer
    (exercised in-process through ``main``; the subprocess shape is covered
    by benchmarks/serving_workload.py and the CI smoke)."""

    @staticmethod
    def _save_graphs(zoo, tmp_path, names):
        models, _, _ = zoo
        paths = []
        for name in names:
            graph = export_model(models[name])
            path = tmp_path / f"{name}.npz"
            graph.save(path)
            paths.append((str(path), graph))
        return paths

    @pytest.fixture()
    def nonblocking_serve(self, monkeypatch):
        """Make serve_until_interrupted return immediately so the CLI path
        runs end to end (print + close) without parking a thread."""
        monkeypatch.setattr(ScoringServer, "serve_until_interrupted",
                            lambda self: None)

    def test_serve_single_graph_prints_legacy_parseable_line(
            self, zoo, tmp_path, capsys, nonblocking_serve):
        from fairexp.cli import main

        (path, graph), = self._save_graphs(zoo, tmp_path, ["logistic"])
        assert main(["serve", "--graph", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        # First line keeps the launcher contract: URL is the last token.
        assert lines[0].startswith("serving LogisticRegression (")
        assert lines[0].rsplit(" ", 1)[-1].startswith("http://127.0.0.1:")
        assert graph.signature() in lines[1]

    def test_serve_fleet_prints_one_routing_line_per_graph(
            self, zoo, tmp_path, capsys, nonblocking_serve):
        from fairexp.cli import main

        saved = self._save_graphs(zoo, tmp_path, ["logistic", "tree"])
        assert main(["serve", "--graph-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("serving 2 graphs on http://")
        routed = "\n".join(lines[1:])
        for _, graph in saved:
            assert graph.signature() in routed

    def test_serve_requires_some_graph_source(self):
        from fairexp.cli import main

        with pytest.raises(SystemExit, match="--graph"):
            main(["serve"])

    def test_serve_rejects_missing_archive_and_dir(self, tmp_path):
        from fairexp.cli import main

        with pytest.raises(SystemExit, match="does not exist"):
            main(["serve", "--graph", str(tmp_path / "nope.npz")])
        with pytest.raises(SystemExit, match="does not exist"):
            main(["serve", "--graph-dir", str(tmp_path / "nope")])

    def test_stats_url_pretty_prints_a_running_fleet(self, zoo, capsys):
        from fairexp.cli import main

        models, _, test = zoo
        graphs = [export_model(models["logistic"]), export_model(models["tree"])]
        with serve_fleet(graphs) as server:
            backend = RemoteScoringBackend(
                CoalescingScoringClient(server.url, window=0.0), graph=graphs[0])
            backend.predict(test.X[:7])
            backend.close()
            backend.client.close()
            assert main(["serve", "--stats-url", server.url]) == 0
        out = capsys.readouterr().out
        assert "1 requests, 7 rows, 0 shed" in out
        assert "GRAPH" in out and "COALESCE" in out
        assert graphs[0].signature()[:12] in out
        assert "LogisticRegression" in out

    def test_stats_url_unreachable_is_an_error(self):
        from fairexp.cli import main

        with pytest.raises(SystemExit, match="could not fetch stats"):
            main(["serve", "--stats-url", "http://127.0.0.1:9"])


class TestBackendClose:
    def test_double_close_keeps_peers_registered(self, zoo):
        """close() is idempotent: a second close (the natural finally-block
        pattern) must not decrement another live caller's registration."""
        models, _, test = zoo
        with serve_fleet([models["logistic"]]) as server:
            client = CoalescingScoringClient(server.url, window=5.0)
            key = server.graph_keys()[0]
            stays = RemoteScoringBackend(client, graph=key)
            leaves = RemoteScoringBackend(client, graph=key)
            leaves.close()
            leaves.close()  # idempotent: must not unregister `stays`
            assert client.registered_count == 1
            import time
            start = time.monotonic()
            stays.predict(test.X[:5])  # dispatches immediately, no 5s stall
            assert time.monotonic() - start < 2.0
            client.close()
