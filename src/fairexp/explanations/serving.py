"""Out-of-process serving: ONNX-style model export and remote scoring.

Out-of-process predict backends and the export they score through:

* :class:`ComputeGraph` / :func:`export_model` — an "ONNX-style" export: a
  fitted linear / MLP / tree / forest model is compiled to a serializable
  list of NumPy ops (``standardize``, ``matvec``, ``matmul``, ``relu``,
  ``softmax``, ``forest`` …) that reproduces ``model.predict`` **bitwise**
  without importing :mod:`fairexp.models`.  Graphs
  :meth:`~ComputeGraph.save` to ``.npz`` files a scoring server in another
  process can load.
* :class:`OnnxExportBackend` — a
  :class:`~fairexp.explanations.backends.CallablePredictBackend` over an
  exported graph (``releases_gil=True``: the graph is pure vectorized
  NumPy), verified against the source model at construction.
* :class:`ScoringServer` + :class:`RemoteScoringBackend` — a loopback HTTP
  scoring server (also shipped as ``python -m fairexp serve``) and its
  batched client.  One server hosts a whole model **fleet**: graphs are
  keyed by content hash (:meth:`ComputeGraph.signature`, the same identity
  the persistent store fingerprints by), and every request names its
  graph's hash in an ``X-Fairexp-Graph`` header — the one request shape; a
  request that names no hosted graph is refused, never guessed.  The
  client side is a :class:`CoalescingScoringClient`: predict batches from
  *concurrent* sessions that land within a dispatch window are stacked
  into **one** wire call per graph, while each caller's call/row
  accounting is folded back into its own backend only after the dispatch
  succeeds — N concurrent sessions issue strictly fewer wire calls than N
  independent ones (asserted in ``benchmarks/test_bench_serving.py`` and
  ``benchmarks/test_bench_serving_fleet.py``).  The window is a fixed
  number of seconds.

Sustained overload degrades gracefully instead of queueing without bound:
the server tracks its admission load and, past ``max_inflight``, answers
new batches with a fast ``429`` *shed* reply that the client turns into a
bounded retry-with-backoff — rows are only counted after a dispatch
finally succeeds, so shed-then-retry never skews session accounting.

The wire format is deliberately boring: ``POST /score`` with a raw ``.npy``
payload of the candidate matrix, answered with a raw ``.npy`` payload of the
labels — byte for byte what ``np.save`` writes, yet never copied in Python:
the sender writes the ``.npy`` header and then the array's own buffer, the
receiver parses the header off the socket, checks its size against
``Content-Length`` and reads the data straight into a new array.  No pickle
crosses the wire, so a server never executes anything a client sends.

Connections are persistent (HTTP/1.1 keep-alive): the client keeps a small
pool of idle connections — one per concurrent wire call — and reuses them,
so a batch pays no TCP handshake and the server starts no new handler
thread for it.  Every non-200 reply (refusals, shed, decode errors) carries
``Connection: close`` and then drains the request's unread body, so a client
still sending a large batch reads the reply rather than a reset.  A reused
connection that fails before any status line arrives is retried once on a
fresh one.  :meth:`CoalescingScoringClient.close` closes the idle pool and
:meth:`ScoringServer.close` shuts down every open connection.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import math
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..exceptions import ValidationError
from ..lint.tsan import guard_counters, make_condition, make_lock
from .backends import CallablePredictBackend, NumpyPredictBackend

__all__ = [
    "ComputeGraph",
    "export_model",
    "OnnxExportBackend",
    "CoalescingScoringClient",
    "RemoteScoringBackend",
    "ScoringServer",
    "serve_fleet",
]


# ---------------------------------------------------------------------------
# Compute-graph export
# ---------------------------------------------------------------------------
def _softmax_rows(z: np.ndarray) -> np.ndarray:
    # Bitwise mirror of fairexp.utils.softmax (axis=-1) so the exported MLP
    # graph reproduces predict_proba exactly without importing fairexp.utils.
    shifted = z - np.max(z, axis=-1, keepdims=True)
    exp_z = np.exp(shifted)
    return exp_z / np.sum(exp_z, axis=-1, keepdims=True)


def _run_packed_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    """Evaluate one packed decision tree: per-row leaf value vectors.

    Nodes are stored as parallel arrays (``feature`` is ``-1`` at leaves);
    every row starts at the root and is routed ``x[feature] <= threshold``
    → left child, exactly the comparison ``TreeNode.predict_one`` makes, so
    each row lands on the identical leaf and returns its stored ``value``.
    """
    feature, threshold = tree["feature"], tree["threshold"]
    left, right, value = tree["left"], tree["right"], tree["value"]
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    pending = feature[nodes] >= 0
    while np.any(pending):
        idx = nodes[pending]
        go_left = X[pending, feature[idx]] <= threshold[idx]
        nodes[pending] = np.where(go_left, left[idx], right[idx])
        pending = feature[nodes] >= 0
    return value[nodes]


def _apply_op(op: dict, X: np.ndarray) -> np.ndarray:
    """Apply one graph op.  Each arm mirrors the source model's own NumPy
    expression token for token — that equivalence is what makes the whole
    graph bitwise-equal to ``model.predict``."""
    kind = op["op"]
    if kind == "standardize":
        return (X - op["mean"]) / op["scale"]
    if kind == "matvec":
        return X @ op["w"] + op["b"]
    if kind == "matmul":
        return X @ op["w"]
    if kind == "add":
        return X + op["b"]
    if kind == "relu":
        return np.maximum(X, 0.0)
    if kind == "softmax":
        return _softmax_rows(X)
    if kind == "ge_zero":
        return (X >= 0).astype(int)
    if kind == "argmax_classes":
        return op["classes"][np.argmax(X, axis=1)]
    if kind == "forest":
        n_classes = int(op["n_classes"])
        total = np.zeros((X.shape[0], n_classes))
        for tree in op["trees"]:
            proba = _run_packed_tree(tree, X)
            aligned = np.zeros((X.shape[0], n_classes))
            for j, column in enumerate(tree["align"]):
                aligned[:, int(column)] = proba[:, j]
            total += aligned
        return total / float(op["divisor"])
    raise ValidationError(f"unknown compute-graph op {kind!r}")


class ComputeGraph:
    """A serializable op list evaluated with nothing but NumPy.

    This is the "ONNX-style" export target: :func:`export_model` compiles a
    fitted model into a graph, and :meth:`run` replays the model's own
    predict arithmetic op by op — bitwise-equal labels, no
    :mod:`fairexp.models` import required.  Graphs pickle (into
    process-shard specs) and round-trip through :meth:`save` /
    :meth:`load` ``.npz`` files (how ``python -m fairexp serve`` receives a
    model without receiving code).
    """

    FORMAT_VERSION = 1

    def __init__(self, ops: list[dict], *, n_features: int,
                 source: str = "unknown") -> None:
        self.ops = list(ops)
        self.n_features = int(n_features)
        self.source = str(source)

    def run(self, X) -> np.ndarray:
        """Labels for ``X``: every op applied in order."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise ValidationError(
                f"graph expects {self.n_features} features, got {X.shape[1]}"
            )
        out = X
        for op in self.ops:
            out = _apply_op(op, out)
        return np.asarray(out)

    # Exported graphs slot directly into CallablePredictBackend(fn=graph).
    __call__ = run

    def signature(self) -> str:
        """Content digest of the graph (ops, shapes and every weight byte).

        This is the graph's identity for the persistent store's dispatch
        token: two sessions scoring through byte-identical graphs share
        counterfactual entries, any weight or topology difference keys them
        apart — reproducible across processes, unlike a pickled closure.
        """
        digest = hashlib.sha256()
        for key, array in sorted(self._flatten().items()):
            digest.update(key.encode())
            digest.update(str(array.dtype).encode() + str(array.shape).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    def __repr__(self) -> str:
        names = "->".join(op["op"] for op in self.ops)
        return f"ComputeGraph({self.source}: {names})"

    # ------------------------------------------------------------ round-trip
    def _flatten(self) -> dict[str, np.ndarray]:
        """Graph as flat ``{key: array}`` pairs (the ``.npz`` payload)."""
        arrays: dict[str, np.ndarray] = {
            "__meta__": np.frombuffer(json.dumps({
                "format_version": self.FORMAT_VERSION,
                "n_features": self.n_features,
                "source": self.source,
                "ops": [op["op"] for op in self.ops],
            }).encode("utf-8"), dtype=np.uint8),
        }
        for i, op in enumerate(self.ops):
            for key, val in op.items():
                if key == "op":
                    continue
                if key == "trees":
                    for t, tree in enumerate(val):
                        for tree_key, arr in tree.items():
                            arrays[f"op{i}.t{t}.{tree_key}"] = np.asarray(arr)
                else:
                    arrays[f"op{i}.{key}"] = np.asarray(val)
        return arrays

    def save(self, path) -> None:
        """Persist the graph to a compressed ``.npz`` archive."""
        np.savez_compressed(path, **self._flatten())

    @classmethod
    def load(cls, path) -> "ComputeGraph":
        """Load a graph previously written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as payload:
            try:
                meta = json.loads(bytes(payload["__meta__"]).decode("utf-8"))
            except (KeyError, ValueError) as error:
                raise ValidationError(f"not a compute-graph archive: {path}") from error
            if meta.get("format_version") != cls.FORMAT_VERSION:
                raise ValidationError(
                    f"unsupported compute-graph format {meta.get('format_version')!r}"
                )
            ops: list[dict] = []
            for i, kind in enumerate(meta["ops"]):
                op: dict = {"op": kind}
                trees: dict[int, dict] = {}
                prefix = f"op{i}."
                for key in payload.files:
                    if not key.startswith(prefix):
                        continue
                    tail = key[len(prefix):]
                    if tail.startswith("t") and "." in tail:
                        index, _, tree_key = tail.partition(".")
                        trees.setdefault(int(index[1:]), {})[tree_key] = payload[key]
                    else:
                        value = payload[key]
                        op[tail] = value if value.ndim else value[()]
                if trees:
                    op["trees"] = [trees[t] for t in sorted(trees)]
                ops.append(op)
        return cls(ops, n_features=int(meta["n_features"]), source=meta["source"])


def _pack_tree(root, n_classes: int, align: np.ndarray) -> dict:
    """Flatten a fitted ``TreeNode`` tree into parallel node arrays."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[np.ndarray] = []

    def walk(node) -> int:
        index = len(feature)
        feature.append(-1 if node.is_leaf else int(node.feature))
        threshold.append(float(node.threshold))
        left.append(-1)
        right.append(-1)
        value.append(np.asarray(node.value, dtype=float))
        if not node.is_leaf:
            left[index] = walk(node.left)
            right[index] = walk(node.right)
        return index

    walk(root)
    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=float),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "value": np.vstack(value),
        "align": np.asarray(align, dtype=np.int64),
    }


def export_model(model) -> ComputeGraph:
    """Compile a fitted fairexp model to a :class:`ComputeGraph`.

    Dispatch is structural (duck-typed on fitted attributes), so the export
    covers every from-scratch family used by experiments E1–E9 without
    importing their classes:

    * linear (``coef_`` / ``intercept_`` with a ``>= 0`` decision):
      :class:`~fairexp.models.LogisticRegression` and the mitigation
      classifiers built on the same surface;
    * MLP (``weights_`` / ``biases_`` with internal standardization):
      :class:`~fairexp.models.MLPClassifier`;
    * decision trees and forests (``root_`` / ``estimators_``):
      :class:`~fairexp.models.DecisionTreeClassifier` and
      :class:`~fairexp.models.RandomForestClassifier`.

    The returned graph's :meth:`~ComputeGraph.run` is bitwise-equal to
    ``model.predict`` (asserted per model family in
    ``tests/explanations/test_serving.py``); anything else raises a
    :class:`~fairexp.exceptions.ValidationError` naming the model type.
    """
    name = type(model).__name__
    estimators = getattr(model, "estimators_", None)
    if estimators:
        classes = np.asarray(model.classes_)
        trees = []
        for tree in estimators:
            align = np.asarray([
                int(np.flatnonzero(classes == cls)[0]) for cls in tree.classes_
            ], dtype=np.int64)
            trees.append(_pack_tree(tree.root_, classes.shape[0], align))
        ops = [
            {"op": "forest", "n_classes": classes.shape[0],
             "divisor": float(len(trees)), "trees": trees},
            {"op": "argmax_classes", "classes": classes},
        ]
        return ComputeGraph(ops, n_features=int(estimators[0].n_features_),
                            source=name)
    if getattr(model, "root_", None) is not None:
        classes = np.asarray(model.classes_)
        align = np.arange(classes.shape[0], dtype=np.int64)
        ops = [
            {"op": "forest", "n_classes": classes.shape[0], "divisor": 1.0,
             "trees": [_pack_tree(model.root_, classes.shape[0], align)]},
            {"op": "argmax_classes", "classes": classes},
        ]
        return ComputeGraph(ops, n_features=int(model.n_features_), source=name)
    weights = getattr(model, "weights_", None)
    if weights:
        ops: list[dict] = [{
            "op": "standardize",
            "mean": np.asarray(model._mean, dtype=float),
            "scale": np.asarray(model._scale, dtype=float),
        }]
        for layer, (W, b) in enumerate(zip(weights, model.biases_)):
            ops.append({"op": "matmul", "w": np.asarray(W, dtype=float)})
            ops.append({"op": "add", "b": np.asarray(b, dtype=float)})
            ops.append({"op": "relu"} if layer < len(weights) - 1
                       else {"op": "softmax"})
        ops.append({"op": "argmax_classes", "classes": np.asarray(model.classes_)})
        return ComputeGraph(ops, n_features=weights[0].shape[0], source=name)
    coef = getattr(model, "coef_", None)
    if coef is not None:
        coef = np.asarray(coef, dtype=float)
        ops = [
            {"op": "matvec", "w": coef, "b": float(model.intercept_)},
            {"op": "ge_zero"},
        ]
        return ComputeGraph(ops, n_features=coef.shape[0], source=name)
    raise ValidationError(
        f"cannot export {name} to a compute graph: expected a fitted linear "
        "(coef_/intercept_), MLP (weights_/biases_), tree (root_) or forest "
        "(estimators_) model"
    )


class OnnxExportBackend(CallablePredictBackend):
    """Predict backend over an exported :class:`ComputeGraph`.

    Scoring never touches the training class: the graph is pure NumPy, so
    the backend declares ``releases_gil=True`` (BLAS/ufunc loops drop the
    GIL and thread-sharding scales), and the graph ships whole to remote
    processes, which score without importing :mod:`fairexp.models`.

    Parameters
    ----------
    model_or_graph:
        A fitted model (compiled via :func:`export_model`) or an existing
        :class:`ComputeGraph` (e.g. loaded from an ``.npz`` export).
    verify_on:
        Optional matrix checked at construction: the graph's labels must be
        bitwise-equal to ``model.predict`` on it, so an unfaithful export
        fails fast instead of silently skewing an audit.  Requires a model
        (ignored for pre-built graphs).
    """

    def __init__(self, model_or_graph, *, name: str = "onnx",
                 verify_on=None) -> None:
        if isinstance(model_or_graph, ComputeGraph):
            graph, model = model_or_graph, None
        else:
            graph, model = export_model(model_or_graph), model_or_graph
        super().__init__(graph, name=name, releases_gil=True)
        self.graph = graph
        if verify_on is not None and model is not None:
            reference = np.asarray(model.predict(verify_on))
            exported = graph.run(verify_on)
            if not np.array_equal(reference, exported):
                raise ValidationError(
                    f"exported graph diverges from {type(model).__name__}."
                    "predict on the verification matrix"
                )


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
def _npy_chunks(array: np.ndarray) -> tuple[bytes, memoryview]:
    """The bytes ``np.save`` writes for ``array``, without copying the data:
    the ``.npy`` header, then a view of the (C-contiguous) array's buffer."""
    array = np.ascontiguousarray(array)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array))
    return header.getvalue(), memoryview(array.reshape(-1).view(np.uint8))


class _Body:
    """The ``length`` declared bytes of one message on a buffered stream;
    ``remaining`` counts what is still unread."""

    def __init__(self, stream, length: int) -> None:
        self.stream, self.remaining = stream, length

    def read(self, size: int) -> bytes:
        """Up to ``size`` declared bytes (``np.lib.format`` parses with it)."""
        data = self.stream.read(min(size, self.remaining))
        self.remaining -= len(data)
        return data

    def read_array(self) -> np.ndarray:
        """The body as a ``.npy`` payload, read in place into a new array.

        The header's data size must be exactly the bytes left, checked
        before allocating: a header claiming more would block the read
        until the socket times out, and trailing bytes would be parsed as
        the next request.  Object dtypes are refused (no pickle).
        """
        if np.lib.format.read_magic(self) != (1, 0):
            raise ValueError("the wire carries version 1.0 .npy payloads")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(self)
        if dtype.hasobject:
            raise ValueError("object arrays cannot cross the wire")
        if dtype.itemsize * math.prod(shape) != self.remaining:
            raise ValueError(f".npy header declares shape {shape} of {dtype}, "
                             f"but {self.remaining} body bytes follow it")
        array = np.empty(shape, dtype, order="F" if fortran_order else "C")
        view = memoryview(array.reshape(-1, order="A").view(np.uint8))
        while self.remaining:
            filled = self.stream.readinto(view[view.nbytes - self.remaining:])
            if not filled:
                raise ValueError("message body ended early")
            self.remaining -= filled
        return array


# ---------------------------------------------------------------------------
# Scoring server
# ---------------------------------------------------------------------------
@guard_counters("request_count", "row_count", "shed_count", "peak_inflight",
                "_inflight", "connection_count")
class ScoringServer:
    """Loopback HTTP scoring server hosting a fleet of compute graphs.

    ``POST /score`` takes a raw ``.npy`` matrix and answers with a raw
    ``.npy`` label vector; ``GET /healthz`` answers ``ok``; ``GET /stats``
    reports the JSON from :meth:`stats` — global and per-graph request/row
    counters, shed counts, accepted connections, the last client-reported
    window per graph and the server-side coalescing factor.  The server binds loopback only
    (scoring audits is not an internet service) and runs its request loop
    on a daemon thread; it is a context manager, and :meth:`close` is
    idempotent and thread-safe.

    **Persistent connections.**  The handler speaks HTTP/1.1, so a client
    keeps one TCP connection open across many ``/score`` calls instead of
    paying a handshake and a new handler thread per batch.  Every non-200
    reply carries ``Connection: close``, then reads the request's declared
    body off the socket (a lingering close): closing with it unread would
    reset the connection under a client still sending it, and a kept
    connection would parse it as the next request.  :meth:`close` shuts
    down every open connection.

    **Routing.**  ``graphs`` is a sequence of :class:`ComputeGraph`\\ s,
    each keyed by its content hash (:meth:`ComputeGraph.signature`, the
    identity the persistent store fingerprints by).  Every ``/score``
    request names its graph's hash in an ``X-Fairexp-Graph`` header: a
    request without one is a ``400`` and an unknown hash a ``404``,
    whatever the fleet size.

    **Admission control.**  ``max_inflight`` is the one admission bound.
    Past it, new batches get a fast ``429`` reply with a ``Retry-After``
    hint instead of deepening the queue — the client's bounded
    retry-with-backoff (see :class:`CoalescingScoringClient`) turns
    sustained overload into higher latency rather than unbounded server
    memory growth.  ``None`` (the default) disables shedding.

    ``python -m fairexp serve --graph a.npz --graph b.npz`` wraps this
    class around :class:`ComputeGraph` archives, which is how a scoring
    process serves a model fleet without importing (or even having) the
    training code.
    """

    #: Seconds a shed reply's ``Retry-After`` header asks the client to wait.
    retry_after = 0.05

    def __init__(self, graphs, *, host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int | None = None) -> None:
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.request_count = 0
        self.row_count = 0
        self.shed_count = 0
        self.peak_inflight = 0
        self._inflight = 0
        self.connection_count = 0
        # Open connections -> their handler threads; close() drains them.
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._draining = False
        self._graphs: dict[str, ComputeGraph] = {}
        for graph in graphs:
            if not isinstance(graph, ComputeGraph):
                raise ValidationError(
                    f"ScoringServer hosts ComputeGraphs, got {type(graph).__name__}"
                )
            self._graphs[graph.signature()] = graph
        if not self._graphs:
            raise ValidationError("ScoringServer needs at least one graph")
        self._graph_stats = {
            key: {"requests": 0, "rows": 0, "shed": 0,
                  "client_batches": 0, "window": None}
            for key in self._graphs
        }
        self._closed = False
        self._lock = make_lock()
        self._close_lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            """Request handler bound to this server's fleet and counters."""

            protocol_version = "HTTP/1.1"
            # Headers and body go out in two writes; with Nagle on, the
            # second waits for the client's delayed ACK (~40 ms a call).
            disable_nagle_algorithm = True

            def setup(self):
                """Register the connection so :meth:`close` can drain it."""
                super().setup()
                server._track(self.connection)

            def finish(self):
                """Deregister the connection once the client is done."""
                try:
                    super().finish()
                finally:
                    server._untrack(self.connection)

            def log_message(self, *args):
                """Silence per-request stderr noise (stats are on /stats)."""

            def _reply(self, status: int, body,
                       content_type: str = "application/octet-stream",
                       headers: dict | None = None, unread: int = 0) -> None:
                """Write one reply; ``body`` is bytes or a tuple of buffers."""
                chunks = (body,) if isinstance(body, bytes) else body
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(sum(map(len, chunks))))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                if status != 200:
                    # The request body may be unread: never parse it as
                    # the next request on this connection.
                    self.send_header("Connection", "close")
                self.end_headers()
                for chunk in chunks:
                    self.wfile.write(chunk)
                # Lingering close: a close with request bytes unread resets
                # the connection under a client still sending a large batch.
                while unread > 0 and (chunk := self.rfile.read(min(unread, 1 << 16))):
                    unread -= len(chunk)

            def do_GET(self):
                """Serve the ``/healthz`` probe and the ``/stats`` counters."""
                if self.path == "/healthz":
                    self._reply(200, b"ok", "text/plain")
                elif self.path == "/stats":
                    self._reply(200, json.dumps(server.stats()).encode(),
                                "application/json")
                else:
                    self._reply(404, b"not found", "text/plain")

            def do_POST(self):
                """Score one ``/score`` batch: ``.npy`` matrix in, labels out."""
                key = self.headers.get("X-Fairexp-Graph")
                length = self.headers.get("Content-Length", "0")
                body = _Body(self.rfile, int(length) if length.isdigit() else 0)
                refusal = ((404, "not found") if self.path != "/score"
                           else server._refusal(key, length))
                if refusal is not None:
                    status, message = refusal
                    self._reply(status, message.encode(), "text/plain",
                                unread=body.remaining)
                    return
                if not server._admit(key):
                    # Fast shed: the client backs off and retries instead of
                    # this batch deepening an already-saturated queue.
                    self._reply(
                        429,
                        b"shed: server at its admission limit",
                        "text/plain",
                        headers={"Retry-After": f"{server.retry_after:.3f}"},
                        unread=body.remaining,
                    )
                    return
                # The inflight gauge covers read + score + count — the work
                # admission control bounds — and is released BEFORE any
                # reply is written, so a client reading /stats right after
                # its response never observes its own finished batch as
                # still in flight, and a refused body drains slot-free.
                try:
                    X = body.read_array()
                    labels = np.asarray(server._graphs[key](X))
                except Exception as error:  # noqa: BLE001 - wire boundary
                    reply = (400, str(error).encode(), "text/plain")
                else:
                    reply = (200, _npy_chunks(labels))
                    server._count(
                        key, int(np.atleast_2d(X).shape[0]),
                        self.headers.get("X-Fairexp-Batches"),
                        self.headers.get("X-Fairexp-Window"),
                    )
                finally:
                    server._leave()
                self._reply(*reply, unread=body.remaining)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        # serve_forever only notices shutdown() between polls: the default
        # 0.5 s poll made every close() wait up to half a second.
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.02},
                                        name="fairexp-scoring-server", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------ fleet
    def graph_keys(self) -> list[str]:
        """Routing keys (content hashes) of every hosted graph, in order."""
        return list(self._graphs)

    def _refusal(self, key: str | None, length: str):
        """``None`` when a ``/score`` request names a hosted graph and a
        body length, else the ``(status, message)`` it is refused with.

        Runs before admission: a negative length would make the handler's
        body read block until the client hangs up, holding an admission
        slot all the while.
        """
        if not length.isdigit():
            return (400, "Content-Length must be a non-negative integer, "
                         f"got {length!r}")
        if key in self._graphs:
            return None
        if not key:
            return (400, "requests must carry an X-Fairexp-Graph header "
                         "naming a hosted graph")
        known = ", ".join(graph_key[:12] for graph_key in self._graphs)
        return (404, f"unknown graph {key!r}; hosting: {known}")

    # -------------------------------------------------------------- admission
    def _admit(self, key: str) -> bool:
        """Admit one batch, or book a shed (global and per graph) when the
        batches in flight have reached ``max_inflight``."""
        with self._lock:
            if self.max_inflight is not None and self._inflight >= self.max_inflight:
                self.shed_count += 1
                self._graph_stats[key]["shed"] += 1
                return False
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
            return True

    def _leave(self) -> None:
        with self._lock:
            self._inflight -= 1

    # ------------------------------------------------------------ connections
    def _track(self, connection: socket.socket) -> None:
        """Count an accepted connection and remember its handler thread."""
        with self._lock:
            self.connection_count += 1
            self._connections[connection] = threading.current_thread()
            draining = self._draining
        if draining:  # accepted just before close(): drop it at once
            _shutdown_socket(connection)

    def _untrack(self, connection: socket.socket) -> None:
        with self._lock:
            self._connections.pop(connection, None)

    def _count(self, key: str, rows: int, batches_header: str | None,
               window_header: str | None) -> None:
        """Fold one successfully scored batch into the global and per-graph
        counters (client-reported coalesced-batch count and window along)."""
        try:
            batches = max(1, int(batches_header or "1"))
        except ValueError:
            batches = 1
        try:
            window = None if window_header is None else float(window_header)
        except ValueError:
            window = None
        with self._lock:
            self.request_count += 1
            self.row_count += rows
            stats = self._graph_stats[key]
            stats["requests"] += 1
            stats["rows"] += rows
            stats["client_batches"] += batches
            if window is not None:
                stats["window"] = window

    def stats(self) -> dict:
        """Global and per-graph serving counters (the ``/stats`` payload).

        Per graph: ``requests`` / ``rows`` (successful wire batches and
        their rows), ``shed`` (batches refused at the admission limit),
        ``client_batches`` (caller batches the clients coalesced into those
        requests), the derived ``coalescing_factor`` and the last
        client-reported dispatch ``window``.  Globals keep the legacy
        ``requests`` / ``rows`` names, plus ``shed`` (every refusal),
        ``inflight`` / ``peak_inflight``, the configured ``max_inflight``
        and ``connections`` (TCP connections accepted).
        """
        with self._lock:
            graphs = {}
            for key, graph in self._graphs.items():
                entry = dict(self._graph_stats[key])
                entry["source"] = graph.source
                entry["coalescing_factor"] = (
                    entry["client_batches"] / entry["requests"]
                    if entry["requests"] else None
                )
                graphs[key] = entry
            payload = {
                "requests": self.request_count,
                "rows": self.row_count,
                "shed": self.shed_count,
                "inflight": self._inflight,
                "peak_inflight": self.peak_inflight,
                "max_inflight": self.max_inflight,
                "connections": self.connection_count,
                "graphs": graphs,
            }
        return payload

    # -------------------------------------------------------------- lifecycle
    @property
    def url(self) -> str:
        """Base URL of the running server (``http://host:port``)."""
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_until_interrupted(self) -> None:
        """Block the calling thread until the server stops.

        Returns when :meth:`close` is called from another thread or the
        wait is interrupted (Ctrl-C) — this is what ``python -m fairexp
        serve`` parks its main thread on.
        """
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=1.0)
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        """Stop serving, join the request loop and release the socket.

        Idempotent and thread-safe: concurrent closers serialize on a
        lock, so every ``close()`` call returns only once the request-loop
        thread has actually exited — racing ``close`` against interpreter
        shutdown can no longer leak a live daemon thread behind the first
        caller's back.  The thread is joined *before* the socket closes so
        the serve loop never touches a dead socket.  Open keep-alive
        connections are then shut down and their handler threads joined,
        so a pooled client's next call fails as unreachable instead of
        reaching a server that is gone.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
            with self._lock:
                self._draining = True
                connections = dict(self._connections)
            for connection in connections:
                _shutdown_socket(connection)
            for handler in connections.values():
                handler.join(timeout=10.0)
            self._httpd.server_close()

    def __enter__(self) -> "ScoringServer":
        """Use the server as a context manager; :meth:`close` on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop the server on block exit."""
        self.close()


def _shutdown_socket(connection: socket.socket) -> None:
    """Shut a connection down both ways; its handler's read then ends."""
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:  # already closed by the peer or the handler
        pass


def serve_fleet(models_or_graphs, *, host: str = "127.0.0.1", port: int = 0,
                max_inflight: int | None = None) -> ScoringServer:
    """Start one loopback :class:`ScoringServer` hosting a whole model fleet.

    Each element of ``models_or_graphs`` is a fitted model (compiled via
    :func:`export_model`) or an existing :class:`ComputeGraph`; every graph
    is routed by its content hash.  This is the in-process twin of
    ``python -m fairexp serve --graph a.npz --graph b.npz``; one model is
    ``serve_fleet([model])``.
    """
    graphs = [graph if isinstance(graph, ComputeGraph) else export_model(graph)
              for graph in models_or_graphs]
    return ScoringServer(graphs, host=host, port=port, max_inflight=max_inflight)


# ---------------------------------------------------------------------------
# Coalescing remote client
# ---------------------------------------------------------------------------
class _PendingScore:
    """One caller's batch waiting for a coalesced wire call."""

    __slots__ = ("X", "event", "result", "error")

    def __init__(self, X: np.ndarray) -> None:
        self.X = X
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: Exception | None = None


class _ShedError(Exception):
    """A ``429`` shed reply from the server (internal to the retry loop)."""

    def __init__(self, retry_after: float, detail: str) -> None:
        super().__init__(detail)
        self.retry_after = retry_after


def _retry_backoff_sleep(delay: float) -> None:
    """Park the dispatching thread between shed retries.

    The one sanctioned ``time.sleep`` on the client path (lint rule FX007):
    naming the pause for its backoff role keeps it patchable in tests and
    visibly scoped to the retry ladder.
    """
    time.sleep(delay)


def _seconds(name: str, value, *, allow_zero: bool) -> float:
    """A finite duration in seconds: ``>= 0`` or ``> 0`` per ``allow_zero``.

    A NaN window would make the lane leader's ``Condition.wait`` return at
    once and spin; a negative timeout would surface as a bad reply.
    """
    seconds = math.nan
    if not isinstance(value, str):
        try:
            seconds = float(value)
        except (TypeError, ValueError):
            pass
    bound = ">= 0" if allow_zero else "> 0"
    if not math.isfinite(seconds) or seconds < 0 or (seconds == 0 and not allow_zero):
        raise ValidationError(
            f"{name} must be a finite number of seconds {bound}, got {value!r}")
    return seconds


def _graph_key(graph) -> str:
    """A graph's routing key: the content hash of a :class:`ComputeGraph`,
    or a hash string (as ``python -m fairexp serve`` prints them)."""
    if isinstance(graph, ComputeGraph):
        return graph.signature()
    if isinstance(graph, str) and graph:
        return graph
    raise ValidationError(
        "a remote batch must name its graph: pass a ComputeGraph or its "
        f"hash string, got {graph!r}"
    )


class _Lane:
    """One graph's dispatch lane: pending batches and leadership.

    Coalescing is per graph — batches bound for different graphs can never
    share a wire call — so the pending queue, leader flag and
    registered-peer count live on the lane, keyed by the graph's routing
    hash.
    """

    __slots__ = ("key", "pending", "leader_active", "registered")

    def __init__(self, key: str) -> None:
        self.key = key
        self.pending: list[_PendingScore] = []
        self.leader_active = False
        self.registered = 0


@guard_counters("wire_call_count", "wire_row_count", "coalesced_count",
                "shed_count", "retry_count", lock_attr="_cond")
class CoalescingScoringClient:
    """Batched scoring client with per-graph cross-caller request coalescing.

    Callers block in :meth:`score`; the first caller to arrive **on a
    graph's lane** becomes the *leader* of that lane's dispatch window.
    The leader waits until either every peer registered on the lane has a
    batch pending or the window elapses, then stacks all pending matrices
    into ONE ``POST /score`` wire call (carrying the graph hash) and fans
    the label slices back out.  Concurrent sessions sharing a client
    therefore issue strictly fewer wire calls than the same sessions with
    private clients, and a fleet of graphs multiplexes over one client
    without cross-graph batches ever mixing.

    A reply must be a 1-D vector of one bool, int or float label per row
    sent; any other reply is a failed wire call.  A failed wire call raises
    :class:`~fairexp.exceptions.ValidationError` in **every** coalesced
    caller; backends count calls/rows only after a successful dispatch (see
    :class:`~fairexp.explanations.backends.NumpyPredictBackend.predict`), so
    a scorer timeout never inflates session accounting.  A ``429`` shed
    reply (the server's admission limit) is retried with exponential
    backoff up to :attr:`MAX_RETRIES` times before failing the batch — rows
    are still only counted once, after the dispatch that finally lands.

    Wire calls ride persistent HTTP/1.1 connections from an idle pool (one
    checked out per in-flight call, returned after a complete response,
    dropped when the reply says ``Connection: close``).  A *reused*
    connection that fails before any status line — the server closed it
    while idle, or mid-batch — is retried once on a fresh connection;
    anything else fails the batch.  :meth:`close` closes the idle pool.

    Parameters
    ----------
    url:
        Base URL of a :class:`ScoringServer` (``http://127.0.0.1:PORT``).
    window:
        Seconds a lane's leader waits for peers before dispatching.  ``0``
        disables coalescing (every batch is its own wire call).  ``"auto"``
        is accepted as a name for the default window; any other string, a
        negative or a non-finite value raises
        :class:`~fairexp.exceptions.ValidationError`.
    timeout:
        Socket timeout for the wire call, in seconds: finite and positive.

    Attributes
    ----------
    wire_call_count, wire_row_count:
        Wire calls issued and total rows across them — the observable the
        coalescing benchmark asserts on.
    coalesced_count:
        Number of caller batches that shared another batch's wire call.
    shed_count, retry_count:
        Shed replies received and re-dispatches performed recovering from
        them.
    """

    DEFAULT_WINDOW = 0.02
    #: Shed handling: how many times a shed batch is re-dispatched, and the
    #: base backoff delay in seconds (doubled per attempt; the server's
    #: ``Retry-After`` hint overrides the base when larger).
    MAX_RETRIES = 8
    BACKOFF = 0.05

    def __init__(self, url: str, *, window=DEFAULT_WINDOW,
                 timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.window = self.DEFAULT_WINDOW if window == "auto" else _seconds(
            "window", window, allow_zero=True)
        self.timeout = _seconds("timeout", timeout, allow_zero=False)
        self.wire_call_count = 0
        self.wire_row_count = 0
        self.coalesced_count = 0
        self.shed_count = 0
        self.retry_count = 0
        self._lanes: dict[str, _Lane] = {}
        self._cond = make_condition()
        split = urllib.parse.urlsplit(self.url)
        self._host, self._port = split.hostname, split.port
        # Idle keep-alive connections: one is checked out per in-flight wire
        # call, so the pool grows to the peak number of concurrent calls.
        self._idle: list[http.client.HTTPConnection] = []

    # ---------------------------------------------------------------- lanes
    def _lane_locked(self, key: str) -> _Lane:
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = _Lane(key)
        return lane

    @property
    def registered_count(self) -> int:
        """Registered callers across every lane."""
        with self._cond:
            return sum(lane.registered for lane in self._lanes.values())

    # ----------------------------------------------------------- registration
    def register(self, graph) -> None:
        """Announce one more concurrent caller on a graph's lane.

        The lane's window leader stops waiting as soon as every registered
        caller has a batch pending, which makes the first wave of a
        concurrent sweep coalesce deterministically instead of racing the
        window.
        """
        key = _graph_key(graph)
        with self._cond:
            self._lane_locked(key).registered += 1

    def unregister(self, graph) -> None:
        """Detach one caller from a graph's lane (a backend closing)."""
        key = _graph_key(graph)
        with self._cond:
            lane = self._lane_locked(key)
            lane.registered = max(0, lane.registered - 1)
            self._cond.notify_all()

    # -------------------------------------------------------------- scoring
    def score(self, X: np.ndarray, graph) -> np.ndarray:
        """Labels for ``X`` via a (possibly shared) wire call on the
        graph's lane."""
        key = _graph_key(graph)
        request = _PendingScore(np.atleast_2d(np.asarray(X, dtype=float)))
        with self._cond:
            lane = self._lane_locked(key)
            lane.pending.append(request)
            self._cond.notify_all()
            lead = not lane.leader_active
            if lead:
                lane.leader_active = True
        if lead:
            self._lead_dispatch(lane)
        request.event.wait()
        if request.error is not None:
            raise request.error
        return request.result

    def _lead_dispatch(self, lane: _Lane) -> None:
        """Run one dispatch window on a lane: wait for peers, flush."""
        start = time.monotonic()
        with self._cond:
            while True:
                enough = (lane.registered > 0
                          and len(lane.pending) >= lane.registered)
                remaining = start + self.window - time.monotonic()
                if enough or remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            batch, lane.pending = lane.pending, []
            lane.leader_active = False
        self._flush(lane, batch)

    def _flush(self, lane: _Lane, batch: list[_PendingScore]) -> None:
        """Dispatch one stacked batch, retrying through shed replies."""
        def fail(error: Exception) -> None:
            for request in batch:
                request.error = error
                request.event.set()

        stacked = np.vstack([request.X for request in batch])
        attempt = 0
        while True:
            try:
                labels = self._wire_call(stacked, lane, len(batch))
                # One label per row, of a label dtype.  Float stays: a graph
                # of a model fitted on float targets answers float labels.
                if labels.shape != stacked.shape[:1] or labels.dtype.kind not in "biuf":
                    raise ValidationError(
                        f"scoring server at {self.url} answered {stacked.shape[0]} "
                        f"rows with a {labels.shape} array of {labels.dtype}; "
                        f"expected one bool, int or float label per row"
                    )
                break
            except _ShedError as shed:
                with self._cond:
                    self.shed_count += 1
                if attempt >= self.MAX_RETRIES:
                    fail(ValidationError(
                        f"scoring server shed the batch {attempt + 1} times "
                        f"(admission limit); giving up after "
                        f"{self.MAX_RETRIES} retries"
                    ))
                    return
                # Exponential backoff from the server's Retry-After hint
                # (capped: a deep backoff ladder must not stall a session
                # for longer than the overload it is riding out).
                delay = min(max(shed.retry_after, self.BACKOFF)
                            * (2.0 ** attempt), 1.0)
                _retry_backoff_sleep(delay)
                with self._cond:
                    self.retry_count += 1
                attempt += 1
            except Exception as error:  # noqa: BLE001 - fan the failure out
                fail(error)
                return
        with self._cond:
            self.wire_call_count += 1
            self.wire_row_count += int(stacked.shape[0])
            self.coalesced_count += len(batch) - 1
        offset = 0
        for request in batch:
            n = request.X.shape[0]
            request.result = labels[offset:offset + n]
            offset += n
            request.event.set()

    # ----------------------------------------------------------- connections
    def _connect(self) -> http.client.HTTPConnection:
        """A new connection to the server (``http.client`` sets
        ``TCP_NODELAY`` when it connects)."""
        return http.client.HTTPConnection(self._host, self._port,
                                          timeout=self.timeout)

    def _wire_call(self, X: np.ndarray, lane: _Lane, n_batches: int) -> np.ndarray:
        headers = {
            "Content-Type": "application/octet-stream",
            # The server folds these into its per-graph /stats: how many
            # caller batches this wire call coalesces, and the client's
            # dispatch window.
            "X-Fairexp-Batches": str(n_batches),
            "X-Fairexp-Window": f"{self.window:.6f}",
            "X-Fairexp-Graph": lane.key,
        }
        # The .npy header, then the stacked matrix's own buffer.  Without an
        # explicit Content-Length http.client would chunk-encode the tuple,
        # which the server does not parse.
        body = _npy_chunks(X)
        headers["Content-Length"] = str(sum(map(len, body)))
        with self._cond:
            pooled = self._idle.pop() if self._idle else None
        connection = self._connect() if pooled is None else pooled
        try:
            try:
                connection.request("POST", "/score", body=body, headers=headers)
                response = connection.getresponse()
            except (http.client.RemoteDisconnected, ConnectionResetError,
                    BrokenPipeError):
                if pooled is None:
                    raise
                # The server dropped a reused connection (idle, or with this
                # very request) before any status line: one retry on a
                # fresh connection.  Scoring is a pure function, so a batch
                # scored twice is still one correct answer.
                connection.close()
                connection = self._connect()
                connection.request("POST", "/score", body=body, headers=headers)
                response = connection.getresponse()
            if response.status == 200:
                labels = _Body(response, response.length or 0).read_array()
            else:
                detail = response.read().decode(errors="replace")
        except (OSError, http.client.HTTPException) as error:
            # Connection refused / reset / timed out (e.g. the server closed
            # with this batch in flight) surfaces as the library's own
            # exception, not a raw socket error — callers see a clean
            # backend failure.
            connection.close()
            raise ValidationError(
                f"scoring server unreachable at {self.url}: {error}"
            ) from error
        except ValueError as error:  # a malformed .npy reply
            connection.close()
            raise ValidationError(
                f"scoring server at {self.url} sent a bad reply: {error}") from error
        if response.will_close:
            connection.close()
        else:
            with self._cond:
                self._idle.append(connection)
        if response.status == 200:
            return labels
        if response.status == 429:
            try:
                retry_after = float(response.getheader("Retry-After") or 0.0)
            except ValueError:
                retry_after = 0.0
            raise _ShedError(retry_after, detail)
        raise ValidationError(
            f"scoring server rejected the batch ({response.status}): {detail}"
        )

    def close(self) -> None:
        """Close the pooled idle connections.

        Idempotent; the client stays usable — a later :meth:`score` opens
        a new connection.  A connection checked out by an in-flight wire
        call returns to the pool when its call completes.
        """
        with self._cond:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


class RemoteScoringBackend(NumpyPredictBackend):
    """Predict backend over one graph of a remote :class:`ScoringServer`.

    ``client`` is a :class:`CoalescingScoringClient`; concurrent sessions
    that share one have their predict batches stacked into shared wire
    calls, while each backend still counts **its own** calls and rows — and
    only after the dispatch succeeded — so per-session accounting sums to
    exactly what independent runs would report, shed retries included.

    ``graph`` names the hosted graph this backend's batches route to: a
    :class:`ComputeGraph` (its content hash is derived) or a hash string.
    Batches for different graphs ride different lanes of the shared client
    and never mix in a wire call.  The graph hash doubles as the backend's
    *store identity*: sessions driven through a remote backend fingerprint
    by it (never by the ephemeral server endpoint), so their populations
    stay store-addressable across server restarts.

    The backend declares ``releases_gil=True``: the wire call blocks on a
    socket, so thread-sharding across it scales (and is what lets the
    batches of several shards coalesce at all).
    """

    def __init__(self, client: CoalescingScoringClient, *, graph) -> None:
        super().__init__(model=None)
        self.name = "remote"
        self.releases_gil = True
        self.client = client
        self.graph_key = _graph_key(graph)
        self._detached = False
        client.register(self.graph_key)

    def _run(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.client.score(X, self.graph_key))

    def close(self) -> None:
        """Detach from the shared client (stops the leader waiting on us).

        Idempotent: a second close must not decrement ANOTHER live caller's
        registration — that would let the window leader believe every peer
        is gone and degrade coalescing to timeout-driven dispatch.
        """
        if self._detached:
            return
        self._detached = True
        self.client.unregister(self.graph_key)
