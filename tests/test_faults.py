"""One generated fault matrix: damaged state ends in a recompute or a clear
error, never in a wrong number.

Every case is a row of :data:`FAULTS`, one dict of rows per layer.
**store** rows damage one file of one entry a small E1 burden + NAWB audit
published cold, in a copy that ``store inspect``, ``store evict`` and a save
past the bounds then read before the audit runs warm on it.  **reply** rows make a stub
scoring server answer one batch, on a fresh and on a kept connection, for an
int-label and a float-label graph.  **request** rows send a damaged body to
the real server; the **pool** case kills a worker mid-map.  Hypothesis draws
offsets, lengths, values and cut points.  Every case ends bitwise-equal to
the cold run (a damaged entry counted as a miss and republished byte for
byte; a hit only if all the reader consults is as published) or in a
``ValidationError`` naming the layer.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexp import workloads
from fairexp.cli import main
from fairexp.core import BurdenExplainer, NAWBExplainer
from fairexp.exceptions import ValidationError
from fairexp.explanations import (AuditSession, CallablePredictBackend,
                                  CoalescingScoringClient, CounterfactualBatch,
                                  CounterfactualStore, RemoteScoringBackend,
                                  export_model, population_fingerprint, serve_fleet)
from fairexp.explanations import session as session_module
from fairexp.explanations.pool import ExecutorPool
from fairexp.models import DecisionTreeClassifier

POPULATIONS = {"biased": (1.2, 1.0), "fair": (0.0, 0.0)}   # E1, at half size
N_SAMPLES, AUDIT_SIZE = 300, 40
READ_FIELDS = ("format_version", "fingerprint", "payload", "entry_sha256",
               "n_rows", "n_features")   # what the store's reader consults
TIMEOUT = 1.0   # the scoring client's socket timeout in the reply rows

_JSON = st.recursive(   # any JSON value, the edge numbers of a count included
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from([-1, 0, 10**30, 1.0, math.inf, -math.inf, math.nan, "\u00e9t\u00e9"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5)


def _cut(blob: bytes, data, label: str) -> bytes:
    """A strict prefix of ``blob``, of any length."""
    return blob[:data.draw(st.integers(0, len(blob) - 1), label=label)]


def _flip(files, other, target, data):
    blob = bytearray(files[target].read_bytes())
    blob[data.draw(st.integers(0, len(blob) - 1), label="offset")] ^= 0xFF
    files[target].write_bytes(blob)


def _manifest(files, edit) -> None:
    files["manifest"].write_text(json.dumps(edit(json.loads(files["manifest"].read_text()))))


def _resize_resigned(files, other, target, data):
    """The payload cut at any length or one byte longer, under a checksum
    valid for this entry: only the checks behind the checksum can refuse it."""
    blob = _cut(files["payload"].read_bytes() + b"\0\0", data, "length")
    files["payload"].write_bytes(blob)
    checksum = hashlib.sha256(files["manifest"].stem.encode() + blob).hexdigest()
    _manifest(files, lambda manifest: {**manifest, "entry_sha256": checksum})


def _swap_with_checksum(files, other, target, data):
    theirs = json.loads(other["manifest"].read_text())
    _manifest(files, lambda manifest: {**manifest, **{
        key: theirs[key] for key in ("entry_sha256", "n_rows", "n_features")}})
    files[target].write_bytes(other[target].read_bytes())


def _rewrite(files, other, field, data):
    """Any JSON value, or a published count restated as a float or a string."""
    count = json.loads(files["manifest"].read_text()).get(field)
    restated = st.sampled_from([float(count), str(count)]) if type(count) is int else st.nothing()
    value = data.draw(restated | _JSON, label="value")
    _manifest(files, lambda manifest: value if field == "document" else {**manifest, field: value})


def _npy(array) -> bytes:
    out = io.BytesIO()
    np.save(out, array, allow_pickle=True)
    return out.getvalue()


def _body(body: bytes) -> bytes:
    return f"Content-Length: {len(body)}\r\n\r\n".encode() + body


def _reply(labels, status="200 OK", body=None) -> bytes:
    """An HTTP reply carrying ``labels`` (or ``body``), as the wire does."""
    return f"HTTP/1.1 {status}\r\n".encode() + _body(_npy(labels) if body is None else body)


def _kills_workers(model, X):
    """``model.predict`` in the parent; SIGKILLs any worker process."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return model.predict(X)


BOTH = ("manifest", "payload")
FAULTS = {
    # name -> (apply(files, other entry's files, target, data), targets): the
    # files a row damages, or the manifest fields it rewrites.
    "store": {
        "flip": (_flip, BOTH),
        "truncate": (lambda f, o, t, d: f[t].write_bytes(_cut(f[t].read_bytes(), d, "cut")), BOTH),
        "delete": (lambda f, o, t, d: f[t].unlink(), BOTH),
        "swap": (lambda f, o, t, d: f[t].write_bytes(o[t].read_bytes()), BOTH),
        "swap-with-checksum": (_swap_with_checksum, ("payload",)),
        "resize-resigned": (_resize_resigned, ("payload",)),
        "rewrite": (_rewrite, ("document", *READ_FIELDS, "updated_at")),
    },
    # name -> apply(labels, data): the reply to one batch.
    "reply": {
        "none": lambda y, d: _reply(y),
        "2-d": lambda y, d: _reply(np.column_stack([y, y]).astype(float)),
        "object": lambda y, d: _reply(y.astype(object)),
        "string": lambda y, d: _reply(y.astype(str)),
        "row-short": lambda y, d: _reply(y[:-1]),
        "row-long": lambda y, d: _reply(np.append(y, y[:1])),
        # Closed after k bytes, for any k up to the whole reply; "dropped"
        # is k = 0, which a kept connection retries once on a fresh one.
        "closed": lambda y, d: _cut(_reply(y) + b"\0", d, "k"),
        "dropped": lambda y, d: b"",
        "5xx": lambda y, d: _reply(y, "503 Service Unavailable", b"busy"),
        "stall": lambda y, d: None,
    },
    # name -> apply(X): the tail of a request, from its last header on.
    "request": {
        # The header declares 10 rows; 5 follow it.
        "short": lambda X: _body(_npy(X)[:len(_npy(X[:0])) + X[:5].nbytes]),
        # A request line trails the payload: a kept connection would answer it.
        "long": lambda X: _body(_npy(X) + b"GET /healthz HTTP/1.1\r\n\r\n"),
        "object": lambda X: _body(_npy(np.array([{"a": 1}, None], dtype=object))),
        "bad-magic": lambda X: _body(b"NOTNUMPY" + _npy(X)[8:]),
        "negative-length": lambda X: b"Content-Length: -1\r\n\r\n",
    },
}
STORE_CASES = [(name, label, target) for name, (_, targets) in FAULTS["store"].items()
               for label in POPULATIONS for target in targets]


@functools.lru_cache(maxsize=None)
def _workloads() -> dict:
    return {label: workloads._loan_workload(N_SAMPLES, direct_bias=bias, recourse_gap=gap)
            for label, (bias, gap) in POPULATIONS.items()}


def _audit(store, predict_with=None, n_jobs: int = 1) -> tuple[dict, dict]:
    """Burden + NAWB per population (floats as hex, so ``==`` is bitwise)
    and each session's stats."""
    metrics, stats = {}, {}
    for label, (dataset, train, test, model) in _workloads().items():
        rows = test.subset(np.arange(AUDIT_SIZE))
        with AuditSession(workloads._generator_for(dataset, train, model), n_jobs=n_jobs,
                          backend=predict_with and predict_with(model), store=store) as session:
            burden = BurdenExplainer(session=session).explain(rows.X, rows.sensitive_values)
            nawb = NAWBExplainer(session=session).explain(rows.X, rows.y, rows.sensitive_values)
            stats[label] = session.stats()
        metrics[label] = {key: float(value).hex()
                          for key, value in {**burden.as_dict(), **nawb.as_dict()}.items()}
    return metrics, stats


def _payloads(directory) -> dict:
    """fingerprint -> SHA-256 of the payload file its manifest names."""
    return {path.stem: hashlib.sha256(Path(directory, json.loads(path.read_text(
        errors="surrogateescape"))["payload"]).read_bytes()).hexdigest()
        for path in CounterfactualStore(directory)._entry_manifests()}


@pytest.fixture(scope="module")
def cold(tmp_path_factory) -> dict:
    directory = tmp_path_factory.mktemp("cold-store")
    metrics, _ = _audit(directory)
    fingerprints = {label: population_fingerprint(
        workloads._generator_for(dataset, train, model), test.subset(np.arange(AUDIT_SIZE)).X)
        for label, (dataset, train, test, model) in _workloads().items()}
    manifests = {label: json.loads((directory / f"{fingerprint}.json").read_text())
                 for label, fingerprint in fingerprints.items()}
    return dict(directory=directory, metrics=metrics, fingerprints=fingerprints,
                manifests=manifests, payloads=_payloads(directory))


def _reads_as_published(files: dict, manifest: dict, payload: str) -> bool:
    try:
        damaged = json.loads(files["manifest"].read_text(errors="surrogateescape"))
        blob = files["payload"].read_bytes()
    except (OSError, ValueError):
        return False
    # Spelt as published: 5.0 or "5" for 5 is damage, though 5.0 == 5.
    return (isinstance(damaged, dict) and hashlib.sha256(blob).hexdigest() == payload
            and all(key in damaged and json.dumps(damaged[key]) == json.dumps(manifest[key])
                    for key in READ_FIELDS))


def _store_cli(directory: Path, intact: str) -> None:
    """``store inspect`` and ``store evict`` exit 0; inspection lists the
    intact entry; eviction within the bounds evicts nothing, keeps it
    loadable and leaves no manifest that inspection cannot read."""
    def run(*action) -> str:
        out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")   # a strict stdout
        with contextlib.redirect_stdout(out):
            assert main(["store", *action, "--dir", str(directory)]) == 0
        out.seek(0)
        return out.read()

    run("inspect")
    assert intact in {e["fingerprint"] for e in json.loads(run("inspect", "--json"))["entries"]}
    assert run("evict", "--max-entries", "2").startswith("evicted 0 entries")
    store = CounterfactualStore(directory)
    assert store.entries() == sorted(e["fingerprint"] for e in store.entry_details())
    assert store.load(intact) is not None


@pytest.mark.parametrize("case", STORE_CASES, ids="-".join)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_store(cold, case, data):
    name, label, target = case
    other = next(name for name in POPULATIONS if name != label)
    with tempfile.TemporaryDirectory() as root:
        directory = Path(root, "store")
        shutil.copytree(cold["directory"], directory)
        files, theirs = ({"manifest": directory / f"{m['fingerprint']}.json",
                          "payload": directory / m["payload"]}
                         for m in (cold["manifests"][label], cold["manifests"][other]))
        FAULTS["store"][name][0](files, theirs, target, data)
        may_hit = _reads_as_published(files, cold["manifests"][label],
                                      cold["payloads"][cold["fingerprints"][label]])
        for copy in ("cli", "direct"):
            shutil.copytree(directory, Path(root, copy))
        _store_cli(Path(root, "cli"), cold["fingerprints"][other])
        direct = CounterfactualStore(Path(root, "direct"))
        if direct.load(cold["fingerprints"][label]) is None:   # a miss discards the damage
            assert cold["fingerprints"][label] not in direct.entries()
        direct.max_entries = 1   # the save scans every manifest, damaged ones too
        direct.save("f" * 64, CounterfactualBatch.unsolved([0], 1))
        assert direct.entries() == ["f" * 64]
        metrics, stats = _audit(directory)
        assert metrics == cold["metrics"]
        assert (stats[other]["store_hits"], stats[other]["engine_predict_calls"]) == (1, 0)
        damaged = stats[label]
        assert damaged["store_hits"] + damaged["store_misses"] == 1
        assert may_hit or damaged["store_misses"] == 1
        assert (damaged["engine_predict_calls"] > 0) == (damaged["store_misses"] == 1)
        assert _payloads(directory) == cold["payloads"]   # republished byte for byte


class _StubHandler(BaseHTTPRequestHandler):
    """Counts connections; answers the next request with the armed reply,
    then closes (``None``: nothing until past the client's timeout)."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connections += 1

    def log_message(self, *args):
        """Quiet."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        armed = bool(self.server.armed)
        reply = self.server.armed.pop() if armed else self.server.clean
        if reply is None:
            time.sleep(2 * TIMEOUT)
        else:
            self.wfile.write(reply)
        self.close_connection = armed


@pytest.fixture(scope="module")
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.daemon_threads, server.armed, server.connections = True, [], 0
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                     daemon=True).start()
    yield server
    server.shutdown()
    server.server_close()


@functools.lru_cache(maxsize=None)
def _graphs() -> dict:
    _, train, _, model = _workloads()["biased"]
    tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(train.X, train.y * 1.0)
    return {"int-labels": export_model(model), "float-labels": export_model(tree)}


def _scored(backend, X, expected) -> int:
    """1 if ``backend`` labels ``X`` bitwise as ``expected``; 0 if it raises
    a ValidationError naming the scoring server."""
    try:
        labels = backend.predict(X)
    except ValidationError as error:
        assert "scoring server" in str(error)
        return 0
    assert (labels.dtype, labels.shape, labels.tobytes()) == \
        (expected.dtype, expected.shape, expected.tobytes())
    return 1


@pytest.mark.parametrize("graph", ["int-labels", "float-labels"])
@pytest.mark.parametrize("fault", FAULTS["reply"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_reply(stub, fault, graph, data):
    graph = _graphs()[graph]
    X = _workloads()["biased"][2].X[:7]
    expected = graph.run(X)
    clean, reply = _reply(expected), FAULTS["reply"][fault](expected, data)
    stub.clean = clean
    client = CoalescingScoringClient(f"http://127.0.0.1:{stub.server_address[1]}",
                                     window=0.0, timeout=TIMEOUT)
    backend = RemoteScoringBackend(client, graph=graph)
    landed = 0
    for kept in (False, True):
        if kept:   # a clean call first, so the fault meets a kept connection
            assert _scored(backend, X, expected) == 1
            landed += 1
        stub.armed.append(reply)
        connections = stub.connections
        outcome = _scored(backend, X, expected)
        # Only a kept connection dropped before any byte is retried, once, and lands.
        retried = kept and reply == b""
        assert stub.connections - connections == (not kept) + retried
        assert outcome or (reply != clean and not retried)
        landed += outcome
    assert (backend.call_count, backend.row_count, client.wire_row_count) == \
        (landed, landed * len(X), landed * len(X))   # counted on success only
    backend.close()
    client.close()


@pytest.mark.parametrize("fault", FAULTS["request"])
def test_request(fault):
    """A prompt 400 that closes the connection and holds no admission
    slot: on a ``max_inflight=1`` server the next batch scores, unshed."""
    _, _, test, model = _workloads()["biased"]
    with serve_fleet([model], max_inflight=1) as server:
        host, port = server.url.rsplit("/", 1)[-1].split(":")
        start = time.perf_counter()
        with socket.create_connection((host, int(port)), timeout=5.0) as sock:
            sock.sendall(f"POST /score HTTP/1.1\r\nX-Fairexp-Graph: {server.graph_keys()[0]}"
                         f"\r\n".encode() + FAULTS["request"][fault](test.X[:10]))
            reply = b"".join(iter(lambda: sock.recv(1 << 16), b""))   # until it closes
        assert reply.startswith(b"HTTP/1.0 400") or reply.startswith(b"HTTP/1.1 400"), reply
        assert b"Connection: close" in reply and time.perf_counter() - start < 2.0
        assert server.stats()["inflight"] == 0
        client = CoalescingScoringClient(server.url, window=0.0)
        backend = RemoteScoringBackend(client, graph=server.graph_keys()[0])
        assert _scored(backend, test.X[:6], model.predict(test.X[:6])) == 1
        backend.close()
        client.close()
        assert (server.shed_count, server.request_count) == (0, 1)


def test_pool(cold, monkeypatch):
    """A worker killed mid-map: the broken process pool is reset and the
    shards recomputed on threads, so no partial batch reaches an audit or
    the store."""
    monkeypatch.setattr(session_module, "ExecutorPool",
                        functools.partial(ExecutorPool, max_workers=2))
    with tempfile.TemporaryDirectory() as directory:
        metrics, stats = _audit(directory, n_jobs=2, predict_with=lambda model:
                                CallablePredictBackend(functools.partial(_kills_workers, model)))
        payloads = _payloads(directory)
    assert metrics == cold["metrics"]
    assert sorted(payloads.values()) == sorted(cold["payloads"].values())
    for label in POPULATIONS:
        assert stats[label]["pool_process_executors_created"] > 0
        assert stats[label]["pool_thread_executors_created"] > 0
        assert stats[label]["pool_process_workers"] == 0   # the broken executor is gone
