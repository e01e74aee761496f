"""In-memory span recorder that traces fairexp's layers from the outside.

:func:`instrument` patches the public entry points of each layer (the core
explainers, the audit session, the result store, the engine, the kernels,
the predict backends and the serving client/graph) with wrappers that record
one :class:`Span` per call: name, start, end, parent and a few counts taken
at the same boundary.  Nothing under ``src/`` changes, and every patch is
undone when the ``with`` block exits.

Parents come from a per-thread stack, so a span opened on one caller thread
never adopts a span of another thread as its parent (the server thread's
graph runs are roots).  :func:`layer_metrics` turns the recorded spans into
the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import threading
import time

import numpy as np

#: Kernel attribute of a ``KernelSet`` -> the short name reported for it.
KERNELS = {
    "project_candidates": "project",
    "batch_counterfactual_distance": "distance",
    "rank_changed_features": "rank",
    "build_prefix_revert_trials": "prefix_trials",
}


@dataclasses.dataclass
class Span:
    """One timed call: ``parent`` is the id of the enclosing span on the
    same thread (``None`` for a root); ``attrs`` holds counts taken at the
    call boundary."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds between the span's start and end."""
        return self.end - self.start


class Tracer:
    """Thread-safe in-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its ``attrs`` dict so
        the caller can attach counts observed at the boundary."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        attrs: dict = {}
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, attrs))


# ---------------------------------------------------------------- self time
def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Children on one thread never overlap, but the arithmetic does not rely
    on it: overlapping intervals are merged before they are summed.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cursor = 0.0, lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children.get(span.id, ()),
                                                span.start, span.end)
        for span in spans
    }


# ------------------------------------------------------------ instrumenting
def _nbytes(*values) -> int:
    """Bytes of the arrays among ``values`` (lists of arrays summed)."""
    total = 0
    for value in values:
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sum(np.asarray(item).nbytes for item in value)
    return total


def _traced(tracer: Tracer, name: str, original, observe=None, before=None):
    """Wrap ``original`` in a span; ``before(args)`` snapshots state ahead
    of the call and ``observe(attrs, args, result, snapshot)`` records
    counts after it (both run inside the span)."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            snapshot = before(args) if before is not None else None
            result = original(*args, **kwargs)
            if observe is not None:
                observe(attrs, args, result, snapshot)
            return result

    return wrapper


def _store_payload_files(args):
    store, fingerprint = args[0], args[1]
    return set(store.directory.glob(f"{fingerprint}.*.npz"))


def _observe_save(attrs, args, result, before):
    written = _store_payload_files(args) - before
    if written:
        store, fingerprint = args[0], args[1]
        manifest = store.directory / f"{fingerprint}.json"
        attrs["bytes"] = (manifest.stat().st_size
                          + sum(path.stat().st_size for path in written))


def _observe_load(attrs, args, result, bytes_before):
    attrs["hit"] = result is not None
    attrs["rows"] = len(result) if result else 0
    attrs["bytes"] = args[0].bytes_read - bytes_before


def _observe_counterfactuals_for(attrs, args, result, reused_before):
    session, indices = args[0], args[2]
    attrs["requested"] = len(set(int(i) for i in np.asarray(indices).ravel()))
    attrs["reused"] = session.result_reuse_count - reused_before


def _observe_generate(attrs, args, result, _):
    attrs["rows"] = len(result)
    attrs["solved"] = sum(1 for item in result if item is not None)


def _observe_search(attrs, args, result, before):
    generator = args[0]
    attrs["waves"] = generator.search_step_count - before[0]
    attrs["draws"] = generator.search_draw_count - before[1]


def _observe_memo(attrs, args, result, hits_before):
    attrs["hit"] = args[0].cache_hit_count > hits_before


def _observe_rows(attrs, args, result, _):
    attrs["rows"] = int(np.atleast_2d(args[1]).shape[0])


def _observe_kernel(attrs, args, result, _):
    attrs["bytes"] = _nbytes(*args, result)


@contextlib.contextmanager
def instrument(tracer: Tracer, kernel_set):
    """Patch every traced entry point for the duration of the block.

    ``kernel_set`` is the resolved :class:`~fairexp.explanations.kernels.KernelSet`
    the searches run on; its four kernels are traced one by one.
    """
    from fairexp.core import BurdenExplainer, NAWBExplainer
    from fairexp.explanations import (
        AuditSession,
        CoalescingScoringClient,
        ComputeGraph,
        CounterfactualEngine,
        CounterfactualStore,
        MemoizingPredictBackend,
        NumpyPredictBackend,
    )
    from fairexp.explanations import counterfactual, engine, session

    patches = [
        (BurdenExplainer, "explain", "core.explain", None, None),
        (NAWBExplainer, "explain", "core.explain", None, None),
        (AuditSession, "counterfactuals_for", "session.counterfactuals_for",
         lambda args: args[0].result_reuse_count, _observe_counterfactuals_for),
        (session, "population_fingerprint", "session.fingerprint", None, None),
        (CounterfactualStore, "load", "store.load",
         lambda args: args[0].bytes_read, _observe_load),
        (CounterfactualStore, "save", "store.save",
         _store_payload_files, _observe_save),
        (CounterfactualEngine, "generate_aligned", "engine.generate",
         None, _observe_generate),
        (counterfactual, "lockstep_candidate_search", "engine.search",
         lambda args: (args[0].search_step_count, args[0].search_draw_count),
         _observe_search),
        (engine, "greedy_sparsify_batch", "engine.sparsify", None, None),
        (MemoizingPredictBackend, "predict", "backends.memo",
         lambda args: args[0].cache_hit_count, _observe_memo),
        (NumpyPredictBackend, "predict", "backends.predict", None, _observe_rows),
        (CoalescingScoringClient, "score", "serving.score", None, None),
        (CoalescingScoringClient, "_wire_call", "serving.wire", None, _observe_rows),
        # The server calls the graph object itself, and ``__call__`` is bound
        # to the original ``run`` at class creation: patch both names.
        (ComputeGraph, "run", "serving.graph_run", None, None),
        (ComputeGraph, "__call__", "serving.graph_run", None, None),
    ]
    patches += [
        (kernel_set, attr, f"kernels.{short}", None, _observe_kernel)
        for attr, short in KERNELS.items()
    ]
    saved = []
    try:
        for owner, attr, name, before, observe in patches:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(tracer, name, original, observe, before))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------ layer metrics
def _has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    parent = span.parent
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor.name == name:
            return True
        parent = ancestor.parent
    return False


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], n_passes: int, *,
                  serving_counters: dict | None = None) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_passes`` traced audit passes.

    Seconds, counts and bytes are per pass; ratios and the score-latency
    percentiles are over every span.  ``serving_counters`` carries the
    clients' shed and retry totals, which have no span of their own.
    """
    by_id = {span.id: span for span in spans}
    own = self_times(spans)
    groups: dict[str, list[Span]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)

    def named(name):
        return groups.get(name, [])

    def total_time(name):
        return sum(span.duration for span in named(name)) / n_passes

    def total_self(name):
        return sum(own[span.id] for span in named(name)) / n_passes

    def total_attr(name, key):
        return sum(span.attrs.get(key, 0) for span in named(name))

    metrics: dict[str, float] = {}
    # engine
    generated_rows = total_attr("engine.generate", "rows")
    metrics["engine.search_self_s"] = total_self("engine.search")
    metrics["engine.sparsify_self_s"] = total_self("engine.sparsify")
    metrics["engine.generate_s"] = total_time("engine.generate")
    metrics["engine.waves"] = total_attr("engine.search", "waves") / n_passes
    metrics["engine.draws"] = total_attr("engine.search", "draws") / n_passes
    metrics["engine.predict_calls"] = sum(
        1 for span in named("backends.predict")
        if _has_ancestor(span, by_id, "engine.generate")
    ) / n_passes
    metrics["engine.solved_ratio"] = _ratio(
        total_attr("engine.generate", "solved"), generated_rows)
    # kernels, one by one
    for short in KERNELS.values():
        name = f"kernels.{short}"
        metrics[f"{name}_s"] = total_time(name)
        metrics[f"{name}_calls"] = len(named(name)) / n_passes
        metrics[f"{name}_bytes"] = total_attr(name, "bytes") / n_passes
    # backends
    predict_calls = len(named("backends.predict"))
    memo_requests = len(named("backends.memo"))
    memo_hits = total_attr("backends.memo", "hit")
    metrics["backends.predict_s"] = total_time("backends.predict")
    metrics["backends.predict_calls"] = predict_calls / n_passes
    metrics["backends.predict_rows"] = total_attr("backends.predict", "rows") / n_passes
    metrics["backends.rows_per_call"] = _ratio(
        total_attr("backends.predict", "rows"), predict_calls)
    metrics["backends.memo_hits"] = memo_hits / n_passes
    metrics["backends.memo_hit_ratio"] = _ratio(memo_hits, memo_requests)
    # store
    loads = len(named("store.load"))
    metrics["store.load_s"] = total_time("store.load")
    metrics["store.loads"] = loads / n_passes
    metrics["store.hit_ratio"] = _ratio(total_attr("store.load", "hit"), loads)
    metrics["store.rows_loaded"] = total_attr("store.load", "rows") / n_passes
    metrics["store.bytes_read"] = total_attr("store.load", "bytes") / n_passes
    metrics["store.save_s"] = total_time("store.save")
    metrics["store.saves"] = len(named("store.save")) / n_passes
    metrics["store.bytes_written"] = total_attr("store.save", "bytes") / n_passes
    # session
    requested = total_attr("session.counterfactuals_for", "requested")
    reused = total_attr("session.counterfactuals_for", "reused")
    metrics["session.counterfactuals_for_self_s"] = total_self("session.counterfactuals_for")
    metrics["session.fingerprint_s"] = total_time("session.fingerprint")
    metrics["session.rows_requested"] = requested / n_passes
    metrics["session.rows_reused"] = reused / n_passes
    metrics["session.reuse_ratio"] = _ratio(reused, requested)
    # core
    metrics["core.explain_self_s"] = total_self("core.explain")
    # serving
    scores = named("serving.score")
    score_ms = np.asarray([span.duration * 1e3 for span in scores])
    wire_calls = len(named("serving.wire"))
    counters = serving_counters or {}
    metrics["serving.score_calls"] = len(scores) / n_passes
    metrics["serving.score_s"] = total_time("serving.score")
    metrics["serving.score_p50_ms"] = float(np.median(score_ms)) if scores else 0.0
    metrics["serving.score_p95_ms"] = (float(np.percentile(score_ms, 95))
                                       if scores else 0.0)
    metrics["serving.score_samples"] = len(scores)
    metrics["serving.wire_calls"] = wire_calls / n_passes
    metrics["serving.wire_rows"] = total_attr("serving.wire", "rows") / n_passes
    metrics["serving.batches_per_wire_call"] = _ratio(len(scores), wire_calls)
    metrics["serving.graph_run_s"] = total_time("serving.graph_run")
    metrics["serving.wait_s"] = (metrics["serving.score_s"]
                                 - metrics["serving.graph_run_s"]) if scores else 0.0
    metrics["serving.shed"] = counters.get("shed", 0) / n_passes
    metrics["serving.retries"] = counters.get("retries", 0) / n_passes
    return metrics
