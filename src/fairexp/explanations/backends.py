"""Pluggable predict backends for the counterfactual engine.

The engine's hot path is ``model.predict`` over large stacked candidate
matrices.  This module isolates *how* those batches are evaluated behind a
small :class:`PredictBackend` protocol so that the dispatch strategy can be
swapped without touching the engine, the audits, or the counting interface
the benchmarks rely on:

* :class:`NumpyPredictBackend` — the default: forwards batches to an
  in-process model's vectorized ``predict`` and counts calls/rows;
* :class:`CallablePredictBackend` — adapts any ``f(X) -> labels`` callable
  (an ONNX runtime session's ``run``, a compiled kernel, a remote scoring
  service) to the same counting interface;
* :class:`MemoizingPredictBackend` — a coalescing wrapper around any other
  backend that serves repeated matrices from a memo, so audits sharing a
  session never pay twice for the same population.

The out-of-process backends — :class:`~fairexp.explanations.serving.OnnxExportBackend`
(a serialized NumPy compute graph, no model import needed) and
:class:`~fairexp.explanations.serving.RemoteScoringBackend` (a coalescing
client over ``python -m fairexp serve``) — build on these classes and live
in :mod:`fairexp.explanations.serving`.

All backends are thread-safe with respect to their counters and memo, which
is what lets the engine execute shards of a work-list across a worker pool
against one shared backend (see
:class:`~fairexp.explanations.engine.CounterfactualEngine`).
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..lint.tsan import guard_counters, make_lock

__all__ = [
    "PredictBackend",
    "NumpyPredictBackend",
    "CallablePredictBackend",
    "MemoizingPredictBackend",
    "ensure_backend",
]


@runtime_checkable
class PredictBackend(Protocol):
    """Counting predict dispatcher: the engine's only view of a model.

    Implementations must set ``is_predict_backend = True`` (how
    :func:`ensure_backend` distinguishes a backend from a bare model, since
    both expose ``predict``) and maintain ``call_count`` / ``row_count``
    across threads.  ``releases_gil`` declares whether ``predict`` spends its
    time outside the GIL (vectorized NumPy does; pure-Python callables and
    GIL-holding extension predictors do not) — the engine reads it to choose
    between thread- and process-based sharding.
    """

    is_predict_backend: bool
    name: str
    releases_gil: bool

    def predict(self, X) -> np.ndarray:
        """Labels for a candidate matrix ``X``, counted as one call."""
        ...

    def reset_counts(self) -> None:
        """Zero the call/row counters (and drop any memo)."""
        ...


@guard_counters("call_count", "row_count")
class NumpyPredictBackend:
    """Default backend: vectorized in-process ``model.predict`` batches.

    Attributes
    ----------
    call_count, row_count:
        Number of forwarded ``predict`` invocations and total rows across
        them — the quantities :class:`~fairexp.explanations.BatchModelAdapter`
        re-exports as ``predict_call_count`` / ``predict_row_count``.
    """

    is_predict_backend = True
    name = "numpy"
    # Vectorized NumPy predict spends its time in BLAS/ufunc loops, which
    # release the GIL — thread-sharding scales, so the engine keeps the
    # cheap thread pool.
    releases_gil = True

    def __init__(self, model) -> None:
        self.model = model
        self.call_count = 0
        self.row_count = 0
        self._lock = make_lock()

    # Memo-less backends report zero hits so the adapter's counting
    # interface is uniform across the backend stack.
    cache_hit_count = 0

    def _run(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.model.predict(X))

    def predict(self, X) -> np.ndarray:
        """Labels for ``X`` via one counted vectorized model call.

        Counting happens only after ``_run`` returns: a raising predict
        (exactly what a remote scorer timeout looks like) must not inflate
        the session accounting the BENCH_* trajectories are built from —
        callers retrying a failed batch would otherwise double-count it.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        result = self._run(X)
        with self._lock:
            self.call_count += 1
            self.row_count += int(X.shape[0])
        return result

    def reset_counts(self) -> None:
        """Zero the call/row counters."""
        with self._lock:
            self.call_count = 0
            self.row_count = 0

    def add_counts(self, calls: int, rows: int) -> None:
        """Fold externally observed predict work into this backend's counters.

        The engine's process-sharded path runs each shard against a fresh
        backend inside the worker; the parent calls this with the workers'
        totals so session-wide accounting stays honest across process
        boundaries.
        """
        with self._lock:
            self.call_count += int(calls)
            self.row_count += int(rows)


class CallablePredictBackend(NumpyPredictBackend):
    """Backend over a bare ``f(X) -> labels`` callable.

    This is the slot for out-of-process predictors — an ONNX runtime
    session, a compiled kernel, or a remote scoring endpoint — anything that
    maps a candidate matrix to labels without exposing a model object.

    Parameters
    ----------
    fn:
        The predict callable mapping an ``(n, d)`` matrix to ``n`` labels.
    name:
        Display name for diagnostics.
    releases_gil:
        Whether ``fn`` releases the GIL while it runs.  Defaults to
        ``False`` — an arbitrary Python callable holds the GIL, so
        thread-sharding it would serialize; the engine responds by
        sharding across processes instead.  Set ``True`` for
        callables that genuinely drop the GIL (ONNX runtime sessions,
        network-bound remote scorers).
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], *, name: str = "callable",
                 releases_gil: bool = False) -> None:
        super().__init__(model=None)
        self.fn = fn
        self.name = name
        self.releases_gil = releases_gil

    def _run(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(X))


@guard_counters("cache_hit_count")
class MemoizingPredictBackend:
    """Coalescing/memoizing wrapper around another backend.

    Repeated ``predict`` calls on a bitwise-identical matrix are served from
    a memo instead of re-invoking the inner backend; memo hits do not count
    as forwarded calls.  This is what makes an
    :class:`~fairexp.explanations.session.AuditSession` cheap when several
    audits score the same population: only the first audit pays.

    The wrapped model must stay frozen for the lifetime of the memo —
    refitting it in place would keep serving stale labels.  Callers that
    refit between audits should use the inner backend directly or call
    :meth:`reset_counts` (which clears the memo).

    Parameters
    ----------
    inner:
        The backend actually evaluating cache misses.
    max_rows:
        Matrices with more rows than this bypass the memo (hashing huge
        candidate batches costs more than the predict it saves).
    max_entries:
        The memo is cleared once it holds this many entries.
    """

    is_predict_backend = True
    name = "memo"

    def __init__(self, inner, *, max_rows: int = 2048, max_entries: int = 256) -> None:
        self.inner = ensure_backend(inner)
        self.max_rows = max_rows
        self.max_entries = max_entries
        self.cache_hit_count = 0
        self._memo: dict[tuple, np.ndarray] = {}
        self._lock = make_lock()

    # ------------------------------------------------------------ delegation
    @property
    def model(self):
        """The inner backend's model, if it exposes one."""
        return getattr(self.inner, "model", None)

    @property
    def call_count(self) -> int:
        """Forwarded (non-memo) predict invocations, from the inner backend."""
        return self.inner.call_count

    @property
    def row_count(self) -> int:
        """Total rows across forwarded predict calls, from the inner backend."""
        return self.inner.row_count

    @property
    def releases_gil(self) -> bool:
        """Memoization adds no GIL-bound work; the inner backend decides."""
        return getattr(self.inner, "releases_gil", True)

    def add_counts(self, calls: int, rows: int) -> None:
        """Forward externally observed predict work to the inner counters.

        No-op when the inner backend is a third-party implementation without
        count folding — dropped accounting beats a crashed audit.
        """
        add = getattr(self.inner, "add_counts", None)
        if add is not None:
            add(calls, rows)

    # ------------------------------------------------------------- interface
    def predict(self, X) -> np.ndarray:
        """Labels for ``X`` — from the memo when an identical matrix was
        already evaluated, otherwise via the (counted) inner backend."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        key = None
        if X.shape[0] <= self.max_rows:
            key = (X.shape, X.tobytes())
            with self._lock:
                hit = self._memo.get(key)
                if hit is not None:
                    self.cache_hit_count += 1
                    return hit.copy()
        result = self.inner.predict(X)
        if key is not None:
            with self._lock:
                if len(self._memo) >= self.max_entries:
                    self._memo.clear()
                self._memo[key] = result.copy()
        return result

    def clear_memo(self) -> None:
        """Drop memoized predictions without touching any counters.

        This is what :meth:`AuditSession.reset_results` calls so a refit
        model stops being served stale labels while the sweep's accounting
        keeps accumulating.
        """
        with self._lock:
            self._memo.clear()

    def reset_counts(self) -> None:
        """Zero every counter and drop the memo (inner backend included)."""
        with self._lock:
            self.cache_hit_count = 0
            self._memo.clear()
        self.inner.reset_counts()


def ensure_backend(model_or_backend) -> PredictBackend:
    """Coerce a model or backend to a :class:`PredictBackend`.

    Objects flagging ``is_predict_backend`` pass through untouched (so
    third-party ONNX/remote backends slot in without subclassing); anything
    else is treated as an in-process model and wrapped in the vectorized
    NumPy default.
    """
    if getattr(model_or_backend, "is_predict_backend", False):
        return model_or_backend
    return NumpyPredictBackend(model_or_backend)
