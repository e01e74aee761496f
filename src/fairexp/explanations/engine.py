"""Batched counterfactual engine.

The per-instance counterfactual searches behind the paper's headline
quantities (burden [72], NAWB [73], PreCoF [71], the recourse-gap audits and
GLOBE-CE) are the hot path of the library: a naive audit issues dozens of
tiny ``model.predict`` calls per explained individual.  This module provides
the two pieces that coalesce that work into large vectorized predict batches:

* :class:`BatchModelAdapter` — wraps any classifier, counts and (optionally)
  caches ``predict`` calls so benchmarks can track the predict-call
  trajectory, not just wall time.  Dispatch itself lives behind the
  :class:`~fairexp.explanations.backends.PredictBackend` protocol
  (vectorized NumPy by default; ONNX / remote backends slot in behind the
  same counting interface);
* :class:`CounterfactualEngine` — drives a generator's cross-instance
  ``generate_batch_aligned`` kernel — optionally sharded across a worker
  pool (``n_jobs``) with bitwise-identical merged results — and maps results
  back onto caller order, which is what the core fairness explainers
  (:class:`~fairexp.core.burden.BurdenExplainer` and friends) build on.
  The backend alone picks the shard workers: processes when it declares
  ``releases_gil=False``, threads otherwise.

One layer up, :class:`~fairexp.explanations.session.AuditSession` owns one
adapter + engine pair and shares each population's counterfactual matrix
across every audit that requests it (session → engine → backend).

These batched searches are the generators' only search path: a
generator's ``generate(x)`` is ``generate_batch_aligned(x[None])[0]``.  With
an integer ``random_state`` every instance reads the same seeded stream, and
its candidate offsets depend only on (draws it has consumed, rung), so the
search draws each distinct pair once and shares it across the instances at
that position; a row's result does not depend on the batch it is searched
in.  For the sampling-based generators that holds bitwise; for gradient
ascent it holds up to the floating-point associativity of the backing BLAS
(single-row vs. batched mat-vec products can differ in the last ulp, which a
long gradient trajectory amplifies to ~1e-13).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import pickle
from typing import Callable

import numpy as np

from ..exceptions import ValidationError
from .backends import (
    CallablePredictBackend,
    MemoizingPredictBackend,
    NumpyPredictBackend,
    ensure_backend,
)
from .base import CounterfactualBatch
from .kernels import resolve_kernels
from .pool import ExecutorPool
from .schedules import GeometricSchedule, SearchSchedule

__all__ = [
    "BatchModelAdapter",
    "CounterfactualEngine",
    "effective_backend",
    "generator_config",
    "generator_config_is_faithful",
    "greedy_sparsify_batch",
    "lockstep_candidate_search",
    "shard_indices",
]


class BatchModelAdapter:
    """Counting / caching proxy around a classifier's prediction interface.

    Predict dispatch is delegated to a :class:`~fairexp.explanations.backends.PredictBackend`
    stack: a :class:`~fairexp.explanations.backends.NumpyPredictBackend` by
    default, optionally wrapped in a
    :class:`~fairexp.explanations.backends.MemoizingPredictBackend` when
    ``cache=True``.  The adapter itself only re-exports the backend's
    counters under their historical names and forwards every non-``predict``
    attribute to the wrapped model, so it stays a drop-in replacement for the
    model everywhere an audit expects one.

    Parameters
    ----------
    model:
        Any object exposing ``predict`` (and optionally ``predict_proba`` /
        ``gradient_input``).  May be omitted when ``backend`` is given.
    backend:
        An explicit :class:`~fairexp.explanations.backends.PredictBackend`
        (e.g. a :class:`~fairexp.explanations.backends.CallablePredictBackend`
        over an ONNX session or remote service).  Defaults to the vectorized
        NumPy backend over ``model``.
    cache:
        When ``True``, the backend is wrapped in a memoizing backend so
        repeated ``predict`` calls on an identical matrix are served from a
        memo (with the memoizing backend's default row and entry bounds).
        Cache hits do not count as predict calls.

    Attributes
    ----------
    predict_call_count:
        Number of ``predict`` invocations forwarded to the backend —
        the quantity the benchmarks record in ``benchmark.extra_info``.
    predict_row_count:
        Total number of rows across forwarded ``predict`` calls.
    cache_hit_count:
        Number of ``predict`` requests served from the memo.
    """

    def __init__(self, model=None, *, backend=None, cache: bool = True) -> None:
        if backend is None:
            if model is None:
                raise ValidationError("BatchModelAdapter needs a model or a backend")
            backend = NumpyPredictBackend(model)
        else:
            backend = ensure_backend(backend)
            if model is None:
                model = getattr(backend, "model", None)
        if cache and not isinstance(backend, MemoizingPredictBackend):
            backend = MemoizingPredictBackend(backend)
        self.model = model
        self.backend = backend

    @property
    def cache(self) -> bool:
        """Whether predictions are memoized — derived from the backend stack,
        so it cannot drift from what ``predict`` actually does (swap the
        backend to change it)."""
        return isinstance(self.backend, MemoizingPredictBackend)

    # ------------------------------------------------------------- interface
    def predict(self, X) -> np.ndarray:
        """Labels for ``X`` through the counting (and optionally memoizing)
        backend stack."""
        return self.backend.predict(X)

    def __getattr__(self, name):
        # Forward everything else (predict_proba, gradient_input, score,
        # coef_, distance_to_boundary, ...) so the adapter is a drop-in
        # replacement for the wrapped model.  Forwarding instead of defining
        # the optional methods keeps ``hasattr``-based capability checks
        # (e.g. GradientCounterfactual requiring ``gradient_input``) honest.
        if name in ("model", "backend"):
            raise AttributeError(name)
        model = self.model
        if model is None:
            raise AttributeError(name)
        return getattr(model, name)

    # ------------------------------------------------------------ accounting
    @property
    def predict_call_count(self) -> int:
        """Number of predict invocations forwarded to the backend."""
        return self.backend.call_count

    @property
    def predict_row_count(self) -> int:
        """Total rows across forwarded predict calls."""
        return self.backend.row_count

    @property
    def cache_hit_count(self) -> int:
        """Predict requests served from the backend's memo (0 without one)."""
        return getattr(self.backend, "cache_hit_count", 0)

    def clear_memo(self) -> None:
        """Drop memoized predictions (no-op without a memoizing backend)."""
        clear = getattr(self.backend, "clear_memo", None)
        if clear is not None:
            clear()

    def reset_counts(self) -> None:
        """Zero the backend's counters (and drop its memo, if any)."""
        self.backend.reset_counts()


def greedy_sparsify_batch(generator, X_rows: np.ndarray, candidates: np.ndarray
                          ) -> np.ndarray:
    """Batched greedy sparsification, exactly equivalent to the per-feature loop.

    The greedy loop walks a candidate's changed features in order
    of increasing scaled magnitude and reverts each one whose revert keeps the
    target class — one single-row ``model.predict`` per feature.  This kernel
    keeps the *identical* greedy semantics while batching the model work:
    each round speculatively evaluates, for every active instance, the whole
    chain of cumulative prefix reverts in ONE stacked predict call.  As long
    as reverts are accepted the greedy trial at step ``j`` equals the ``j``-th
    prefix trial, so the first rejected revert in the prefix chain pins down
    the greedy state exactly; the chain is then rebuilt from the remaining
    features.  Predict calls drop from (#changed features) per instance to
    (#rejected reverts + 1) rounds shared by the whole batch.

    Each round works on whole arrays.  The greedy order lives in the padded
    ``(n, d)`` rank-position matrix
    :func:`~fairexp.explanations.kernels.rank_changed_features` returns; one
    :func:`~fairexp.explanations.kernels.build_prefix_revert_trials` call
    stacks every active instance's trial chain, one masked ``argmax`` finds
    each instance's first rejected revert and one mask applies the accepted
    ones.
    """
    kernel_set = resolve_kernels()
    X_rows = np.atleast_2d(np.asarray(X_rows, dtype=float))
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float)).copy()
    n_rows, n_features = candidates.shape

    # Greedy order per instance, fixed once from the initial candidate (as
    # the per-feature greedy loop does): position[k, j] is feature j's rank
    # in instance k's order, n_features for a feature outside it.
    position = kernel_set.rank_changed_features(X_rows, candidates, generator.scale_)
    lengths = (position < n_features).sum(axis=1)

    # start[k]: rank of instance k's first undecided feature.  Accepted
    # reverts are already written into the candidate and rejected ones stay
    # as drawn, so each round ranks only the features from start on.
    start = np.zeros(n_rows, dtype=np.intp)
    active = np.flatnonzero(lengths)
    while active.size:
        remaining = lengths[active] - start[active]
        ranks = position[active] - start[active, None]
        ranks[ranks < 0] = n_features
        trials = kernel_set.build_prefix_revert_trials(
            candidates[active], X_rows[active], ranks, remaining)
        rejected = np.zeros((active.size, int(remaining.max())), dtype=bool)
        rejected[np.arange(rejected.shape[1]) < remaining[:, None]] = (
            generator._predict(trials) != generator.target_class)
        accepted = np.where(rejected.any(axis=1), rejected.argmax(axis=1), remaining)
        revert = ranks < accepted[:, None]
        candidates[active] = np.where(revert, X_rows[active], candidates[active])
        start[active] += accepted + 1
        active = active[start[active] < lengths[active]]
    return candidates


def lockstep_candidate_search(
    generator,
    X: np.ndarray,
    offsets: Callable[[np.random.Generator, int, int], np.ndarray],
    n_steps: int,
    schedule: SearchSchedule | None = None,
) -> CounterfactualBatch:
    """Cross-instance rejection-sampling search over a pluggable rung schedule.

    All instances advance through the radius/shell ladder in lockstep: one
    step gives each still-pending instance ``x`` the candidate matrix
    ``x[None, :] + offsets(rng, rung, d)`` at the rung its
    :class:`~fairexp.explanations.schedules.SearchSchedule` cursor planned,
    builds and projects the resulting ``(n_pending, n_candidates, d)``
    tensor through the actionability constraints in one kernel call (from
    the wave's distinct offsets, feature plane by feature plane), and
    issues a single
    ``model.predict`` over all candidates of all pending instances — instead
    of ``n_instances × n_steps`` separate predicts.  The cursor observes
    the wave's hit counts in one call and decides which rung each instance
    tries next (or that it is finished); each finished instance keeps its
    minimum-distance hit across every rung it probed.  No loop in a wave
    runs per instance: pending instances, hit counts and best hits are
    arrays, and the only Python loop draws each distinct draw key once.

    Every instance reads its offsets from the stream
    ``check_random_state(generator.random_state)`` would give it alone.  An
    integer seed gives all instances the same stream, and ``offsets``
    consumes the same amount of it at every rung, so an instance's offsets
    depend only on (draws it has consumed, rung): each wave draws every
    distinct pair once — replaying the stream from a snapshot of its state
    at that position — and broadcasts it over the instances that share it.
    A ``None`` seed (fresh entropy per instance) and a
    ``numpy.random.Generator`` (one stream consumed in row order) give every
    instance its own stream key, so nothing is shared.  Either way a row's
    offsets never depend on which other rows share its batch.

    With the default :class:`~fairexp.explanations.schedules.GeometricSchedule`
    every instance walks rung 0, 1, 2, … and stops at its first hit, which
    reproduces the historical fixed widening bitwise-exactly.  The step and
    candidate-draw totals of the pass are folded into the generator's
    ``search_step_count`` / ``search_draw_count`` accounting.
    """
    from ..utils import check_random_state

    if schedule is None:
        schedule = getattr(generator, "schedule", None) or GeometricSchedule()
    kernel_set = resolve_kernels()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n_instances, n_features = X.shape
    seed = generator.random_state
    shared = not (seed is None or isinstance(seed, np.random.Generator))
    if shared:
        streams = [check_random_state(seed)]
        stream_of = np.zeros(n_instances, dtype=np.intp)
        # positions[k]: the shared stream's state after k draws.
        positions = [streams[0].bit_generator.state]
    else:
        streams = [check_random_state(seed) for _ in range(n_instances)]
        stream_of = np.arange(n_instances)
    consumed = np.zeros(n_instances, dtype=np.intp)
    pending = np.arange(n_instances)
    # Each instance's minimum-distance hit so far, copied out of its wave.
    found = np.zeros(n_instances, dtype=bool)
    best_distance = np.zeros(n_instances)
    best_candidate = np.zeros((n_instances, n_features))
    cursor = schedule.begin(n_instances, n_steps)
    steps_taken = 0
    draws_issued = 0
    # Hard backstop against a buggy custom cursor that never finishes its
    # instances: the built-in schedules need at most n_steps waves
    # (geometric) / n_steps + 1 probes per instance (adaptive bisection —
    # every probe strictly shrinks the bracket), so 2 * n_steps + 2 waves
    # can only be exceeded by a cursor that stopped making progress.  The
    # pre-schedule kernel was structurally capped at n_steps iterations;
    # exceeding the bound degrades to "unsolved", never to a hung audit.
    max_waves = 2 * max(int(n_steps), 1) + 2

    while pending.size and steps_taken < max_waves:
        rungs = cursor.plan(pending)
        if rungs is None:
            break
        # One draw per distinct (stream, draws consumed, rung), in sorted
        # order (a shared Generator is consumed in row order); each triple is
        # raveled to one integer, which np.unique sorts far faster than rows.
        keys = np.stack([stream_of[pending], consumed[pending], rungs])
        _, first, key_of = np.unique(np.ravel_multi_index(keys, keys.max(axis=1) + 1),
                                     return_index=True, return_inverse=True)
        table = []
        for stream, position, rung in keys[:, first].T.tolist():
            rng = streams[stream]
            if shared:
                rng.bit_generator.state = positions[position]
            table.append(offsets(rng, rung, n_features))
            if shared and len(positions) == position + 1:
                positions.append(rng.bit_generator.state)
        consumed[pending] += 1
        # The kernel builds X[pending] + table[key_of] one feature plane at a
        # time and projects it there: the unprojected wave never exists.
        projected = generator.constraints.project(
            X[pending], offsets=np.stack(table), key_of=key_of)
        predictions = generator._predict(
            projected.reshape(-1, n_features)
        ).reshape(pending.size, -1)
        steps_taken += 1
        draws_issued += int(projected.shape[0] * projected.shape[1])

        # Row-major nonzero keeps each instance's hits contiguous, so one
        # distance call covers the wave and each instance's first
        # minimum-distance hit is a segment reduction over its hits.
        hit_rows, hit_columns = np.nonzero(predictions == generator.target_class)
        hits = np.bincount(hit_rows, minlength=pending.size)
        if hit_rows.size:
            distances = kernel_set.batch_counterfactual_distance(
                X[pending[hit_rows]], projected[hit_rows, hit_columns],
                scale=generator.scale_, metric=generator.metric,
            )
            starts = np.searchsorted(hit_rows, np.flatnonzero(hits))
            closest = np.repeat(np.minimum.reduceat(distances, starts), hits[hits > 0])
            first = np.where(distances == closest, np.arange(distances.size), distances.size)
            pick = np.minimum.reduceat(first, starts)
            rows = pending[hit_rows[pick]]
            better = ~found[rows] | (distances[pick] < best_distance[rows])
            pick, rows = pick[better], rows[better]
            found[rows] = True
            best_distance[rows] = distances[pick]
            best_candidate[rows] = projected[hit_rows[pick], hit_columns[pick]]
        cursor.observe(pending, rungs, hits, int(predictions.shape[1]))
        pending = pending[~cursor.finished[pending]]

    record = getattr(generator, "add_search_counts", None)
    if record is not None:
        record(steps_taken, draws_issued)
    solved = np.flatnonzero(found)
    parts = [CounterfactualBatch.unsolved(np.flatnonzero(~found), n_features)]
    if solved.size:
        sparse = greedy_sparsify_batch(generator, X[solved], best_candidate[solved])
        parts.append(generator._make_results_batch(solved, X[solved], sparse))
    return CounterfactualBatch.merge(*parts)


def shard_indices(n_items: int, n_shards: int) -> list[np.ndarray]:
    """Deterministic contiguous shards of ``range(n_items)``.

    ``np.array_split`` semantics (shard sizes differ by at most one), with
    empty shards dropped.  The split depends only on ``(n_items, n_shards)``
    so a sharded run is reproducible, and because every lockstep kernel
    gives each instance offsets that depend only on the seed and its own
    (draws consumed, rung), per-shard results are bitwise-identical to the
    unsharded pass.
    """
    n_shards = max(1, min(int(n_shards), int(n_items))) if n_items else 1
    return [shard for shard in np.array_split(np.arange(n_items), n_shards) if shard.size]


def _iter_init_parameters(generator) -> tuple[str, ...]:
    """Named ``__init__`` parameters across the generator's MRO (deduped)."""
    mro = type(generator).__mro__
    return _init_parameters(tuple(klass.__dict__.get("__init__") for klass in mro))


# Keyed on the MRO's ``__init__`` functions, so a replaced one is read afresh;
# bounded, since an ``__init__`` calling ``super()`` holds its class.
@functools.lru_cache(maxsize=256)
def _init_parameters(inits: tuple) -> tuple[str, ...]:
    names: dict[str, None] = {}
    for init in filter(None, inits):
        for name, parameter in inspect.signature(init).parameters.items():
            if name in ("self", "model", "background"):
                continue
            if parameter.kind in (inspect.Parameter.VAR_POSITIONAL,
                                  inspect.Parameter.VAR_KEYWORD):
                continue
            names.setdefault(name)
    return tuple(names)


def generator_config(generator) -> dict:
    """Constructor parameters of a counterfactual generator, by introspection.

    Walks the generator class's MRO collecting every named ``__init__``
    parameter (skipping ``self`` / ``model`` / ``background`` and var-args)
    and reads the attribute of the same name off the instance — the
    generators all store their constructor arguments verbatim.  The mapping
    is what the process-sharded executor ships to workers to rebuild the
    generator, and what the persistent store folds into a population
    fingerprint (so changing any search parameter busts the cache).

    Callers that need a *faithful* reconstruction must first check
    :func:`generator_config_is_faithful`: a generator storing a constructor
    argument under a different attribute name (or not at all) yields a
    config with that parameter missing, which would rebuild with the default
    and fingerprint two different configurations identically.
    """
    return {
        name: getattr(generator, name)
        for name in _iter_init_parameters(generator)
        if hasattr(generator, name)
    }


def generator_config_is_faithful(generator) -> bool:
    """Whether every ``__init__`` parameter is recoverable off the instance.

    ``False`` means :func:`generator_config` is lossy for this class — the
    process executor then falls back to thread-sharding (workers could not
    rebuild the generator exactly) and the persistent store skips the
    population (the fingerprint could not see the missing parameter).
    """
    return all(hasattr(generator, name) for name in _iter_init_parameters(generator))


def effective_backend(model):
    """The backend actually evaluating predict misses for ``model``.

    Unwraps the :class:`BatchModelAdapter` and any memoizing layer; ``None``
    for a bare (unadapted) model, whose predict is called directly.
    """
    if not isinstance(model, BatchModelAdapter):
        return None
    backend = model.backend
    if isinstance(backend, MemoizingPredictBackend):
        backend = backend.inner
    return backend


def _process_shard_spec(generator) -> dict | None:
    """Picklable recipe rebuilding ``generator`` inside a worker process.

    Only a backend that holds the GIL reaches the process path, and the
    recipe ships the effective predict dispatch, not just the model object:
    a plain :class:`~fairexp.explanations.backends.CallablePredictBackend`
    ships its callable, so workers score candidates against the same
    decision boundary the sequential pass would — never silently against
    the bare model's.  The model rides along for attribute passthrough.

    Returns ``None`` when no faithful recipe exists — a backend subclass
    with unknown dispatch semantics, a closure that refuses to pickle, a
    lossy generator config — in which case the engine falls back to
    thread-sharding against the shared backend rather than risking a
    divergent (or failed) audit.
    """
    if not generator_config_is_faithful(generator):
        return None  # a lossy rebuild would silently diverge; stay on threads
    backend = effective_backend(generator.model)
    if type(backend) is not CallablePredictBackend:
        return None  # unknown dispatch semantics: keep the shared backend
    spec = {
        "cls": type(generator),
        "model": generator.model.model,
        "fn": backend.fn,
        "fn_name": backend.name,
        "background": np.asarray(generator.background, dtype=float),
        "params": generator_config(generator),
    }
    try:
        pickle.dumps(spec)
    except Exception:
        return None
    return spec


def _run_process_shard(spec: dict, X_shard: np.ndarray
                       ) -> tuple[CounterfactualBatch, int, int, int, int]:
    """Worker entry point: rebuild the generator, run one shard, report counts.

    The worker wraps the shipped callable in a fresh counting adapter so the
    parent can fold the shard's predict work back into its own backend
    (:meth:`~fairexp.explanations.backends.NumpyPredictBackend.add_counts`);
    the shard's schedule step/draw totals ride along the same way.  An
    integer seed gives every instance the same stream, so an instance's
    offsets depend only on (draws consumed, rung) and never on its batch:
    the shard's results are bitwise-identical to the rows it would produce
    inside the sequential pass.
    """
    backend = CallablePredictBackend(spec["fn"], name=spec["fn_name"])
    adapter = BatchModelAdapter(spec["model"], backend=backend, cache=False)
    generator = spec["cls"](adapter, spec["background"], **spec["params"])
    results = generator.generate_batch_aligned(X_shard)
    return (results, adapter.predict_call_count, adapter.predict_row_count,
            generator.search_step_count, generator.search_draw_count)


class CounterfactualEngine:
    """Batched front-end over a counterfactual generator.

    Parameters
    ----------
    generator:
        Any :class:`~fairexp.explanations.counterfactual.BaseCounterfactualGenerator`.
        Its model is wrapped in a :class:`BatchModelAdapter` so every predict
        issued through the engine is counted; an already-wrapped model is
        left alone, letting several explainers share one adapter's
        counters.  The automatic wrap disables the adapter's memo: a cached
        adapter would keep serving stale labels if the underlying model were
        refit in place between audits.  Callers who know their model is
        frozen can pre-wrap with ``BatchModelAdapter(model, cache=True)``
        themselves.
    n_jobs:
        Number of workers :meth:`generate_aligned` splits its
        work-list across.  ``1`` (the default) runs the single lockstep
        batch; ``-1`` uses one worker per CPU.  Shards are deterministic
        (:func:`shard_indices`) and an instance's candidate offsets depend
        only on the seed and its own (draws consumed, rung), so the merged
        results are bitwise-identical to ``n_jobs=1`` — only the predict
        batching (and hence the call count) changes.
        Generators seeded with a shared ``np.random.Generator`` instance
        always run the sequential pass (one stream cannot be sharded).

        The backend picks how shards run.  One that declares
        ``releases_gil=False`` (a pure-Python
        :class:`~fairexp.explanations.backends.CallablePredictBackend`)
        runs them on processes: each worker rebuilds the generator from a
        picklable shard spec and its predict counts are folded back into
        the parent backend.  Every other backend runs them on threads
        against the shared (thread-safe) backend.  Process sharding quietly
        falls back to threads when no picklable shard spec exists or the
        process pool breaks.
    pool:
        An :class:`~fairexp.explanations.pool.ExecutorPool` supplying the
        worker pools sharded passes run on.  With a pool injected the
        engine never constructs a ``ThreadPoolExecutor`` or
        ``ProcessPoolExecutor`` itself — executors are created lazily by
        the pool, once, and reused across every call (this is how an
        :class:`~fairexp.explanations.session.AuditSession` amortizes
        process-pool startup across a whole sweep).  ``None`` (the default)
        runs each sharded pass on a pool of its own.  Pooled and per-call
        execution are bitwise-identical — shards are deterministic and
        instances own their random streams.
    """

    def __init__(self, generator, *, n_jobs: int = 1,
                 pool: ExecutorPool | None = None) -> None:
        if pool is not None and not isinstance(pool, ExecutorPool):
            raise ValidationError(
                f"pool must be an ExecutorPool or None, got {type(pool).__name__}"
            )
        self.generator = generator
        self.n_jobs = n_jobs
        self.pool = pool
        if not isinstance(generator.model, BatchModelAdapter):
            generator.model = BatchModelAdapter(generator.model, cache=False)

    # ------------------------------------------------------------ properties
    @property
    def adapter(self) -> BatchModelAdapter | None:
        """The generator's counting adapter, if its model is wrapped in one."""
        model = self.generator.model
        return model if isinstance(model, BatchModelAdapter) else None

    @property
    def predict_call_count(self) -> int:
        """Predict calls counted by the generator's adapter (0 without one)."""
        adapter = self.adapter
        return adapter.predict_call_count if adapter is not None else 0

    @property
    def search_step_count(self) -> int:
        """Lockstep schedule steps taken across this generator's passes."""
        return getattr(self.generator, "search_step_count", 0)

    @property
    def search_draw_count(self) -> int:
        """Candidate draws issued across this generator's search passes."""
        return getattr(self.generator, "search_draw_count", 0)

    # ------------------------------------------------------------ generation
    def _resolve_n_jobs(self, n_rows: int) -> int:
        # A np.random.Generator instance as random_state is ONE shared stream:
        # per-instance draws consume it in sequence, so shards would both race
        # on its (non-thread-safe) internal state and change the draw order.
        # Integer / None seeds make an instance's draws independent of its
        # batch, so they shard; a Generator falls back to the sequential pass.
        if isinstance(getattr(self.generator, "random_state", None), np.random.Generator):
            return 1
        n_jobs = self.n_jobs
        if n_jobs is None:
            n_jobs = 1
        if n_jobs < 0:
            n_jobs = os.cpu_count() or 1
        return max(1, min(int(n_jobs), int(n_rows))) if n_rows else 1

    def _resolve_executor(self) -> str:
        """``"process"`` exactly when the backend declares it holds the GIL,
        else ``"thread"``."""
        adapter = self.adapter
        backend = adapter.backend if adapter is not None else None
        return "thread" if getattr(backend, "releases_gil", True) else "process"

    def _map(self, kind: str, fn, *iterables) -> list:
        """``fn`` over ``zip(*iterables)`` on the injected pool's ``kind``
        executor, or on a pool of this call's own (FX001: executors only
        come from :class:`~fairexp.explanations.pool.ExecutorPool`).

        Either way the pass is generation-tracked: a concurrent ``reset()``
        cannot shut the executor down under it, and the pool's
        busy-worker/queue-depth stats see every shard.
        """
        if self.pool is not None:
            return self.pool.map(kind, fn, *iterables)
        with ExecutorPool(max_workers=len(iterables[0])) as pool:
            return pool.map(kind, fn, *iterables)

    def generate_aligned(self, X) -> CounterfactualBatch:
        """Counterfactuals for every row of ``X``, as a batch with indices 0..n-1.

        With ``n_jobs > 1`` the work-list is split into deterministic shards
        executed on a worker pool — processes when the backend holds the
        GIL, threads otherwise (see the ``n_jobs`` parameter) — and the
        shards' batches are concatenated in caller order.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n_jobs = self._resolve_n_jobs(X.shape[0])
        if n_jobs == 1:
            return self.generator.generate_batch_aligned(X)
        shards = shard_indices(X.shape[0], n_jobs)
        parts = None
        if self._resolve_executor() == "process":
            parts = self._run_shards_in_processes(X, shards)
        if parts is None:
            def run_shard(shard):
                return self.generator.generate_batch_aligned(X[shard])

            parts = self._map("thread", run_shard, shards)
        return CounterfactualBatch.merge(*(
            dataclasses.replace(part, indices=shard) for shard, part in zip(shards, parts)))

    def _run_shards_in_processes(self, X: np.ndarray, shards: list[np.ndarray]
                                 ) -> list[CounterfactualBatch] | None:
        """Run shards on a process pool; ``None`` means fall back to threads.

        Each worker rebuilds the generator from the shard spec, so the
        parent's model object (and its locks) never crosses the process
        boundary; the workers' predict counts are folded back into the
        parent backend so session-wide accounting survives the hop.
        """
        spec = _process_shard_spec(self.generator)
        if spec is None:
            return None
        try:
            outcomes = self._map("process", _run_process_shard, [spec] * len(shards),
                                 [X[shard] for shard in shards])
        except Exception:
            # The parent-side pickle check can pass while workers still fail
            # to rebuild the spec — e.g. classes defined in __main__ under
            # the spawn start method, or a broken pool.  Honour the
            # documented quiet-fallback contract instead of crashing an
            # audit that the thread path can serve.  A persistent pool that
            # broke is reset so the NEXT process-sharded call starts clean.
            if self.pool is not None:
                self.pool.reset("process")
            return None
        self.adapter.backend.add_counts(sum(o[1] for o in outcomes),
                                        sum(o[2] for o in outcomes))
        record = getattr(self.generator, "add_search_counts", None)
        if record is not None:
            record(sum(o[3] for o in outcomes), sum(o[4] for o in outcomes))
        return [outcome[0] for outcome in outcomes]
