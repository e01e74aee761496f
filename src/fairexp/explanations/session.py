"""Shared-pass audit sessions.

The paper's counterfactual-based fairness audits (burden [72], NAWB [73],
PreCoF [71], and the recourse audits) all consume counterfactuals over the
*same* population: burden explains every negatively classified individual,
NAWB the false negatives (a subset), PreCoF the negatives again.  Run
independently, each audit pays for its own engine pass.

:class:`AuditSession` removes that duplication with result-level sharing:

* the session owns **one** :class:`~fairexp.explanations.engine.BatchModelAdapter`
  (with a memoizing predict backend), so every audit's predictions route
  through the same counting/caching interface;
* each population's counterfactual matrix is computed **once** — the first
  audit to request rows triggers a (optionally sharded, ``n_jobs``) engine
  pass, later audits requesting overlapping rows are served from the
  session's result cache, including rows whose search was infeasible;
* the session owns **one** lazily populated
  :class:`~fairexp.explanations.pool.ExecutorPool`, so every sharded pass of
  the sweep reuses the same workers (threads, or processes when the backend
  holds the GIL) and :meth:`AuditSession.close` shuts them down;
* predict-call accounting is session-wide, which is what the benchmarks
  assert on: a burden+NAWB+PreCoF sweep through one session issues strictly
  fewer predict calls than three independent audits.

The layering is session → engine → backend: the session decides *what* to
explain and shares results, the engine decides *how* to batch/shard the
search, the backend decides *where* predict batches run.  With a
:class:`~fairexp.explanations.store.CounterfactualStore` attached the
sharing additionally crosses process boundaries: each population's results
are persisted under a fingerprint of (population, model, engine config), so
a repeated sweep in a fresh process warm-starts with zero engine passes.

A session pins its model: the wrapped model must stay frozen for the
session's lifetime (refitting it in place would serve stale predictions and
stale counterfactuals).  Refit workflows should create a fresh session per
fit, or call :meth:`AuditSession.reset`.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from ..exceptions import ValidationError
from .backends import MemoizingPredictBackend, ensure_backend
from .base import Counterfactual, CounterfactualBatch
from .engine import BatchModelAdapter, CounterfactualEngine
from .pool import ExecutorPool
from .schedules import resolve_schedule
from .store import CounterfactualStore, population_fingerprint

__all__ = ["AuditSession"]


@dataclasses.dataclass
class _Population:
    """One population's session state: its cached rows (one batch sorted by
    index, unsolved rows remembered as infeasible), the generator schedule
    they were searched under, and its store fingerprint (``None`` without a
    store or when the configuration has no reproducible one)."""

    schedule: object
    batch: CounterfactualBatch
    fingerprint: str | None = None


class AuditSession:
    """One shared adapter + engine + counterfactual-result cache for a sweep of audits.

    Parameters
    ----------
    generator:
        A :class:`~fairexp.explanations.counterfactual.BaseCounterfactualGenerator`
        whose model the session takes ownership of.  Optional: a session
        built with only ``model`` still shares predictions (for audits that
        never generate counterfactuals, e.g. GLOBE-CE or recourse sets) but
        raises on :meth:`counterfactuals_for`.
    model:
        The classifier under audit; defaults to ``generator.model``.  At
        least one of ``generator``, ``model`` or ``backend`` must be given.
    backend:
        A :class:`~fairexp.explanations.backends.PredictBackend` every
        predict batch of the sweep dispatches through — the passthrough
        that points a whole audit sweep at an out-of-process scorer:
        an :class:`~fairexp.explanations.serving.OnnxExportBackend`
        (exported compute graph) or
        :class:`~fairexp.explanations.serving.RemoteScoringBackend`
        (coalescing client over ``python -m fairexp serve``).  ``None``
        (default) keeps the in-process vectorized NumPy backend.  The
        model object (when present) still serves attribute access —
        gradients, probabilities — only ``predict`` routing changes.
    n_jobs:
        Workers for sharded counterfactual generation (forwarded to
        :class:`~fairexp.explanations.engine.CounterfactualEngine`, where
        the backend picks threads or processes).  Shards run on the
        session's own :class:`~fairexp.explanations.pool.ExecutorPool`
        (:attr:`pool`), populated lazily so a sequential sweep never spawns
        workers; use the session as a context manager (or call
        :meth:`close`) to tear workers down deterministically.
    schedule:
        A :class:`~fairexp.explanations.schedules.SearchSchedule` (or its
        name, ``"geometric"`` / ``"adaptive"``) installed on the session's
        generator before the engine is built, so every audit of the sweep
        searches under the same schedule.  ``None`` (default) keeps the
        generator's own schedule.  Because the schedule is part of the
        generator's search configuration it also keys the persistent store:
        geometric and adaptive results never alias.
    store:
        A :class:`~fairexp.explanations.store.CounterfactualStore` (or a
        directory path coerced into one) persisting each population's
        results across processes.  On the first touch of a population the
        session seeds its in-memory cache from the store; after every
        engine pass it publishes the whole cache (seeded rows plus new
        ones) back.  ``None`` (default) keeps sharing in-process only.
    cache_predictions:
        When ``True`` (default), the adapter memoizes repeated predict
        matrices — audits scoring the same population only pay once.
        ``False`` skips installing a memo on adapters this session creates
        (an inherited adapter's memo is left alone — it may belong to a live
        shared session); refit workflows should call :meth:`reset_results`
        after each refit, which drops cached results and any memo.

    Attributes
    ----------
    pool:
        The session's :class:`~fairexp.explanations.pool.ExecutorPool`;
        its ``created_counts`` and ``stats()`` show the workers the sweep
        built.
    max_populations:
        Bound on distinct populations whose results are kept; the oldest
        population is evicted beyond it (one audit sweep touches a handful,
        so the class default only matters for long-lived multi-population
        sessions).
    """

    max_populations = 32

    # Fingerprint-safety declarations for lint rule FX006 (params never
    # stored as session attributes, each covered elsewhere or neutral):
    # - backend only rewires the adapter's dispatch; graph-backed remote
    #   backends contribute their dispatch token to the population
    #   fingerprint through the store instead.
    # - schedule is installed onto the generator in __init__, so
    #   generator_config carries it (the population memo additionally keys
    #   on the schedule).
    # - cache_predictions toggles the predict memo only; labels unchanged.
    FINGERPRINT_INVARIANT = ("backend", "schedule", "cache_predictions")

    def __init__(self, generator=None, *, model=None, backend=None, n_jobs: int = 1,
                 schedule=None, store=None, cache_predictions: bool = True) -> None:
        if generator is None and model is None and backend is None:
            raise ValidationError(
                "AuditSession needs a generator, a model or a backend"
            )
        if generator is not None and model is not None and model is not generator.model \
                and model is not getattr(generator.model, "model", None):
            raise ValidationError(
                "conflicting arguments: the generator already carries its model; "
                "pass one or the other"
            )
        self.generator = generator
        self.n_jobs = n_jobs
        self.store = CounterfactualStore.ensure(store)
        # Populated lazily: a sequential sweep (or a validation failure
        # below) never spawns workers.
        self.pool = ExecutorPool()
        self._closed = False
        if backend is not None:
            backend = ensure_backend(backend)
        if generator is not None:
            if schedule is not None:
                generator.schedule = resolve_schedule(schedule)
            if backend is not None:
                # backend= rewires WHERE this sweep's predict batches run
                # (ONNX graph, remote scorer, ...) while keeping the model
                # object for attribute passthrough (gradients, proba).
                base_model = generator.model
                if isinstance(base_model, BatchModelAdapter):
                    base_model = base_model.model
                generator.model = BatchModelAdapter(base_model, backend=backend,
                                                    cache=cache_predictions)
            elif not isinstance(generator.model, BatchModelAdapter):
                generator.model = BatchModelAdapter(generator.model,
                                                    cache=cache_predictions)
            self._adapter = generator.model
            self.engine = CounterfactualEngine(generator, n_jobs=n_jobs, pool=self.pool)
        else:
            if schedule is not None:
                # A model-only session runs no candidate search; silently
                # accepting a schedule would let sweeps believe they compared
                # schedules when nothing changed.
                raise ValidationError(
                    "schedule= requires a generator (a model-only session "
                    "never runs a counterfactual search)"
                )
            if backend is not None:
                self._adapter = BatchModelAdapter(model, backend=backend,
                                                  cache=cache_predictions)
            else:
                self._adapter = (model if isinstance(model, BatchModelAdapter)
                                 else BatchModelAdapter(model, cache=cache_predictions))
            self.engine = None
        self._reconcile_cache(cache_predictions)
        self.result_reuse_count = 0
        self.store_row_hits = 0
        # Predict calls attributable to engine generation passes (excludes
        # the audits' own scoring traffic) — 0 on a fully warm start.
        self.engine_predict_call_count = 0
        # population key -> its cached rows, schedule and store fingerprint
        self._populations: dict[str, _Population] = {}

    @classmethod
    def ensure(cls, generator, session: "AuditSession | None"
               ) -> tuple["AuditSession", bool]:
        """Resolve an explainer's ``(generator, session)`` constructor pair.

        Returns ``(session, owns_session)``: without a session, a private
        refit-safe one (no predict memo; results dropped per ``explain``) is
        built around ``generator``.  Passing both a session and a *different*
        generator is a conflict and raises, instead of silently auditing with
        the session's search configuration.
        """
        if session is None:
            return cls(generator, cache_predictions=False), True
        if session.generator is None:
            # Counterfactual explainers always need the engine; fail at
            # construction rather than mid-audit.
            raise ValidationError(
                "this session was built without a generator (predict sharing "
                "only); build the AuditSession around a generator to share "
                "its counterfactuals"
            )
        if generator is None or generator is session.generator:
            return session, False
        raise ValidationError(
            "conflicting arguments: pass either a generator or a session "
            "(the session already carries its own generator)"
        )

    def _reconcile_cache(self, cache_predictions: bool) -> None:
        """Make an inherited adapter honour this session's cache setting.

        The generator's model may already be wrapped (by an earlier engine or
        session) without a memo; requesting ``cache_predictions`` upgrades the
        backend stack in place, preserving the counting backend and its
        totals.  The reverse is deliberately NOT done: an inherited memo may
        belong to a live shared session, and stripping it here would silently
        disable that session's predict sharing.  Refit safety without a memo
        guarantee comes from :meth:`reset_results`, which clears both the
        result cache and any memo — private explainer sessions call it at
        the start of every ``explain``.
        """
        backend = self._adapter.backend
        if cache_predictions and not isinstance(backend, MemoizingPredictBackend):
            self._adapter.backend = MemoizingPredictBackend(backend)

    # ---------------------------------------------------------------- access
    @property
    def model(self) -> BatchModelAdapter:
        """The shared counting adapter — hand this to audits expecting a model."""
        return self._adapter

    @property
    def adapter(self) -> BatchModelAdapter:
        """The session's shared counting adapter (alias of :attr:`model`)."""
        return self._adapter

    @property
    def predict_call_count(self) -> int:
        """Session-wide predict invocations forwarded to the backend."""
        return self._adapter.predict_call_count

    @property
    def predict_row_count(self) -> int:
        """Session-wide rows across forwarded predict calls."""
        return self._adapter.predict_row_count

    @property
    def cache_hit_count(self) -> int:
        """Session-wide predict requests served from the memo."""
        return self._adapter.cache_hit_count

    @property
    def schedule_step_count(self) -> int:
        """Lockstep schedule steps taken by this session's engine passes."""
        return self.engine.search_step_count if self.engine is not None else 0

    @property
    def schedule_draw_count(self) -> int:
        """Candidate rows drawn by this session's engine passes."""
        return self.engine.search_draw_count if self.engine is not None else 0

    def predict(self, X) -> np.ndarray:
        """Model predictions through the session's counting (memoizing) backend."""
        return self._adapter.predict(X)

    # -------------------------------------------------------------- lifecycle
    def _check_open(self) -> None:
        """Raise a session-level error for use after :meth:`close`.

        Without this, a sharded pass on a closed session surfaces as the
        opaque "ExecutorPool is closed" from deep inside the engine — and a
        *sequential* pass would silently succeed, so the failure mode would
        even depend on ``n_jobs``.
        """
        if self._closed:
            raise ValidationError(
                "this AuditSession is closed; create a new session (or keep "
                "the `with` block open) to run further audits"
            )

    def close(self) -> None:
        """Shut down the session's executor pool (idempotent).

        Results and counters survive — ``close`` only releases worker
        threads/processes.
        """
        if self._closed:
            return
        self._closed = True
        self.pool.shutdown()

    def __enter__(self) -> "AuditSession":
        """Use the session as a context manager for deterministic pool shutdown."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Shut the session's worker pool down on block exit."""
        self.close()

    # ------------------------------------------------------- result sharing
    @staticmethod
    def population_key(X) -> str:
        """Stable fingerprint of a population matrix (shape + content hash)."""
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
        digest = hashlib.sha1(X.tobytes()).hexdigest()
        return f"{X.shape[0]}x{X.shape[1]}:{digest}"

    def counterfactuals_for(self, X, indices) -> dict[int, Counterfactual]:
        """Counterfactuals for ``X[indices]``, keyed by row index, shared across audits.

        Rows already explained for this population (by *any* earlier audit
        in the session) are served from the result cache — including rows
        whose search exhausted its budget, which are remembered as
        infeasible and never retried.  Only genuinely new rows trigger an
        engine pass.  Rows without a feasible counterfactual are absent from
        the returned mapping.

        ``indices`` is a 1-D sequence of integers following NumPy's
        convention over ``n = len(X)``: a negative index ``i`` names row
        ``i + n`` (and is returned, cached and stored under that key).  A
        boolean mask, floats, an index of another rank or one outside
        ``[-n, n)`` raises :class:`~fairexp.exceptions.ValidationError`
        before the cache, the store or the engine is touched.  So does a
        requested row holding a NaN or infinite feature; the error names
        those rows (non-negative).
        """
        if self.engine is None:
            raise ValidationError(
                "this AuditSession was built without a counterfactual generator"
            )
        self._check_open()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        indices = np.asarray(indices)
        if indices.ndim != 1 or (indices.size and indices.dtype.kind not in "iu"):
            raise ValidationError(
                "row indices must be a 1-D array of integers, got a "
                f"{indices.ndim}-D array of dtype {indices.dtype}"
            )
        if indices.size == 0:  # np.asarray([]) is float
            return {}
        n_rows = X.shape[0]
        out_of_range = indices[(indices < -n_rows) | (indices >= n_rows)]
        if out_of_range.size:
            raise ValidationError(
                f"row indices must lie in [-{n_rows}, {n_rows}) for a population "
                f"of {n_rows} rows, got {out_of_range.tolist()}"
            )
        indices = np.where(indices < 0, indices + n_rows, indices)
        non_finite = np.unique(indices[~np.isfinite(X[indices]).all(axis=1)])
        if non_finite.size:
            raise ValidationError(
                f"rows {non_finite.tolist()} hold NaN or infinite features; a "
                "counterfactual search needs finite rows"
            )
        population = self._population(X)
        # Dedupe while preserving request order: a duplicated index must not
        # trigger (or pay for) two searches of the same row.
        _, first = np.unique(indices, return_index=True)
        distinct = indices[np.sort(first)]
        missing = distinct[~np.isin(distinct, population.batch.indices)]
        self.result_reuse_count += int(distinct.size - missing.size)
        if missing.size:
            calls_before = self._adapter.predict_call_count
            searched = self.engine.generate_aligned(X[missing])
            self.engine_predict_call_count += (
                self._adapter.predict_call_count - calls_before
            )
            population.batch = CounterfactualBatch.merge(
                population.batch, dataclasses.replace(searched, indices=missing))
            if population.fingerprint is not None:
                # The batch holds every row the entry had (it was seeded
                # from it), so publishing it replaces the entry with a
                # superset.
                self.store.save(population.fingerprint, population.batch)
        positions = np.searchsorted(population.batch.indices, distinct)
        return population.batch.take(positions).solved()

    def _population(self, X: np.ndarray) -> _Population:
        """The record of population ``X``, created (and seeded from the
        store) on first touch.

        A record is only valid for the generator schedule its rows were
        searched under: another session over the same generator can install
        a different schedule (``schedule=...``), and serving — or publishing
        under the new schedule's fingerprint — rows of the old one would
        poison the new configuration's store entry.  So a schedule change
        drops the record and starts over from the new configuration's entry.
        """
        key = self.population_key(X)
        schedule = getattr(self.generator, "schedule", None)
        population = self._populations.get(key)
        if population is not None and population.schedule is schedule:
            return population
        self._populations.pop(key, None)
        if len(self._populations) >= self.max_populations:
            # Bound the result cache like the predict memo: evict the oldest
            # population (audits of one sweep share a handful of populations;
            # unbounded growth only hurts long-lived multi-population sessions).
            self._populations.pop(next(iter(self._populations)))
        population = _Population(schedule, CounterfactualBatch.unsolved([], X.shape[1]))
        if self.store is not None:
            population.fingerprint = population_fingerprint(self.generator, X)
        if population.fingerprint is not None:
            stored = self.store.load(population.fingerprint)
            if stored is not None:
                population.batch = CounterfactualBatch.merge(stored)  # sorted for lookups
                self.store_row_hits += len(stored)
        self._populations[key] = population
        return population

    def precompute(self, X) -> int:
        """Warm the session for ``X``: one engine pass over every row not yet
        predicted as the generator's target class.  Returns the number of
        rows explained.

        Calling this first makes every subsequent audit of the population a
        pure cache read regardless of which subset it selects.  (The target
        class is always the generator's — generation and selection must
        agree, or the cache would hold wrong-direction counterfactuals.)
        """
        if self.engine is None:
            raise ValidationError(
                "this AuditSession was built without a counterfactual generator"
            )
        X = np.atleast_2d(np.asarray(X, dtype=float))
        pending = np.flatnonzero(self.predict(X) != self.generator.target_class)
        self.counterfactuals_for(X, pending)
        return int(pending.size)

    # ------------------------------------------------------------ accounting
    def stats(self) -> dict[str, int]:
        """Session-wide sharing statistics (for benchmarks and reports)."""
        n_cached = sum(len(p.batch) for p in self._populations.values())
        n_infeasible = sum(
            int(np.count_nonzero(~p.batch.has_result)) for p in self._populations.values()
        )
        stats = {
            "n_populations": len(self._populations),
            "n_counterfactuals_cached": n_cached - n_infeasible,
            "n_infeasible_cached": n_infeasible,
            # Rows served from the result cache instead of a fresh engine
            # pass — the honest measure of cross-audit sharing (stays 0 if
            # the sharing mechanism silently breaks).
            "n_results_reused": self.result_reuse_count,
            "predict_call_count": self.predict_call_count,
            "predict_row_count": self.predict_row_count,
            "predict_cache_hits": self._adapter.cache_hit_count,
            # Predict calls spent inside engine generation passes — 0 when
            # every population came warm from the persistent store.
            "engine_predict_calls": self.engine_predict_call_count,
            # Lockstep schedule steps and candidate draws spent by those
            # passes — how the geometric/adaptive schedules are compared.
            "schedule_steps": self.schedule_step_count,
            "schedule_draws": self.schedule_draw_count,
            # Rows warm-started from the persistent store (cross-process
            # sharing; stays 0 without a store attached).
            "store_row_hits": self.store_row_hits,
        }
        # Pool utilization (executors created, busy workers, queue depth),
        # flattened so the BENCH_* trajectory points stay scalar-valued.
        for kind, metrics in self.pool.stats().items():
            for name, value in metrics.items():
                stats[f"pool_{kind}_{name}"] = value
        if self.store is not None:
            stats.update(self.store.stats())
        return stats

    def reset_results(self) -> None:
        """Drop the shared results (counterfactuals AND memoized predictions)
        but keep the predict counters.

        Explainers that own a private session call this at the start of every
        ``explain`` so a model refit in place between audits is picked up —
        result-level sharing across calls is an opt-in of *shared* sessions,
        whose model is pinned for the session's lifetime.

        The memo clear deliberately extends to a memo inherited from another
        session over the same generator: there is no way to tell whether that
        session is still live, and a cleared memo merely costs re-predicts,
        while a stale one would silently corrupt audit results after a refit.
        Correctness wins; keep sweeps on one shared session to keep the memo
        warm.
        """
        # The records' fingerprints fold in the fitted model state, so they
        # are stale the moment a refit happens — recompute on next touch.  The persistent
        # store itself needs no clearing: the refit model simply fingerprints
        # to different keys.
        self._populations.clear()
        self._adapter.clear_memo()

    def reset(self) -> None:
        """Drop all shared results and zero the predict counters."""
        self._populations.clear()
        self._adapter.reset_counts()
        if self.store is not None:
            self.store.reset_counts()
        reset_search = getattr(self.generator, "reset_search_counts", None)
        if reset_search is not None:
            reset_search()
        self.result_reuse_count = 0
        self.store_row_hits = 0
        self.engine_predict_call_count = 0
