"""Pluggable search schedules for the lockstep counterfactual search.

The lockstep kernel (:func:`~fairexp.explanations.engine.lockstep_candidate_search`)
advances every still-unsolved instance through a ladder of search *rungs* —
growing Gaussian radii for :class:`~fairexp.explanations.counterfactual.RandomSearchCounterfactual`,
expanding L2 shells for :class:`~fairexp.explanations.counterfactual.GrowingSpheresCounterfactual`
(each generator publishes its ladder through ``draw_schedule()``).  *Which*
rung each instance probes next was historically hard-coded: every instance
walked rung 0, 1, 2, … until its first hit.  This module turns that control
flow into a first-class, observable object:

* :class:`SearchSchedule` — the pluggable strategy interface.  A schedule is
  immutable configuration (a frozen dataclass, so it can be pickled into
  process-shard specs and folded into store fingerprints); each search pass
  asks it to :meth:`~SearchSchedule.begin` a fresh mutable *cursor* that
  keeps its per-instance state in arrays, plans one rung per still-unsolved
  instance per wave and observes the wave's hit counts, each in one call.
* :class:`GeometricSchedule` — the default: every instance climbs the fixed
  ladder bottom-up, reproducing the pre-schedule behaviour **bitwise
  exactly** (same draws from the same random streams, same predict batches,
  same chosen candidates).
* :class:`AdaptiveSchedule` — consumes the per-step hit rates to probe the
  ladder adaptively per instance: one wide feasibility probe at the top
  rung (instances that miss the widest rung are abandoned immediately
  instead of crawling the whole ladder), then a bisection toward the lowest
  hitting rung, shortcut by the observed hit rates — a saturated rung means
  the decision boundary is far below, so the next probe jumps straight to
  the lowest untested rung.  Fewer waves means strictly fewer
  ``model.predict`` calls on E1-style sweeps (asserted in
  ``benchmarks/test_bench_schedules.py``).  Each instance's probe sequence
  depends only on its own observations, so sharded adaptive runs stay
  bitwise-identical to sequential ones — sharding config never needs to
  bust a store fingerprint.

Because a schedule changes which candidates are drawn, it is part of every
generator's search configuration: ``generator_config`` captures it, so two
sessions differing only in their schedule never share
:class:`~fairexp.explanations.store.CounterfactualStore` entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "SearchSchedule",
    "GeometricSchedule",
    "AdaptiveSchedule",
    "resolve_schedule",
]


@dataclass(frozen=True)
class SearchSchedule:
    """Strategy deciding which ladder rung each unsolved instance probes next.

    Subclasses are immutable configuration objects; all per-pass mutable
    state lives in the cursor returned by :meth:`begin`, so one schedule
    instance can drive many concurrent search passes (the engine shards a
    work-list across threads, each shard beginning its own cursor).

    The cursor contract, as consumed by
    :func:`~fairexp.explanations.engine.lockstep_candidate_search` (one
    call of each per wave, on whole arrays):

    * ``cursor.plan(pending)`` takes the ascending ``intp`` array of
      instances still searching and returns one rung in ``[0, n_steps)``
      per row, or ``None`` to end the pass.
    * ``cursor.observe(rows, rungs, hits, n_candidates)`` feeds back the
      wave: the probed instances, their rungs, each probe's hit count and
      the number of candidates every probe drew.
    * ``cursor.finished`` is a bool array over the pass's instances, true
      for those needing no further probes (first hit reached for the
      geometric ladder; bisection converged or instance abandoned for the
      adaptive one).
    """

    def begin(self, n_instances: int, n_steps: int):
        """Start one search pass of ``n_instances`` over ``n_steps`` rungs."""
        raise NotImplementedError


@dataclass(frozen=True)
class GeometricSchedule(SearchSchedule):
    """The fixed bottom-up ladder walk (the historical default).

    Every still-unsolved instance probes rung 0, 1, 2, … in lockstep and
    stops at its first hit.  This reproduces the pre-schedule search
    bitwise: identical random-stream consumption, identical predict
    batches, identical chosen candidates (asserted in
    ``tests/explanations/test_schedules.py`` against the per-instance
    oracle loop kept in ``tests/explanations/sequential_oracles.py``,
    across thread and process executors).
    """

    def begin(self, n_instances: int, n_steps: int):
        """Return a fresh bottom-up cursor over ``n_steps`` rungs."""
        return _GeometricCursor(int(n_instances), int(n_steps))


@dataclass(frozen=True)
class AdaptiveSchedule(SearchSchedule):
    """Hit-rate-driven ladder probing: feasibility probe, then bisection.

    Per instance, the cursor maintains the bracket ``[lo, hi)`` of rungs
    that could still be the lowest hitting rung: a miss at rung ``r``
    raises ``lo`` to ``r + 1``, a hit lowers ``hi`` to ``r``, and probing
    stops when the bracket closes.  Two refinements consume the observed
    hit rates:

    * the **first** probe is the widest rung — an instance that misses
      there is abandoned immediately (the widest shell carries the most
      candidate volume, so a miss there makes the instance near-certainly
      infeasible) instead of consuming the entire ladder;
    * a hit whose hit rate reaches :attr:`EAGER_HIT_RATE` means the
      boundary is well below the probed rung, so the next probe jumps
      straight to the lowest untested rung instead of the bracket midpoint.

    The search typically finishes in ``2 + log2(n_steps)`` waves per
    instance instead of up to ``n_steps`` (every probe strictly shrinks
    the bracket, so ``n_steps + 1`` probes per instance is a hard bound),
    which is what makes it issue strictly fewer ``model.predict`` calls
    than :class:`GeometricSchedule` on E1-style sweeps.  Results are *not*
    bitwise-comparable to the geometric walk (different rungs draw
    different candidates), but they ARE deterministic per seed and
    shard-invariant: the cursor keeps no cross-instance state, so an
    instance's probe sequence — and hence its result — is the same whether
    the batch runs whole or split across workers.  Each instance returns
    its minimum-distance hit across every rung it probed.
    """

    #: Hit rate at which the bisection shortcuts to the lowest untested rung.
    EAGER_HIT_RATE = 0.5

    def begin(self, n_instances: int, n_steps: int):
        """Return a fresh adaptive (bisection) cursor over ``n_steps`` rungs."""
        return _AdaptiveCursor(int(n_instances), int(n_steps), self.EAGER_HIT_RATE)


class _GeometricCursor:
    """Mutable state of one bottom-up ladder walk."""

    def __init__(self, n_instances: int, n_steps: int) -> None:
        self.n_steps = n_steps
        self.finished = np.zeros(n_instances, dtype=bool)
        self._step = 0

    def plan(self, pending: np.ndarray) -> np.ndarray | None:
        """Every pending instance probes the current rung; ``None`` once the
        ladder is exhausted."""
        if self._step >= self.n_steps:
            return None
        self._step += 1
        return np.full(len(pending), self._step - 1, dtype=np.intp)

    def observe(self, rows: np.ndarray, rungs: np.ndarray, hits: np.ndarray,
                n_candidates: int) -> None:
        """A hit finishes the instance (first-hit-stops, as the fixed
        schedule always behaved); misses keep it climbing."""
        self.finished[rows[hits > 0]] = True


class _AdaptiveCursor:
    """Mutable state of one adaptive (feasibility probe + bisection) pass:
    per instance, ``lo`` is the lowest rung not yet ruled out (``-1`` before
    its first probe), ``hi`` the lowest known-hit rung (``n_steps`` before
    its first hit) and ``eager`` whether its last hit saturated the rung."""

    def __init__(self, n_instances: int, n_steps: int, eager_hit_rate: float) -> None:
        self.n_steps = n_steps
        self.eager_hit_rate = eager_hit_rate
        self.finished = np.zeros(n_instances, dtype=bool)
        self._lo = np.full(n_instances, -1, dtype=np.intp)
        self._hi = np.full(n_instances, n_steps, dtype=np.intp)
        self._eager = np.zeros(n_instances, dtype=bool)

    def plan(self, pending: np.ndarray) -> np.ndarray | None:
        """One probe rung per pending instance: the widest rung on first
        touch, afterwards the bracket midpoint (or the lowest untested rung
        after a saturated hit).

        Deliberately per-instance only: any cross-instance coupling would
        make an instance's probe sequence depend on which other instances
        share its batch, so sharded results would stop being identical to
        sequential ones — and sharding config must never need to bust a
        store fingerprint.
        """
        if self.n_steps <= 0:
            # Degenerate ladder (a custom generator's draw_schedule() may be
            # empty): there is no rung to probe — end the pass like
            # _GeometricCursor does instead of planning rung -1.
            self.finished[pending] = True
            return None
        lo, hi = self._lo[pending], self._hi[pending]
        rungs = np.where(self._eager[pending], lo, (lo + hi) // 2)
        rungs = np.minimum(np.maximum(rungs, lo), hi - 1)
        fresh = lo < 0  # feasibility probe at the widest rung
        rungs[fresh] = self.n_steps - 1
        self._lo[pending[fresh]] = 0
        return rungs

    def observe(self, rows: np.ndarray, rungs: np.ndarray, hits: np.ndarray,
                n_candidates: int) -> None:
        """Tighten each probed instance's bracket with its hit count."""
        hit = hits > 0
        # A miss before any hit is the missed feasibility probe: abandoned.
        abandoned = ~hit & (self._hi[rows] == self.n_steps)
        self._hi[rows[hit]] = rungs[hit]
        missed = ~hit & ~abandoned
        self._lo[rows[missed]] = rungs[missed] + 1
        self._eager[rows] = hit & (n_candidates > 0) & (
            hits / max(n_candidates, 1) >= self.eager_hit_rate)
        self.finished[rows] |= abandoned | (self._lo[rows] >= self._hi[rows])


def resolve_schedule(schedule) -> SearchSchedule:
    """Coerce ``schedule`` (``None``, a name, or an instance) to a schedule.

    ``None`` resolves to the default :class:`GeometricSchedule`; the strings
    ``"geometric"`` and ``"adaptive"`` resolve to default-configured
    instances (this is what lets experiment runners and CLI surfaces accept
    a plain name); a :class:`SearchSchedule` instance passes through.
    """
    if schedule is None:
        return GeometricSchedule()
    if isinstance(schedule, SearchSchedule):
        return schedule
    if isinstance(schedule, str):
        named = {"geometric": GeometricSchedule, "adaptive": AdaptiveSchedule}
        if schedule in named:
            return named[schedule]()
        raise ValidationError(
            f"unknown schedule {schedule!r}; known: {sorted(named)}"
        )
    raise ValidationError(
        f"schedule must be None, a name, or a SearchSchedule, got {type(schedule).__name__}"
    )
