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
  plans one rung per still-unsolved instance per step and observes the hit
  counts the kernel already computes.
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
    :func:`~fairexp.explanations.engine.lockstep_candidate_search`:

    * ``cursor.plan(pending)`` returns ``{instance: rung}`` for the
      instances to probe this step, in ``pending`` order; an empty mapping
      ends the search.
    * ``cursor.observe(instance, rung, n_hits, n_candidates)`` feeds back
      the hit count of one probe.
    * ``cursor.finished`` is the set of instances needing no further probes
      (first hit reached for the geometric ladder; bisection converged or
      instance abandoned for the adaptive one).
    """

    def begin(self, n_steps: int):
        """Start one search pass over a ladder of ``n_steps`` rungs."""
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

    def begin(self, n_steps: int):
        """Return a fresh bottom-up cursor over ``n_steps`` rungs."""
        return _GeometricCursor(int(n_steps))


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
    * a hit whose hit rate reaches ``eager_hit_rate`` means the boundary is
      well below the probed rung, so the next probe jumps straight to the
      lowest untested rung instead of the bracket midpoint.

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

    Parameters
    ----------
    eager_hit_rate:
        Hit-rate threshold at which the bisection shortcuts to the lowest
        untested rung (default ``0.5``).
    """

    eager_hit_rate: float = 0.5

    def begin(self, n_steps: int):
        """Return a fresh adaptive (bisection) cursor over ``n_steps`` rungs."""
        return _AdaptiveCursor(int(n_steps), float(self.eager_hit_rate))


class _GeometricCursor:
    """Mutable state of one bottom-up ladder walk."""

    def __init__(self, n_steps: int) -> None:
        self.n_steps = n_steps
        self.finished: set[int] = set()
        self._step = 0

    def plan(self, pending) -> dict[int, int]:
        """Every pending instance probes the current rung; empty when the
        ladder is exhausted."""
        if self._step >= self.n_steps:
            return {}
        rung = self._step
        self._step += 1
        return {i: rung for i in pending}

    def observe(self, instance: int, rung: int, n_hits: int, n_candidates: int) -> None:
        """A hit finishes the instance (first-hit-stops, as the fixed
        schedule always behaved); misses keep it climbing."""
        if n_hits > 0:
            self.finished.add(instance)


class _AdaptiveCursor:
    """Mutable state of one adaptive (feasibility probe + bisection) pass."""

    def __init__(self, n_steps: int, eager_hit_rate: float) -> None:
        self.n_steps = n_steps
        self.eager_hit_rate = eager_hit_rate
        self.finished: set[int] = set()
        self._lo: dict[int, int] = {}        # lowest rung not yet ruled out
        self._hi: dict[int, int] = {}        # lowest known-hit rung
        self._eager: dict[int, bool] = {}    # last hit saturated the rung

    def plan(self, pending) -> dict[int, int]:
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
            self.finished.update(pending)
            return {}
        probes: dict[int, int] = {}
        for i in pending:
            if i not in self._lo:  # feasibility probe at the widest rung
                self._lo[i] = 0
                probes[i] = self.n_steps - 1
                continue
            lo, hi = self._lo[i], self._hi[i]
            rung = lo if self._eager.get(i) else (lo + hi) // 2
            probes[i] = min(max(rung, lo), hi - 1)
        return probes

    def observe(self, instance: int, rung: int, n_hits: int, n_candidates: int) -> None:
        """Tighten the instance's bracket with one probe's hit count."""
        if n_hits > 0:
            self._hi[instance] = rung
            self._eager[instance] = (
                n_candidates > 0 and n_hits / n_candidates >= self.eager_hit_rate
            )
        elif instance not in self._hi:
            # Missed the widest rung on the feasibility probe: abandoned.
            self.finished.add(instance)
            return
        else:
            self._lo[instance] = rung + 1
            self._eager[instance] = False
        if self._lo[instance] >= self._hi[instance]:
            self.finished.add(instance)


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
