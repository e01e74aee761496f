"""Per-instance reference searches the batched generators are checked against.

The generators have one search path, ``generate_batch_aligned``; their
``generate(x)`` runs it on a one-row batch.  These loops are the original
one-instance-at-a-time searches, kept here as independent oracles: each
walks one row through its ladder (or gradient trajectory) on its own
freshly seeded random stream, with its own copy of the generators' draw
formulas, its own predict calls and the one-predict-per-feature greedy
sparsifier, sharing nothing with the lockstep engine but the generator's
parameters, projection and result builder.  Each returns a
``Counterfactual`` or ``None`` when the search budget runs out.

The schedule cursors the ladder oracle walks are per-instance ones too:
:class:`GeometricOracleCursor` and :class:`AdaptiveOracleCursor` keep their
state in dicts and sets keyed by instance and observe one probe at a time,
so the array cursors in ``fairexp.explanations.schedules`` are checked
against an independent implementation of the same rules.
"""

from __future__ import annotations

import numpy as np

from fairexp.explanations import (
    AdaptiveSchedule,
    GeometricSchedule,
    GrowingSpheresCounterfactual,
    RandomSearchCounterfactual,
    batch_counterfactual_distance,
)
from fairexp.utils import check_random_state


class GeometricOracleCursor:
    """Bottom-up ladder walk: every pending instance probes the current
    rung; a hit finishes it."""

    def __init__(self, n_steps: int) -> None:
        self.n_steps = n_steps
        self.finished: set[int] = set()
        self._step = 0

    def plan(self, pending) -> dict[int, int]:
        if self._step >= self.n_steps:
            return {}
        rung = self._step
        self._step += 1
        return {i: rung for i in pending}

    def observe(self, instance: int, rung: int, n_hits: int, n_candidates: int) -> None:
        if n_hits > 0:
            self.finished.add(instance)


class AdaptiveOracleCursor:
    """Feasibility probe at the widest rung, then bisection of the bracket
    ``[lo, hi)``; a saturated hit jumps to the lowest untested rung."""

    def __init__(self, n_steps: int, eager_hit_rate: float = 0.5) -> None:
        self.n_steps = n_steps
        self.eager_hit_rate = eager_hit_rate
        self.finished: set[int] = set()
        self._lo: dict[int, int] = {}        # lowest rung not yet ruled out
        self._hi: dict[int, int] = {}        # lowest known-hit rung
        self._eager: dict[int, bool] = {}    # last hit saturated the rung

    def plan(self, pending) -> dict[int, int]:
        if self.n_steps <= 0:
            self.finished.update(pending)
            return {}
        probes: dict[int, int] = {}
        for i in pending:
            if i not in self._lo:
                self._lo[i] = 0
                probes[i] = self.n_steps - 1
                continue
            lo, hi = self._lo[i], self._hi[i]
            rung = lo if self._eager.get(i) else (lo + hi) // 2
            probes[i] = min(max(rung, lo), hi - 1)
        return probes

    def observe(self, instance: int, rung: int, n_hits: int, n_candidates: int) -> None:
        if n_hits > 0:
            self._hi[instance] = rung
            self._eager[instance] = (
                n_candidates > 0 and n_hits / n_candidates >= self.eager_hit_rate
            )
        elif instance not in self._hi:
            self.finished.add(instance)  # missed the feasibility probe
            return
        else:
            self._lo[instance] = rung + 1
            self._eager[instance] = False
        if self._lo[instance] >= self._hi[instance]:
            self.finished.add(instance)


def oracle_cursor(schedule, n_steps: int):
    """The per-instance cursor implementing ``schedule``'s rules."""
    if type(schedule) is GeometricSchedule:
        return GeometricOracleCursor(n_steps)
    if type(schedule) is AdaptiveSchedule:
        return AdaptiveOracleCursor(n_steps)
    raise TypeError(f"no oracle cursor for {type(schedule).__name__}")


def greedy_sparsify(generator, x, candidate):
    """Revert changed features, smallest scaled change first, while the
    candidate keeps the target class — one predict per feature."""
    candidate = candidate.copy()
    changed = np.flatnonzero(~np.isclose(candidate, x))
    order = changed[np.argsort(np.abs((candidate - x) / generator.scale_)[changed])]
    for j in order:
        trial = candidate.copy()
        trial[j] = x[j]
        if int(generator._predict(trial)[0]) == generator.target_class:
            candidate = trial
    return candidate


def _result(generator, x, candidate):
    return generator._make_results_batch([0], x[None, :], candidate[None, :])[0]


def draw(generator, rng, x, step):
    """Candidate matrix for ``x`` at rung ``step``: the sampling formulas
    of the two ladder generators, written out here so the parity tests do
    not check the generators' ``_offsets`` against themselves."""
    if isinstance(generator, RandomSearchCounterfactual):
        radius = generator.draw_schedule()[step]
        noise = rng.normal(0.0, radius, (generator.n_samples, x.shape[0]))
        return x[None, :] + noise * generator.scale_
    if isinstance(generator, GrowingSpheresCounterfactual):
        inner, outer = generator.draw_schedule()[step]
        directions = rng.normal(size=(generator.n_samples_per_shell, x.shape[0]))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True) + 1e-12
        radii = rng.uniform(inner, outer, generator.n_samples_per_shell)
        return x[None, :] + directions * radii[:, None] * generator.scale_
    raise TypeError(f"no reference draw for {type(generator).__name__}")


def ladder_search(generator, x):
    """Random-search / growing-spheres reference: probe the rungs the
    generator's schedule plans for this one row (bottom-up until the first
    hit for the geometric ladder) and keep the closest hit over every
    probed rung."""
    x = np.asarray(x, dtype=float).ravel()
    rng = check_random_state(generator.random_state)
    cursor = oracle_cursor(generator.schedule, len(generator.draw_schedule()))
    best = None  # (distance, candidate)
    while 0 not in cursor.finished:
        plan = cursor.plan([0])
        if not plan:
            break
        step = plan[0]
        candidates = generator.constraints.project(x, draw(generator, rng, x, step))
        hits = np.flatnonzero(generator._predict(candidates) == generator.target_class)
        if hits.size:
            distances = batch_counterfactual_distance(
                x, candidates[hits], scale=generator.scale_, metric=generator.metric,
            )
            pick = int(np.argmin(distances))
            if best is None or distances[pick] < best[0]:
                best = (distances[pick], candidates[hits[pick]])
        cursor.observe(0, step, int(hits.size), candidates.shape[0])
    if best is None:
        return None
    return _result(generator, x, greedy_sparsify(generator, x, best[1]))


def gradient_search(generator, x):
    """Gradient-ascent reference: step until the prediction flips; a
    plateau moves a fifth of the way toward the target-class anchor."""
    x = np.asarray(x, dtype=float).ravel()
    candidate = x.copy()
    sign = 1.0 if generator.target_class == 1 else -1.0
    anchor = generator._anchor()
    for _ in range(generator.max_iter):
        if int(generator._predict(candidate)[0]) == generator.target_class:
            return _result(generator, x, greedy_sparsify(generator, x, candidate))
        gradient = np.asarray(generator.model.gradient_input(candidate[None, :]))[0]
        step = sign * generator.step_size * gradient * generator.scale_**2
        if np.linalg.norm(step / generator.scale_) < 1e-4:
            step = 0.2 * (anchor - candidate)
        candidate = generator.constraints.project(x, candidate + step)
    if int(generator._predict(candidate)[0]) == generator.target_class:
        return _result(generator, x, candidate)
    return None
