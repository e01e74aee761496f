"""Per-instance reference searches the batched generators are checked against.

The generators have one search path, ``generate_batch_aligned``; their
``generate(x)`` runs it on a one-row batch.  These loops are the original
one-instance-at-a-time searches, kept here as independent oracles: each
walks one row through its ladder (or gradient trajectory) with its own
predict calls and the one-predict-per-feature greedy sparsifier, sharing
nothing with the lockstep engine but the generator's draw, projection and
result builder.  Each returns a ``Counterfactual`` or ``None`` when the
search budget runs out.
"""

from __future__ import annotations

import numpy as np

from fairexp.explanations import batch_counterfactual_distance
from fairexp.utils import check_random_state


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
    return generator._make_results_batch(x[None, :], candidate[None, :])[0]


def ladder_search(generator, x):
    """Random-search / growing-spheres reference: walk the rung ladder
    bottom-up and keep the closest hit of the first rung that has one."""
    x = np.asarray(x, dtype=float).ravel()
    rng = check_random_state(generator.random_state)
    for step in range(len(generator.draw_schedule())):
        candidates = generator.constraints.project(x, generator._draw(rng, x, step))
        hits = np.flatnonzero(generator._predict(candidates) == generator.target_class)
        if hits.size:
            distances = batch_counterfactual_distance(
                x, candidates[hits], scale=generator.scale_, metric=generator.metric,
            )
            best = candidates[hits[np.argmin(distances)]]
            return _result(generator, x, greedy_sparsify(generator, x, best))
    return None


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
