"""Individual fairness metrics.

Individual fairness asks that *similar individuals are treated similarly*
(Dwork et al.).  This module provides:

* consistency — agreement of each prediction with its k nearest neighbours;
* Lipschitz violation — the largest ratio of output distance to input distance;
* counterfactual flip rate — how often the prediction changes when only the
  sensitive attribute is flipped (an observational proxy for counterfactual
  fairness; the SCM-based version lives in :mod:`fairexp.core`).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["consistency_score", "lipschitz_violation", "counterfactual_flip_rate"]


def consistency_score(X, y_pred, *, n_neighbors: int = 5) -> float:
    """1 minus the mean absolute difference between each prediction and its neighbours'.

    A score of 1.0 means every individual receives the same decision as its
    ``n_neighbors`` most similar peers.
    """
    from scipy.spatial.distance import cdist

    X = np.asarray(X, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if X.shape[0] != y_pred.shape[0]:
        raise ValidationError("X and y_pred must align")
    if n_neighbors >= X.shape[0]:
        raise ValidationError("n_neighbors must be smaller than the number of samples")
    distances = cdist(X, X)
    np.fill_diagonal(distances, np.inf)
    neighbour_idx = np.argsort(distances, axis=1)[:, :n_neighbors]
    neighbour_mean = y_pred[neighbour_idx].mean(axis=1)
    return float(1.0 - np.mean(np.abs(y_pred - neighbour_mean)))


def lipschitz_violation(X, scores, *, epsilon: float = 1e-8) -> float:
    """Largest observed ratio |score_i - score_j| / ||x_i - x_j||.

    Small values indicate the model treats similar individuals similarly in
    the "fairness through awareness" (distance-based) sense.
    """
    from scipy.spatial.distance import pdist

    X = np.asarray(X, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if X.shape[0] != scores.shape[0]:
        raise ValidationError("X and scores must align")
    if X.shape[0] < 2:
        return 0.0
    input_distances = pdist(X)
    output_distances = pdist(scores[:, None])
    ratios = output_distances / (input_distances + epsilon)
    return float(ratios.max())


def counterfactual_flip_rate(model, X, sensitive_index: int) -> float:
    """Fraction of samples whose prediction flips when the sensitive bit is toggled.

    This is the observational analogue of counterfactual fairness: it
    intervenes on the sensitive column alone, without propagating effects to
    descendants (for the causal version see
    :func:`fairexp.core.fair_recourse.causal_flip_rate`).
    """
    X = np.asarray(X, dtype=float)
    original = np.asarray(model.predict(X))
    flipped = X.copy()
    flipped[:, sensitive_index] = 1.0 - flipped[:, sensitive_index]
    counterfactual = np.asarray(model.predict(flipped))
    return float(np.mean(original != counterfactual))
