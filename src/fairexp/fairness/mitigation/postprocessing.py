"""Post-processing mitigation: modify model outputs after training.

* :class:`GroupThresholdOptimizer` — pick per-group decision thresholds to
  satisfy a chosen parity criterion (statistical parity or equal opportunity)
  while maximizing accuracy.
* :class:`RejectOptionClassifier` — within a low-confidence band around the
  decision boundary, favour the protected group and disfavour the reference
  group (Kamiran et al. reject-option classification).
"""

from __future__ import annotations

import numpy as np

from ...exceptions import NotFittedError, ValidationError
from ..groups import group_masks, group_mean

__all__ = ["GroupThresholdOptimizer", "RejectOptionClassifier"]


class GroupThresholdOptimizer:
    """Select per-group thresholds on a score to satisfy a fairness constraint.

    Parameters
    ----------
    criterion:
        ``"statistical_parity"`` (equal selection rates) or
        ``"equal_opportunity"`` (equal true positive rates).
    grid_size:
        Number of candidate thresholds per group.
    tolerance:
        Maximum allowed gap in the chosen criterion; among candidate pairs
        within tolerance, the most accurate is selected.
    """

    def __init__(
        self,
        criterion: str = "statistical_parity",
        grid_size: int = 51,
        tolerance: float = 0.02,
    ) -> None:
        if criterion not in ("statistical_parity", "equal_opportunity"):
            raise ValidationError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.grid_size = grid_size
        self.tolerance = tolerance
        self.threshold_protected_: float | None = None
        self.threshold_reference_: float | None = None

    def fit(self, scores, y_true, sensitive, *, protected_value=1) -> "GroupThresholdOptimizer":
        """Search per-group decision thresholds; returns ``self``."""
        scores = np.asarray(scores, dtype=float)
        y_true = np.asarray(y_true, dtype=int)
        masks = group_masks(sensitive, protected_value=protected_value)
        if self.criterion == "equal_opportunity":
            for name, mask in (("protected", masks.protected), ("reference", masks.reference)):
                if not (y_true[mask] == 1).any():
                    raise ValidationError(
                        f"equal_opportunity needs positive labels in both groups; "
                        f"the {name} group has none, so its true positive rate is undefined"
                    )
        grid = np.linspace(0.0, 1.0, self.grid_size)

        best = None
        for t_protected in grid:
            pred_protected = (scores[masks.protected] >= t_protected).astype(int)
            for t_reference in grid:
                pred_reference = (scores[masks.reference] >= t_reference).astype(int)
                gap = self._criterion_gap(
                    pred_protected, pred_reference,
                    y_true[masks.protected], y_true[masks.reference],
                )
                accuracy = (
                    np.sum(pred_protected == y_true[masks.protected])
                    + np.sum(pred_reference == y_true[masks.reference])
                ) / y_true.shape[0]
                key = (gap > self.tolerance, -accuracy, gap)
                if best is None or key < best[0]:
                    best = (key, t_protected, t_reference)

        _, self.threshold_protected_, self.threshold_reference_ = best
        return self

    def _criterion_gap(self, pred_protected, pred_reference, y_protected, y_reference) -> float:
        if self.criterion == "statistical_parity":
            return abs(float(pred_protected.mean()) - float(pred_reference.mean()))
        # equal opportunity: TPR gap
        def tpr(pred, y):
            return group_mean(pred[y == 1])

        return abs(tpr(pred_protected, y_protected) - tpr(pred_reference, y_reference))

    def predict(self, scores, sensitive, *, protected_value=1) -> np.ndarray:
        """Labels thresholded with each row's group-specific cutoff."""
        if self.threshold_protected_ is None:
            raise NotFittedError("GroupThresholdOptimizer is not fitted")
        scores = np.asarray(scores, dtype=float)
        sensitive = np.asarray(sensitive)
        predictions = np.zeros(scores.shape[0], dtype=int)
        protected = sensitive == protected_value
        predictions[protected] = (scores[protected] >= self.threshold_protected_).astype(int)
        predictions[~protected] = (scores[~protected] >= self.threshold_reference_).astype(int)
        return predictions


class RejectOptionClassifier:
    """Flip low-confidence decisions in favour of the protected group.

    Within the "critical region" ``|score - 0.5| < margin`` the protected
    group receives the favourable outcome and the reference group the
    unfavourable one; outside the region the base decision stands.
    """

    def __init__(self, margin: float = 0.1) -> None:
        if not 0.0 < margin < 0.5:
            raise ValidationError("margin must be in (0, 0.5)")
        self.margin = margin

    def predict(self, scores, sensitive, *, protected_value=1) -> np.ndarray:
        """Labels with the critical-region band flipped toward fairness."""
        scores = np.asarray(scores, dtype=float)
        sensitive = np.asarray(sensitive)
        predictions = (scores >= 0.5).astype(int)
        critical = np.abs(scores - 0.5) < self.margin
        protected = sensitive == protected_value
        predictions[critical & protected] = 1
        predictions[critical & ~protected] = 0
        return predictions
