"""Group fairness metrics.

Covers the fairness-model families in the paper's taxonomy (Figure 1):

* base-rates metrics — statistical parity difference, disparate impact;
* accuracy-based metrics — equal opportunity (TPR parity), equalized odds
  (TPR + FPR parity), predictive parity, FNR/FPR differences;
* calibration-based metrics — per-group expected calibration error gap;
* aggregate indices — generalized entropy index (between-group inequality).

All "difference" metrics follow the convention *protected minus reference*,
so a negative statistical parity difference means the protected group
receives the favourable outcome less often.  A group rate with nobody to
measure (TPR of a group without positive labels, precision of a group with
no positive prediction) is NaN, and so is the difference built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..models.calibration import expected_calibration_error
from .groups import group_masks, group_mean, group_rate, group_ratio

__all__ = [
    "statistical_parity_difference",
    "disparate_impact",
    "equal_opportunity_difference",
    "equalized_odds_difference",
    "average_odds_difference",
    "predictive_parity_difference",
    "false_negative_rate_difference",
    "false_positive_rate_difference",
    "calibration_gap",
    "generalized_entropy_index",
    "between_group_generalized_entropy",
    "GroupFairnessReport",
    "group_fairness_report",
]


def _conditional_rate(y_true, y_pred, mask, *, label: int, predicted: int) -> float:
    """P(ŷ = predicted | y = label) within ``mask``; NaN when no row has ``label``."""
    given = np.asarray(y_true, dtype=int)[mask] == label
    hits = given & (np.asarray(y_pred, dtype=int)[mask] == predicted)
    return group_rate(int(hits.sum()), int(given.sum()))


def statistical_parity_difference(y_pred, sensitive, *, protected_value=1) -> float:
    """P(ŷ=1 | protected) - P(ŷ=1 | reference)."""
    y_pred = np.asarray(y_pred, dtype=float)
    masks = group_masks(sensitive, protected_value=protected_value)
    return float(y_pred[masks.protected].mean() - y_pred[masks.reference].mean())


def disparate_impact(y_pred, sensitive, *, protected_value=1) -> float:
    """P(ŷ=1 | protected) / P(ŷ=1 | reference); 1.0 is parity, <0.8 the classic 80% rule.

    When nobody in the reference group is selected it reads ``inf`` if
    anyone in the protected group is, and 1.0 if nobody is.
    """
    y_pred = np.asarray(y_pred, dtype=float)
    masks = group_masks(sensitive, protected_value=protected_value)
    return float(group_ratio(group_mean(y_pred[masks.protected]),
                             group_mean(y_pred[masks.reference])))


def equal_opportunity_difference(y_true, y_pred, sensitive, *, protected_value=1) -> float:
    """TPR(protected) - TPR(reference)."""
    masks = group_masks(sensitive, protected_value=protected_value)
    return float(
        _conditional_rate(y_true, y_pred, masks.protected, label=1, predicted=1)
        - _conditional_rate(y_true, y_pred, masks.reference, label=1, predicted=1)
    )


def false_positive_rate_difference(y_true, y_pred, sensitive, *, protected_value=1) -> float:
    """FPR(protected) - FPR(reference)."""
    masks = group_masks(sensitive, protected_value=protected_value)
    return float(
        _conditional_rate(y_true, y_pred, masks.protected, label=0, predicted=1)
        - _conditional_rate(y_true, y_pred, masks.reference, label=0, predicted=1)
    )


def false_negative_rate_difference(y_true, y_pred, sensitive, *, protected_value=1) -> float:
    """FNR(protected) - FNR(reference)."""
    masks = group_masks(sensitive, protected_value=protected_value)
    return float(
        _conditional_rate(y_true, y_pred, masks.protected, label=1, predicted=0)
        - _conditional_rate(y_true, y_pred, masks.reference, label=1, predicted=0)
    )


def equalized_odds_difference(y_true, y_pred, sensitive, *, protected_value=1) -> float:
    """max(|TPR gap|, |FPR gap|) — zero iff equalized odds holds."""
    tpr_gap = equal_opportunity_difference(y_true, y_pred, sensitive,
                                           protected_value=protected_value)
    fpr_gap = false_positive_rate_difference(y_true, y_pred, sensitive,
                                             protected_value=protected_value)
    return float(np.maximum(abs(tpr_gap), abs(fpr_gap)))  # NaN-propagating, unlike max()


def average_odds_difference(y_true, y_pred, sensitive, *, protected_value=1) -> float:
    """Mean of the TPR and FPR gaps (signed)."""
    tpr_gap = equal_opportunity_difference(y_true, y_pred, sensitive,
                                           protected_value=protected_value)
    fpr_gap = false_positive_rate_difference(y_true, y_pred, sensitive,
                                             protected_value=protected_value)
    return float((tpr_gap + fpr_gap) / 2.0)


def predictive_parity_difference(y_true, y_pred, sensitive, *, protected_value=1) -> float:
    """Precision(protected) - Precision(reference)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    masks = group_masks(sensitive, protected_value=protected_value)

    def precision(mask):
        return group_mean(y_true[mask][y_pred[mask] == 1] == 1)

    return precision(masks.protected) - precision(masks.reference)


def calibration_gap(y_true, y_proba, sensitive, *, n_bins: int = 10, protected_value=1) -> float:
    """Difference in expected calibration error between the groups (protected - reference)."""
    y_true = np.asarray(y_true)
    y_proba = np.asarray(y_proba, dtype=float)
    masks = group_masks(sensitive, protected_value=protected_value)
    ece_protected = expected_calibration_error(
        y_true[masks.protected], y_proba[masks.protected], n_bins=n_bins
    )
    ece_reference = expected_calibration_error(
        y_true[masks.reference], y_proba[masks.reference], n_bins=n_bins
    )
    return float(ece_protected - ece_reference)


def generalized_entropy_index(benefits, *, alpha: float = 2.0) -> float:
    """Generalized entropy index of a non-negative benefit vector.

    With ``b_i = ŷ_i - y_i + 1`` this is the individual+group unfairness index
    of Speicher et al.; 0 means perfectly equal benefits.
    """
    benefits = np.asarray(benefits, dtype=float)
    mean = benefits.mean()
    if mean == 0:
        return 0.0
    ratios = benefits / mean
    if alpha == 0:
        with np.errstate(divide="ignore"):
            return float(-np.mean(np.log(np.where(ratios > 0, ratios, 1e-12))))
    if alpha == 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(ratios > 0, ratios * np.log(ratios), 0.0)
        return float(np.mean(terms))
    return float(np.mean(ratios**alpha - 1) / (alpha * (alpha - 1)))


def between_group_generalized_entropy(
    y_true, y_pred, sensitive, *, alpha: float = 2.0, protected_value=1
) -> float:
    """Between-group component of the generalized entropy index of benefits."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    benefits = y_pred - y_true + 1.0
    masks = group_masks(sensitive, protected_value=protected_value)
    group_benefits = np.empty_like(benefits)
    group_benefits[masks.protected] = benefits[masks.protected].mean()
    group_benefits[masks.reference] = benefits[masks.reference].mean()
    return generalized_entropy_index(group_benefits, alpha=alpha)


@dataclass
class GroupFairnessReport:
    """Container for the standard battery of group fairness metrics."""

    statistical_parity_difference: float
    disparate_impact: float
    equal_opportunity_difference: float
    equalized_odds_difference: float
    average_odds_difference: float
    predictive_parity_difference: float
    false_negative_rate_difference: float
    false_positive_rate_difference: float
    between_group_entropy: float
    calibration_gap: float | None = None
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """The per-group metrics as a plain JSON-serializable dict."""
        out = {
            "statistical_parity_difference": self.statistical_parity_difference,
            "disparate_impact": self.disparate_impact,
            "equal_opportunity_difference": self.equal_opportunity_difference,
            "equalized_odds_difference": self.equalized_odds_difference,
            "average_odds_difference": self.average_odds_difference,
            "predictive_parity_difference": self.predictive_parity_difference,
            "false_negative_rate_difference": self.false_negative_rate_difference,
            "false_positive_rate_difference": self.false_positive_rate_difference,
            "between_group_entropy": self.between_group_entropy,
        }
        if self.calibration_gap is not None:
            out["calibration_gap"] = self.calibration_gap
        out.update(self.extras)
        return out

    def worst_violation(self) -> tuple[str, float]:
        """Return the metric with the largest absolute deviation from its ideal value.

        A NaN metric (a group with nothing to measure) deviates by nothing
        measurable and is never the worst.
        """
        deviations = {}
        for name, value in self.as_dict().items():
            ideal = 1.0 if name == "disparate_impact" else 0.0
            if not np.isnan(value):
                deviations[name] = abs(value - ideal)
        worst = max(deviations, key=deviations.get)
        return worst, deviations[worst]


def group_fairness_report(
    y_true, y_pred, sensitive, *, y_proba=None, protected_value=1
) -> GroupFairnessReport:
    """Compute the full battery of group fairness metrics in one call."""
    return GroupFairnessReport(
        statistical_parity_difference=statistical_parity_difference(
            y_pred, sensitive, protected_value=protected_value
        ),
        disparate_impact=disparate_impact(y_pred, sensitive, protected_value=protected_value),
        equal_opportunity_difference=equal_opportunity_difference(
            y_true, y_pred, sensitive, protected_value=protected_value
        ),
        equalized_odds_difference=equalized_odds_difference(
            y_true, y_pred, sensitive, protected_value=protected_value
        ),
        average_odds_difference=average_odds_difference(
            y_true, y_pred, sensitive, protected_value=protected_value
        ),
        predictive_parity_difference=predictive_parity_difference(
            y_true, y_pred, sensitive, protected_value=protected_value
        ),
        false_negative_rate_difference=false_negative_rate_difference(
            y_true, y_pred, sensitive, protected_value=protected_value
        ),
        false_positive_rate_difference=false_positive_rate_difference(
            y_true, y_pred, sensitive, protected_value=protected_value
        ),
        between_group_entropy=between_group_generalized_entropy(
            y_true, y_pred, sensitive, protected_value=protected_value
        ),
        calibration_gap=(
            None
            if y_proba is None
            else calibration_gap(y_true, y_proba, sensitive, protected_value=protected_value)
        ),
    )
