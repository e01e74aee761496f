"""Probabilistic contrastive counterfactuals for fairness (Galhotra et al. [10]).

This approach explains (un)fairness through *probabilistic contrastive
counterfactual* statements of the form "had the individual's attribute A not
been a, the favourable outcome would have been p% likely".  Unlike actionable
recourse it does not require structural equations: the necessity and
sufficiency probabilities are estimated from historical data (with optional
covariate adjustment), and can be aggregated per attribute to rank the factors
most responsible for the disparity, or evaluated for the sensitive attribute
itself to quantify direct discrimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..causal.probabilistic import ContrastiveScores, contrastive_scores
from ..exceptions import ValidationError
from ..explanations.base import ExplainerInfo, ExplainerRegistry

__all__ = ["AttributeContrastiveResult", "ProbabilisticContrastiveExplainer"]


@dataclass
class AttributeContrastiveResult:
    """Necessity / sufficiency of one binarized attribute for the favourable outcome."""

    attribute: str
    threshold: float
    scores: ContrastiveScores
    scores_protected: ContrastiveScores
    scores_reference: ContrastiveScores


@ExplainerRegistry.register(
    "probabilistic_contrastive", capabilities=("fairness-explainer", "contrastive")
)
class ProbabilisticContrastiveExplainer:
    """Estimate contrastive (necessity/sufficiency) scores from model predictions.

    Parameters
    ----------
    model:
        Classifier under audit.
    feature_names:
        Column names of the feature matrix.
    sensitive_index:
        Index of the sensitive column.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="both",
        explanation_type="example",
        multiplicity="multiple",
    )

    def __init__(self, model, feature_names: Sequence[str], sensitive_index: int) -> None:
        self.model = model
        self.feature_names = list(feature_names)
        self.sensitive_index = sensitive_index

    def _binarize(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        unique = np.unique(values)
        if unique.shape[0] <= 2:
            threshold = float(unique.mean()) if unique.shape[0] == 2 else float(unique[0])
            return (values > threshold - 1e-12).astype(int) if unique.shape[0] == 2 else (
                values.astype(int)
            ), threshold
        threshold = float(np.median(values))
        return (values > threshold).astype(int), threshold

    def explain_attribute(self, X, attribute: str) -> AttributeContrastiveResult:
        """Contrastive scores of one attribute for the model's favourable prediction."""
        X = np.asarray(X, dtype=float)
        if attribute not in self.feature_names:
            raise ValidationError(f"unknown attribute {attribute!r}")
        j = self.feature_names.index(attribute)
        predictions = np.asarray(self.model.predict(X)).astype(int)
        factor, threshold = self._binarize(X[:, j])
        sensitive = X[:, self.sensitive_index].astype(int)

        protected = sensitive == 1
        overall = contrastive_scores(factor, predictions)
        scores_protected = (
            contrastive_scores(factor[protected], predictions[protected])
            if 0 < factor[protected].sum() < protected.sum()
            else ContrastiveScores(0.0, 0.0, 0.0)
        )
        scores_reference = (
            contrastive_scores(factor[~protected], predictions[~protected])
            if 0 < factor[~protected].sum() < (~protected).sum()
            else ContrastiveScores(0.0, 0.0, 0.0)
        )
        return AttributeContrastiveResult(
            attribute=attribute,
            threshold=threshold,
            scores=overall,
            scores_protected=scores_protected,
            scores_reference=scores_reference,
        )

    def explain_sensitive(self, X) -> ContrastiveScores:
        """Necessity/sufficiency of *not belonging to the protected group* for approval.

        High necessity means a large share of approvals among reference-group
        members would not have happened had they been in the protected group —
        direct evidence of discrimination.
        """
        X = np.asarray(X, dtype=float)
        predictions = np.asarray(self.model.predict(X)).astype(int)
        reference_membership = (X[:, self.sensitive_index] != 1).astype(int)
        return contrastive_scores(reference_membership, predictions)

    def rank_attributes(self, X, *, exclude_sensitive: bool = True) -> list[AttributeContrastiveResult]:
        """Rank attributes by the sufficiency of their high value for approval."""
        results = []
        for name in self.feature_names:
            if exclude_sensitive and self.feature_names.index(name) == self.sensitive_index:
                continue
            results.append(self.explain_attribute(X, name))
        results.sort(key=lambda r: -r.scores.sufficiency)
        return results
