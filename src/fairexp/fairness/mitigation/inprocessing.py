"""In-processing mitigation: train models whose objective penalizes unfairness.

* :class:`FairLogisticRegression` — logistic regression with a statistical-
  parity (covariance) penalty, in the spirit of prejudice-remover /
  Zafar-style constraints.
* :class:`RecourseRegularizedClassifier` — the recourse-equalizing classifier
  of Gupta et al. [79]: the objective additionally penalizes the difference
  in average distance-to-boundary (recourse) between groups among negatively
  classified individuals.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import ValidationError
from ...models.base import BaseClassifier
from ...models.logistic import LogisticRegression
from ...utils import check_random_state, sigmoid
from ..groups import group_masks, group_mean

__all__ = ["FairLogisticRegression", "RecourseRegularizedClassifier"]


class FairLogisticRegression(BaseClassifier):
    """Logistic regression with a group-parity penalty.

    The penalty is the squared covariance between group membership and the
    decision score, a smooth surrogate for statistical parity difference.

    Parameters
    ----------
    fairness_weight:
        Strength of the parity penalty; 0 reduces to ordinary logistic
        regression.
    """

    def __init__(
        self,
        fairness_weight: float = 1.0,
        learning_rate: float = 0.1,
        n_iter: int = 2000,
        l2: float = 1e-4,
        random_state: int | None = 0,
    ) -> None:
        super().__init__()
        self.fairness_weight = fairness_weight
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.l2 = l2
        self.random_state = random_state
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y, sensitive=None, sample_weight=None) -> "FairLogisticRegression":
        """Fit with the fairness penalty active; returns ``self``."""
        if sensitive is None:
            raise ValidationError("FairLogisticRegression.fit requires the sensitive vector")
        X, y = self._validate_fit_input(X, y)
        y = y.astype(float)
        protected = group_masks(sensitive).protected.astype(float)
        centered_group = protected - protected.mean()
        n_samples, n_features = X.shape
        sample_weight = self._validate_sample_weight(sample_weight, n_samples)
        sample_weight = sample_weight / sample_weight.mean()

        # Train in standardized space; fold coefficients back at the end.
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        Z = (X - mean) / scale

        rng = check_random_state(self.random_state)
        coef = rng.normal(scale=0.01, size=n_features)
        intercept = 0.0

        for _ in range(self.n_iter):
            scores = Z @ coef + intercept
            probabilities = sigmoid(scores)
            error = sample_weight * (probabilities - y)
            grad_coef = Z.T @ error / n_samples + self.l2 * coef
            grad_intercept = float(error.mean())

            # Parity penalty: (cov(group, score))^2 — gradient via chain rule.
            covariance = float(np.mean(centered_group * scores))
            grad_coef += self.fairness_weight * 2.0 * covariance * (
                Z.T @ centered_group / n_samples
            )
            grad_intercept += self.fairness_weight * 2.0 * covariance * float(
                centered_group.mean()
            )

            coef -= self.learning_rate * grad_coef
            intercept -= self.learning_rate * grad_intercept

        self.coef_ = coef / scale
        self.intercept_ = intercept - float(np.sum(coef * mean / scale))
        self.classes_ = np.array([0, 1])
        self._fitted = True
        return self

    def decision_function(self, X) -> np.ndarray:
        """Signed decision scores for each row of ``X``."""
        X = self._validate_predict_input(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class-membership probabilities for each row of ``X``."""
        positive = sigmoid(self.decision_function(X))
        return np.column_stack([1 - positive, positive])

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        return (self.decision_function(X) >= 0).astype(int)


class RecourseRegularizedClassifier(BaseClassifier):
    """Classifier that equalizes *recourse* (distance to the boundary) across groups.

    Following Gupta et al. [79], individual recourse is the distance of a
    negatively classified individual from the decision boundary, and group
    recourse is the average over the group.  The training objective is

    ``log-loss + recourse_weight * (recourse(G+) - recourse(G-))^2``

    using a smooth hinge of the negative margin as the per-sample recourse
    surrogate.
    """

    def __init__(
        self,
        recourse_weight: float = 1.0,
        learning_rate: float = 0.1,
        n_iter: int = 2000,
        l2: float = 1e-4,
        random_state: int | None = 0,
    ) -> None:
        super().__init__()
        self.recourse_weight = recourse_weight
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.l2 = l2
        self.random_state = random_state
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y, sensitive=None, sample_weight=None) -> "RecourseRegularizedClassifier":
        """Fit with the recourse regularizer active; returns ``self``."""
        if sensitive is None:
            raise ValidationError(
                "RecourseRegularizedClassifier.fit requires the sensitive vector"
            )
        X, y = self._validate_fit_input(X, y)
        y = y.astype(float)
        masks = group_masks(sensitive)
        n_samples, n_features = X.shape
        sample_weight = self._validate_sample_weight(sample_weight, n_samples)
        sample_weight = sample_weight / sample_weight.mean()

        # Train in standardized space; fold coefficients back at the end.
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        Z = (X - mean) / scale

        rng = check_random_state(self.random_state)
        coef = rng.normal(scale=0.01, size=n_features)
        intercept = 0.0
        # group_masks guarantees both groups have members.
        protected = masks.protected.astype(float)
        reference = masks.reference.astype(float)

        for _ in range(self.n_iter):
            scores = Z @ coef + intercept
            probabilities = sigmoid(scores)
            error = sample_weight * (probabilities - y)
            grad_coef = Z.T @ error / n_samples + self.l2 * coef
            grad_intercept = float(error.mean())

            # Smooth per-sample "cost of recourse": softplus(-score), which is
            # large for individuals deep on the unfavourable side.
            softplus = np.logaddexp(0.0, -scores)
            d_softplus = -sigmoid(-scores)
            recourse_protected = float(np.sum(protected * softplus) / protected.sum())
            recourse_reference = float(np.sum(reference * softplus) / reference.sum())
            gap = recourse_protected - recourse_reference

            weight_vector = (
                protected / protected.sum() - reference / reference.sum()
            )
            d_gap_scores = weight_vector * d_softplus
            grad_coef += self.recourse_weight * 2.0 * gap * (Z.T @ d_gap_scores)
            grad_intercept += self.recourse_weight * 2.0 * gap * float(d_gap_scores.sum())

            coef -= self.learning_rate * grad_coef
            intercept -= self.learning_rate * grad_intercept

        self.coef_ = coef / scale
        self.intercept_ = intercept - float(np.sum(coef * mean / scale))
        self.classes_ = np.array([0, 1])
        self._fitted = True
        return self

    def decision_function(self, X) -> np.ndarray:
        """Signed decision scores for each row of ``X``."""
        X = self._validate_predict_input(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class-membership probabilities for each row of ``X``."""
        positive = sigmoid(self.decision_function(X))
        return np.column_stack([1 - positive, positive])

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        return (self.decision_function(X) >= 0).astype(int)

    def distance_to_boundary(self, X) -> np.ndarray:
        """Signed Euclidean distance to the learned hyperplane (see Gupta et al.)."""
        X = self._validate_predict_input(X)
        norm = float(np.linalg.norm(self.coef_))
        if norm == 0:
            return np.zeros(X.shape[0])
        return (X @ self.coef_ + self.intercept_) / norm

    def group_recourse_gap(self, X, sensitive) -> float:
        """|average recourse(G+) - average recourse(G-)| over negatively classified samples."""
        X = np.asarray(X, dtype=float)
        sensitive = np.asarray(sensitive)
        distances = self.distance_to_boundary(X)
        negative = self.predict(X) == 0
        masks = group_masks(sensitive)
        recourse_protected = group_mean(np.abs(distances[negative & masks.protected]))
        recourse_reference = group_mean(np.abs(distances[negative & masks.reference]))
        return abs(recourse_protected - recourse_reference)
