"""Logistic regression trained with full-batch gradient descent.

The model exposes gradients (:meth:`LogisticRegression.gradient_input`) so
gradient-based explanation methods in :mod:`fairexp.explanations` can use it
as a "gradient access" model in the sense of the explanation taxonomy
(Figure 2 of the paper).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConvergenceError, ValidationError
from ..utils import check_random_state, sigmoid
from .base import BaseClassifier

__all__ = ["LogisticRegression"]


class LogisticRegression(BaseClassifier):
    """Binary logistic regression with optional L2 regularisation.

    Parameters
    ----------
    learning_rate:
        Step size for gradient descent.
    n_iter:
        Maximum number of full-batch iterations.
    l2:
        L2 regularisation strength (0 disables regularisation).
    tol:
        Stop early when the gradient norm falls below this threshold.
    fit_intercept:
        Whether to learn an intercept term.
    sample_weight_support:
        The ``fit`` method accepts per-sample weights, which the fairness
        mitigation layer (reweighing) relies on.
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        n_iter: int = 2000,
        l2: float = 0.0,
        tol: float = 1e-6,
        fit_intercept: bool = True,
        random_state: int | None = 0,
    ) -> None:
        super().__init__()
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.l2 = l2
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.random_state = random_state
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    # ------------------------------------------------------------------ fit
    def fit(self, X, y, sample_weight=None) -> "LogisticRegression":
        """Fit by batch gradient descent; returns ``self``."""
        X, y = self._validate_fit_input(X, y)
        if set(np.unique(y)) - {0, 1}:
            raise ValidationError("LogisticRegression supports binary 0/1 labels only")
        y = y.astype(float)
        n_samples, n_features = X.shape

        weights = self._validate_sample_weight(sample_weight, n_samples)
        weights = weights / weights.sum() * n_samples

        # Optimize in standardized feature space so gradient descent is robust
        # to raw feature scales; coefficients are folded back afterwards.
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        Z = (X - mean) / scale

        rng = check_random_state(self.random_state)
        coef = rng.normal(scale=0.01, size=n_features)
        intercept = 0.0
        # Keep the L2 shrinkage step contractive: learning_rate * l2 must stay
        # below 1 or the ridge term alone makes the iteration diverge.
        learning_rate = self.learning_rate
        if self.l2 > 0:
            learning_rate = min(learning_rate, 0.9 / self.l2)

        for iteration in range(self.n_iter):
            scores = Z @ coef + intercept
            probabilities = sigmoid(scores)
            error = weights * (probabilities - y)
            grad_coef = Z.T @ error / n_samples + self.l2 * coef
            grad_intercept = float(error.mean()) if self.fit_intercept else 0.0

            coef -= learning_rate * grad_coef
            intercept -= learning_rate * grad_intercept

            gradient_norm = float(np.linalg.norm(grad_coef))
            if gradient_norm < self.tol:
                break
        else:
            iteration = self.n_iter - 1

        if not np.all(np.isfinite(coef)):
            raise ConvergenceError("logistic regression diverged; lower the learning rate")

        self.coef_ = coef / scale
        self.intercept_ = intercept - float(np.sum(coef * mean / scale))
        self.n_iter_ = iteration + 1
        self.classes_ = np.array([0, 1])
        self._fitted = True
        return self

    # ------------------------------------------------------------- predict
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

    # ------------------------------------------------------------ gradients
    def gradient_input(self, X) -> np.ndarray:
        """Gradient of the positive-class probability w.r.t. each input feature.

        Returns an array of shape ``(n_samples, n_features)``.
        """
        X = self._validate_predict_input(X)
        probabilities = sigmoid(X @ self.coef_ + self.intercept_)
        return (probabilities * (1 - probabilities))[:, None] * self.coef_[None, :]

    def distance_to_boundary(self, X) -> np.ndarray:
        """Signed Euclidean distance of each sample to the decision hyperplane.

        Used by the recourse-equalization methods (Gupta et al.), where group
        recourse is defined as the average distance of negatively classified
        individuals from the boundary.
        """
        X = self._validate_predict_input(X)
        norm = float(np.linalg.norm(self.coef_))
        if norm == 0:
            return np.zeros(X.shape[0])
        return (X @ self.coef_ + self.intercept_) / norm
