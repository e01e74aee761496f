"""Gaussian naive Bayes classifier."""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from .base import BaseClassifier

__all__ = ["GaussianNaiveBayes"]


class GaussianNaiveBayes(BaseClassifier):
    """Naive Bayes with per-class Gaussian feature likelihoods.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to every variance for
        numerical stability.
    """

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        super().__init__()
        self.var_smoothing = var_smoothing
        self.theta_: np.ndarray | None = None
        self.var_: np.ndarray | None = None
        self.class_prior_: np.ndarray | None = None

    def fit(self, X, y, sample_weight=None) -> "GaussianNaiveBayes":
        """Estimate per-class Gaussian parameters; returns ``self``."""
        X, y = self._validate_fit_input(X, y)
        n_classes = self.classes_.shape[0]
        n_features = X.shape[1]
        sample_weight = self._validate_sample_weight(sample_weight, X.shape[0])

        self.theta_ = np.zeros((n_classes, n_features))
        self.var_ = np.zeros((n_classes, n_features))
        self.class_prior_ = np.zeros(n_classes)

        for i, cls in enumerate(self.classes_):
            mask = y == cls
            weights = sample_weight[mask]
            if weights.sum() == 0:
                raise ValidationError(
                    f"sample_weight sums to 0 over class {cls}; its Gaussian "
                    "parameters would be undefined"
                )
            weights = weights / weights.sum()
            self.theta_[i] = np.average(X[mask], axis=0, weights=weights)
            self.var_[i] = np.average((X[mask] - self.theta_[i]) ** 2, axis=0, weights=weights)
            self.class_prior_[i] = sample_weight[mask].sum() / sample_weight.sum()

        epsilon = self.var_smoothing * float(np.var(X, axis=0).max())
        self.var_ += max(epsilon, 1e-12)
        self._fitted = True
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        joint = np.zeros((X.shape[0], self.classes_.shape[0]))
        for i in range(self.classes_.shape[0]):
            log_prior = np.log(self.class_prior_[i] + 1e-12)
            log_likelihood = -0.5 * np.sum(
                np.log(2.0 * np.pi * self.var_[i]) + (X - self.theta_[i]) ** 2 / self.var_[i],
                axis=1,
            )
            joint[:, i] = log_prior + log_likelihood
        return joint

    def predict_proba(self, X) -> np.ndarray:
        """Class-membership probabilities for each row of ``X``."""
        X = self._validate_predict_input(X)
        joint = self._joint_log_likelihood(X)
        joint -= joint.max(axis=1, keepdims=True)
        proba = np.exp(joint)
        return proba / proba.sum(axis=1, keepdims=True)
