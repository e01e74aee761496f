"""Probability calibration (Platt scaling) and calibration-gap measurement."""

from __future__ import annotations

import numpy as np

from ..exceptions import NotFittedError
from ..utils import sigmoid
from .base import BaseClassifier
from .metrics import calibration_curve

__all__ = ["PlattCalibrator", "CalibratedClassifier", "expected_calibration_error"]


class PlattCalibrator:
    """Fit a logistic map ``p -> sigmoid(a * logit(p) + b)`` to recalibrate scores."""

    def __init__(self, n_iter: int = 500, learning_rate: float = 0.1) -> None:
        self.n_iter = n_iter
        self.learning_rate = learning_rate
        self.a_: float | None = None
        self.b_: float | None = None

    def fit(self, scores, y) -> "PlattCalibrator":
        """Fit the sigmoid parameters on scores vs. labels; returns ``self``."""
        scores = np.clip(np.asarray(scores, dtype=float), 1e-6, 1 - 1e-6)
        y = np.asarray(y, dtype=float)
        logits = np.log(scores / (1 - scores))
        a, b = 1.0, 0.0
        for _ in range(self.n_iter):
            predictions = sigmoid(a * logits + b)
            error = predictions - y
            grad_a = float(np.mean(error * logits))
            grad_b = float(np.mean(error))
            a -= self.learning_rate * grad_a
            b -= self.learning_rate * grad_b
        self.a_, self.b_ = a, b
        return self

    def transform(self, scores) -> np.ndarray:
        """Calibrated probabilities for raw positive-class scores."""
        if self.a_ is None:
            raise NotFittedError("PlattCalibrator is not fitted")
        scores = np.clip(np.asarray(scores, dtype=float), 1e-6, 1 - 1e-6)
        logits = np.log(scores / (1 - scores))
        return sigmoid(self.a_ * logits + self.b_)


class CalibratedClassifier(BaseClassifier):
    """Wrap a fitted classifier with a Platt-scaled probability output."""

    def __init__(self, base_model: BaseClassifier, n_iter: int = 500) -> None:
        super().__init__()
        self.base_model = base_model
        self.n_iter = n_iter
        self.calibrator_ = PlattCalibrator(n_iter=n_iter)

    def fit(self, X, y) -> "CalibratedClassifier":
        """Fit the base model (if needed) and its calibrator; returns ``self``."""
        if not getattr(self.base_model, "_fitted", False):
            self.base_model.fit(X, y)
        scores = self.base_model.predict_proba(X)[:, 1]
        self.calibrator_.fit(scores, np.asarray(y))
        self.classes_ = self.base_model.classes_
        self._fitted = True
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Platt-calibrated class-membership probabilities for ``X``."""
        self._check_fitted()
        scores = self.base_model.predict_proba(X)[:, 1]
        positive = self.calibrator_.transform(scores)
        return np.column_stack([1 - positive, positive])


def expected_calibration_error(y_true, y_proba, *, n_bins: int = 10) -> float:
    """Expected calibration error: mean |confidence - accuracy| over probability bins."""
    y_true = np.asarray(y_true, dtype=float)
    y_proba = np.asarray(y_proba, dtype=float)
    mean_predicted, fraction_positive = calibration_curve(y_true, y_proba, n_bins=n_bins)
    if mean_predicted.size == 0:
        return 0.0
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    bin_ids = np.clip(np.digitize(y_proba, edges[1:-1]), 0, n_bins - 1)
    counts = np.bincount(bin_ids, minlength=n_bins).astype(float)
    occupied = counts[counts > 0]
    weights = occupied / occupied.sum()
    return float(np.sum(weights * np.abs(mean_predicted - fraction_positive)))
