"""Base classes and protocols for fairexp models.

All classifiers in :mod:`fairexp.models` follow the familiar
``fit`` / ``predict`` / ``predict_proba`` convention so they can be swapped
freely under the fairness-explanation methods, which only require black-box
(or, where noted, gradient) access.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from ..exceptions import NotFittedError, ValidationError
from ..utils import check_array, check_consistent_length

__all__ = ["BaseClassifier", "ProbabilisticClassifier"]


class BaseClassifier(ABC):
    """Abstract binary/multiclass classifier.

    Subclasses must implement :meth:`fit` and :meth:`predict_proba`;
    :meth:`predict` defaults to an argmax over the predicted probabilities.
    """

    classes_: np.ndarray

    def __init__(self) -> None:
        self._fitted = False

    # ------------------------------------------------------------------ API
    @abstractmethod
    def fit(self, X, y) -> "BaseClassifier":
        """Fit the model on features ``X`` and labels ``y`` and return ``self``."""

    @abstractmethod
    def predict_proba(self, X) -> np.ndarray:
        """Return an ``(n_samples, n_classes)`` array of class probabilities."""

    def predict(self, X) -> np.ndarray:
        """Return the most probable class for each sample."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def decision_function(self, X) -> np.ndarray:
        """Return a score for the positive class (probability by default)."""
        return self.predict_proba(X)[:, -1]

    def score(self, X, y) -> float:
        """Return accuracy on the given data."""
        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))

    # -------------------------------------------------------------- helpers
    def _check_fitted(self) -> None:
        if not getattr(self, "_fitted", False):
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit() first")

    def _validate_fit_input(self, X, y) -> tuple[np.ndarray, np.ndarray]:
        X = check_array(X, ndim=2, name="X")
        y = np.asarray(y)
        check_consistent_length(X, y)
        if y.ndim != 1:
            y = y.ravel()
        self.classes_ = np.unique(y)
        return X, y

    def _validate_sample_weight(self, sample_weight, n_samples: int) -> np.ndarray:
        """Return ``sample_weight`` as a float array, all ones for ``None``.

        Weights must be one finite, non-negative entry per sample with a
        positive, finite sum: every weighted ``fit`` normalises them, and a
        zero, infinite or NaN sum would otherwise surface as a diverged fit,
        negative weights as a silently sign-flipped one.
        """
        if sample_weight is None:
            return np.ones(n_samples)
        weights = np.asarray(sample_weight, dtype=float)
        if weights.shape != (n_samples,):
            raise ValidationError(
                f"sample_weight must have one entry per sample: expected shape "
                f"({n_samples},), got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValidationError("sample_weight contains NaN or infinite values")
        if np.any(weights < 0):
            raise ValidationError("sample_weight must be non-negative")
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not 0 < total < np.inf:
            raise ValidationError("sample_weight must have a positive, finite sum")
        return weights

    def _validate_predict_input(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_array(X, ndim=2, name="X")
        return X

    def get_params(self) -> dict[str, Any]:
        """Return constructor parameters (public attributes set in ``__init__``)."""
        return {
            key: value
            for key, value in vars(self).items()
            if not key.endswith("_") and not key.startswith("_")
        }

    def clone(self) -> "BaseClassifier":
        """Return an unfitted copy of this estimator with identical parameters."""
        return type(self)(**self.get_params())

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({params})"


class ProbabilisticClassifier(BaseClassifier):
    """Marker base class for classifiers with calibrated probability output."""
