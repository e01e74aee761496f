"""k-nearest-neighbours classifier."""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from .base import BaseClassifier

__all__ = ["KNeighborsClassifier"]


class KNeighborsClassifier(BaseClassifier):
    """Majority-vote k-NN with Euclidean or Manhattan distance.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours consulted.
    metric:
        ``"euclidean"`` or ``"manhattan"``.
    weights:
        ``"uniform"`` or ``"distance"`` (inverse-distance weighting).
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        metric: str = "euclidean",
        weights: str = "uniform",
    ) -> None:
        super().__init__()
        if metric not in ("euclidean", "manhattan"):
            raise ValidationError(f"unsupported metric {metric!r}")
        if weights not in ("uniform", "distance"):
            raise ValidationError(f"unsupported weights {weights!r}")
        self.n_neighbors = n_neighbors
        self.metric = metric
        self.weights = weights
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, X, y) -> "KNeighborsClassifier":
        """Store the training set (lazy learner); returns ``self``."""
        X, y = self._validate_fit_input(X, y)
        if self.n_neighbors > X.shape[0]:
            raise ValidationError("n_neighbors larger than the training set")
        self._X = X
        self._y = y
        self._fitted = True
        return self

    def kneighbors(self, X, n_neighbors: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(distances, indices)`` of the nearest training samples."""
        from scipy.spatial.distance import cdist

        X = self._validate_predict_input(X)
        k = n_neighbors or self.n_neighbors
        metric = "cityblock" if self.metric == "manhattan" else self.metric
        distances = cdist(X, self._X, metric=metric)
        indices = np.argsort(distances, axis=1)[:, :k]
        row_idx = np.arange(X.shape[0])[:, None]
        return distances[row_idx, indices], indices

    def predict_proba(self, X) -> np.ndarray:
        """Class-membership probabilities from the neighbour vote."""
        distances, indices = self.kneighbors(X)
        n_classes = self.classes_.shape[0]
        proba = np.zeros((indices.shape[0], n_classes))
        if self.weights == "distance":
            weights = 1.0 / (distances + 1e-12)
        else:
            weights = np.ones_like(distances)
        for i in range(indices.shape[0]):
            neighbour_labels = self._y[indices[i]]
            for j, cls in enumerate(self.classes_):
                proba[i, j] = weights[i][neighbour_labels == cls].sum()
        return proba / proba.sum(axis=1, keepdims=True)
