"""Random forest classifier built from :class:`fairexp.models.tree.DecisionTreeClassifier`."""

from __future__ import annotations

import numpy as np

from ..utils import check_random_state
from .base import BaseClassifier
from .tree import DecisionTreeClassifier

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier(BaseClassifier):
    """Bagged ensemble of decision trees with feature subsampling.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to each tree.
    max_features:
        Candidate features per split; defaults to ``sqrt``.
    bootstrap:
        Whether each tree is trained on a bootstrap resample.
    """

    def __init__(
        self,
        n_estimators: int = 25,
        max_depth: int | None = 8,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = 0,
    ) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list[DecisionTreeClassifier] = []
        self.feature_importances_: np.ndarray | None = None

    def fit(self, X, y, sample_weight=None) -> "RandomForestClassifier":
        """Fit the bootstrapped trees on ``X``/``y``; returns ``self``."""
        X, y = self._validate_fit_input(X, y)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        self.estimators_ = []
        importances = np.zeros(X.shape[1])
        if sample_weight is not None:
            sample_weight = self._validate_sample_weight(sample_weight, n_samples)

        for i in range(self.n_estimators):
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            if self.bootstrap:
                idx = rng.integers(0, n_samples, size=n_samples)
            else:
                idx = np.arange(n_samples)
            weights = None if sample_weight is None else sample_weight[idx]
            tree.fit(X[idx], y[idx], sample_weight=weights)
            importances += tree.feature_importances_
            self.estimators_.append(tree)

        self.feature_importances_ = importances / self.n_estimators
        self._fitted = True
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Class-membership probabilities averaged over the trees."""
        X = self._validate_predict_input(X)
        n_classes = self.classes_.shape[0]
        total = np.zeros((X.shape[0], n_classes))
        for tree in self.estimators_:
            proba = tree.predict_proba(X)
            # Trees trained on bootstrap samples may have seen fewer classes;
            # align their output columns with the forest's class set.
            aligned = np.zeros((X.shape[0], n_classes))
            for j, cls in enumerate(tree.classes_):
                aligned[:, int(np.flatnonzero(self.classes_ == cls)[0])] = proba[:, j]
            total += aligned
        return total / self.n_estimators
