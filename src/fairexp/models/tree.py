"""CART-style decision tree classifier (numpy implementation)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ValidationError
from ..utils import check_random_state
from .base import BaseClassifier

__all__ = ["DecisionTreeClassifier", "TreeNode"]


@dataclass
class TreeNode:
    """A node in the decision tree.

    Leaf nodes have ``feature is None`` and carry the class distribution in
    ``value``; internal nodes route samples with ``x[feature] <= threshold``
    to ``left`` and the rest to ``right``.
    """

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray = field(default_factory=lambda: np.zeros(2))
    n_samples: int = 0
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        """True when this node has no children."""
        return self.feature is None

    def predict_one(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities at the leaf reached by sample ``x``."""
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def decision_path(self, x: np.ndarray) -> list[tuple[int, float, bool]]:
        """Return the list of ``(feature, threshold, went_left)`` splits for ``x``."""
        path = []
        node = self
        while not node.is_leaf:
            went_left = x[node.feature] <= node.threshold
            path.append((node.feature, node.threshold, bool(went_left)))
            node = node.left if went_left else node.right
        return path


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions**2))


class DecisionTreeClassifier(BaseClassifier):
    """Binary-split decision tree using the Gini impurity criterion.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` for unlimited).
    min_samples_split:
        Minimum number of samples required to consider splitting a node.
    min_samples_leaf:
        Minimum number of samples each child must retain.
    max_features:
        Number of candidate features examined at each split (``None`` = all);
        the random-forest ensemble sets this to ``sqrt``.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | None = 0,
    ) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: TreeNode | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------ fit
    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        """Grow the tree on ``X``/``y``; returns ``self``."""
        X, y = self._validate_fit_input(X, y)
        y = y.astype(int)
        if self.classes_.shape[0] < 2:
            raise ValidationError("need at least two classes to fit a tree")
        self.n_features_ = X.shape[1]
        self._n_classes = int(self.classes_.shape[0])
        self._class_index = {c: i for i, c in enumerate(self.classes_)}
        y_idx = np.array([self._class_index[label] for label in y])
        self._rng = check_random_state(self.random_state)
        self._importance_accumulator = np.zeros(self.n_features_)
        sample_weight = self._validate_sample_weight(sample_weight, X.shape[0])
        self.root_ = self._build(X, y_idx, sample_weight, depth=0)
        total = self._importance_accumulator.sum()
        self.feature_importances_ = (
            self._importance_accumulator / total if total > 0 else self._importance_accumulator
        )
        self._fitted = True
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if self.max_features == "log2":
            return max(1, int(np.log2(self.n_features_)))
        return min(self.n_features_, int(self.max_features))

    def _build(self, X, y_idx, weights, depth) -> TreeNode:
        counts = np.bincount(y_idx, weights=weights, minlength=self._n_classes)
        node = TreeNode(value=counts / max(counts.sum(), 1e-12), n_samples=len(y_idx), depth=depth)

        if (
            len(np.unique(y_idx)) == 1
            or len(y_idx) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node

        best = self._best_split(X, y_idx, weights)
        if best is None:
            return node

        feature, threshold, gain = best
        left_mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        self._importance_accumulator[feature] += gain * len(y_idx)
        node.left = self._build(X[left_mask], y_idx[left_mask], weights[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], y_idx[~left_mask], weights[~left_mask], depth + 1)
        return node

    def _best_split(self, X, y_idx, weights):
        n_samples = X.shape[0]
        parent_counts = np.bincount(y_idx, weights=weights, minlength=self._n_classes)
        parent_impurity = _gini(parent_counts)
        best_gain = 0.0
        best = None

        candidates = self._rng.permutation(self.n_features_)[: self._n_candidate_features()]
        for feature in candidates:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            sorted_y = y_idx[order]
            sorted_w = weights[order]

            left_counts = np.zeros(self._n_classes)
            right_counts = parent_counts.copy()
            for i in range(n_samples - 1):
                label = sorted_y[i]
                left_counts[label] += sorted_w[i]
                right_counts[label] -= sorted_w[i]
                if sorted_values[i] == sorted_values[i + 1]:
                    continue
                n_left, n_right = i + 1, n_samples - i - 1
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                weighted_impurity = (
                    left_counts.sum() * _gini(left_counts)
                    + right_counts.sum() * _gini(right_counts)
                ) / max(parent_counts.sum(), 1e-12)
                gain = parent_impurity - weighted_impurity
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    threshold = (sorted_values[i] + sorted_values[i + 1]) / 2.0
                    best = (int(feature), float(threshold), float(gain))
        return best

    # ------------------------------------------------------------- predict
    def predict_proba(self, X) -> np.ndarray:
        """Class-membership probabilities for each row of ``X``."""
        X = self._validate_predict_input(X)
        return np.vstack([self.root_.predict_one(x) for x in X])

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # -------------------------------------------------------------- export
    def decision_path(self, x) -> list[tuple[int, float, bool]]:
        """Return the split sequence taken by a single sample ``x``."""
        self._check_fitted()
        return self.root_.decision_path(np.asarray(x, dtype=float))

    def export_rules(self, feature_names=None) -> list[str]:
        """Return a human-readable rule per leaf (used for rule-based explanations)."""
        self._check_fitted()
        if feature_names is None:
            feature_names = [f"x{i}" for i in range(self.n_features_)]
        rules: list[str] = []

        def walk(node: TreeNode, conditions: list[str]) -> None:
            if node.is_leaf:
                label = self.classes_[int(np.argmax(node.value))]
                premise = " AND ".join(conditions) if conditions else "TRUE"
                rules.append(f"IF {premise} THEN class={label}")
                return
            name = feature_names[node.feature]
            walk(node.left, conditions + [f"{name} <= {node.threshold:.4g}"])
            walk(node.right, conditions + [f"{name} > {node.threshold:.4g}"])

        walk(self.root_, [])
        return rules

    def depth(self) -> int:
        """Return the depth of the fitted tree."""
        self._check_fitted()

        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    def n_leaves(self) -> int:
        """Return the number of leaves in the fitted tree."""
        self._check_fitted()

        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)
