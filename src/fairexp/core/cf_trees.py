"""Counterfactual explanation trees (Kanamori et al. [76]).

A counterfactual explanation tree partitions the affected (negatively
classified) population with a shallow decision tree and assigns *one action
per leaf*, so that every individual routed to a leaf receives the same
transparent recourse recommendation.  The tree trades off action cost against
the fraction of the leaf whose prediction actually flips (validity); comparing
the per-group validity/cost of the assigned actions audits recourse fairness
with a consistent, interpretable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..explanations.base import ExplainerInfo, ExplainerRegistry
from ..fairness.groups import group_masks, group_mean
from .facts import Action

__all__ = ["CFTreeNode", "CFTreeResult", "CounterfactualExplanationTree"]


@dataclass
class CFTreeNode:
    """A node in the counterfactual explanation tree."""

    depth: int
    indices: np.ndarray = field(repr=False)
    feature: int | None = None
    threshold: float = 0.0
    left: "CFTreeNode | None" = None
    right: "CFTreeNode | None" = None
    action: Action | None = None
    validity: float = 0.0
    mean_cost: float = 0.0

    @property
    def is_leaf(self) -> bool:
        """True when this node has no children."""
        return self.feature is None

    def route(self, x: np.ndarray) -> "CFTreeNode":
        """The leaf reached by routing ``x`` down the split tests."""
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node


@dataclass
class CFTreeResult:
    """Fitted tree plus per-group validity and cost of the assigned actions."""

    root: CFTreeNode
    n_leaves: int
    overall_validity: float
    overall_cost: float
    validity_protected: float
    validity_reference: float
    cost_protected: float
    cost_reference: float

    @property
    def validity_gap(self) -> float:
        """validity(reference) - validity(protected)."""
        return self.validity_reference - self.validity_protected

    @property
    def cost_gap(self) -> float:
        """cost(protected) - cost(reference)."""
        return self.cost_protected - self.cost_reference


@ExplainerRegistry.register("cf_tree", capabilities=("fairness-explainer", "counterfactual-based"))
class CounterfactualExplanationTree:
    """Build a shallow tree assigning one recourse action per leaf.

    Parameters
    ----------
    model:
        Classifier under audit.
    candidate_actions:
        Pool of actions to choose from (e.g. from
        :meth:`fairexp.core.facts.FACTSExplainer._candidate_actions` or
        hand-crafted); each leaf picks the action maximizing
        ``validity - cost_weight * mean_cost`` on its members.
    max_depth:
        Depth of the partition tree.
    cost_weight:
        Trade-off between flipping predictions and keeping actions cheap.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="global",
        explanation_type="example",
        multiplicity="multiple",
    )

    def __init__(
        self,
        model,
        candidate_actions: Sequence[Action],
        *,
        feature_names: Sequence[str] | None = None,
        max_depth: int = 2,
        min_leaf_size: int = 10,
        cost_weight: float = 0.05,
    ) -> None:
        self.model = model
        self.candidate_actions = list(candidate_actions)
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.max_depth = max_depth
        self.min_leaf_size = min_leaf_size
        self.cost_weight = cost_weight
        self.root_: CFTreeNode | None = None
        self._scale: np.ndarray | None = None

    # ------------------------------------------------------------- fitting
    def _best_action(self, rows: np.ndarray) -> tuple[Action, float, float]:
        best, best_score, best_validity, best_cost = None, -np.inf, 0.0, 0.0
        for action in self.candidate_actions:
            modified = action.apply(rows)
            validity = float(np.mean(np.asarray(self.model.predict(modified)) == 1))
            cost = float(action.cost(rows, self._scale).mean())
            score = validity - self.cost_weight * cost
            if score > best_score:
                best, best_score, best_validity, best_cost = action, score, validity, cost
        return best, best_validity, best_cost

    def _leaf_objective(self, rows: np.ndarray) -> float:
        _, validity, cost = self._best_action(rows)
        return validity - self.cost_weight * cost

    def _build(self, X: np.ndarray, indices: np.ndarray, depth: int) -> CFTreeNode:
        node = CFTreeNode(depth=depth, indices=indices)
        rows = X[indices]
        action, validity, cost = self._best_action(rows)
        node.action, node.validity, node.mean_cost = action, validity, cost

        if depth >= self.max_depth or indices.shape[0] < 2 * self.min_leaf_size:
            return node

        parent_objective = validity - self.cost_weight * cost
        best_gain, best_split = 0.0, None
        for feature in range(X.shape[1]):
            values = rows[:, feature]
            thresholds = np.unique(np.quantile(values, [0.25, 0.5, 0.75]))
            for threshold in thresholds:
                left_mask = values <= threshold
                if left_mask.sum() < self.min_leaf_size or (~left_mask).sum() < self.min_leaf_size:
                    continue
                left_objective = self._leaf_objective(rows[left_mask])
                right_objective = self._leaf_objective(rows[~left_mask])
                weighted = (
                    left_mask.mean() * left_objective + (~left_mask).mean() * right_objective
                )
                gain = weighted - parent_objective
                if gain > best_gain + 1e-9:
                    best_gain = gain
                    best_split = (feature, float(threshold), left_mask)

        if best_split is None:
            return node
        feature, threshold, left_mask = best_split
        node.feature, node.threshold = feature, threshold
        node.left = self._build(X, indices[left_mask], depth + 1)
        node.right = self._build(X, indices[~left_mask], depth + 1)
        return node

    def fit(self, X) -> "CounterfactualExplanationTree":
        """Fit the tree on the negatively classified rows of ``X``."""
        X = np.asarray(X, dtype=float)
        self._scale = X.std(axis=0)
        self._scale[self._scale == 0] = 1.0
        predictions = np.asarray(self.model.predict(X))
        affected = np.flatnonzero(predictions == 0)
        self._X = X
        self.root_ = self._build(X, affected, depth=0)
        return self

    # ------------------------------------------------------------ auditing
    def _collect_leaves(self) -> list[CFTreeNode]:
        leaves = []

        def walk(node: CFTreeNode) -> None:
            if node.is_leaf:
                leaves.append(node)
                return
            walk(node.left)
            walk(node.right)

        walk(self.root_)
        return leaves

    def assigned_action(self, x: np.ndarray) -> Action:
        """Return the action assigned to the leaf ``x`` falls into."""
        return self.root_.route(np.asarray(x, dtype=float)).action

    def audit(self, X, sensitive, *, protected_value=1) -> CFTreeResult:
        """Evaluate the fitted tree's per-group validity and cost."""
        if self.root_ is None:
            raise RuntimeError("call fit() before audit()")
        X = np.asarray(X, dtype=float)
        sensitive = np.asarray(sensitive)
        predictions = np.asarray(self.model.predict(X))
        affected = predictions == 0
        masks = group_masks(sensitive, protected_value=protected_value)

        def side(mask: np.ndarray) -> tuple[float, float]:
            successes, costs = [], []
            for i in np.flatnonzero(mask & affected):
                action = self.assigned_action(X[i])
                modified = action.apply(X[i][None, :])
                successes.append(int(np.asarray(self.model.predict(modified))[0] == 1))
                costs.append(float(action.cost(X[i][None, :], self._scale)[0]))
            return group_mean(successes), group_mean(costs)

        validity_protected, cost_protected = side(masks.protected)
        validity_reference, cost_reference = side(masks.reference)
        validity_all, cost_all = side(np.ones(X.shape[0], dtype=bool))
        leaves = self._collect_leaves()
        return CFTreeResult(
            root=self.root_,
            n_leaves=len(leaves),
            overall_validity=validity_all,
            overall_cost=cost_all,
            validity_protected=validity_protected,
            validity_reference=validity_reference,
            cost_protected=cost_protected,
            cost_reference=cost_reference,
        )

    def describe(self) -> list[str]:
        """Readable description of the tree: path conditions and assigned actions."""
        if self.root_ is None:
            raise RuntimeError("call fit() before describe()")
        names = self.feature_names or [f"x{j}" for j in range(self._X.shape[1])]
        lines: list[str] = []

        def walk(node: CFTreeNode, conditions: list[str]) -> None:
            if node.is_leaf:
                premise = " AND ".join(conditions) if conditions else "TRUE"
                action = node.action.describe(names) if node.action else "no action"
                lines.append(
                    f"IF {premise} THEN {action} "
                    f"(validity={node.validity:.2f}, cost={node.mean_cost:.2f})"
                )
                return
            walk(node.left, conditions + [f"{names[node.feature]} <= {node.threshold:.4g}"])
            walk(node.right, conditions + [f"{names[node.feature]} > {node.threshold:.4g}"])

        walk(self.root_, [])
        return lines
