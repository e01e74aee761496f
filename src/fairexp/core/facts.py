"""FACTS: Fairness-Aware Counterfactuals for Subgroups (Kavouras et al. [77]).

FACTS audits *recourse bias* between protected subgroups.  It

1. mines frequent predicate subgroups of the feature space (restricted to the
   negatively classified population),
2. enumerates candidate *actions* — conjunctions of feature changes derived
   from frequent value regions among the positively classified population,
3. measures, inside every subgroup, the *effectiveness*
   ``eff(a, G) = |{x in G : f(a(x)) = 1}| / |G|`` of every action separately
   for the protected and reference members, and the recourse cost of each
   action,
4. ranks subgroups by the gap in aggregate effectiveness (Equal Effectiveness)
   and in the number of sufficiently effective actions (Equal Choice for
   Recourse), the two fairness criteria the paper quotes:

   ``aeff(A, G+) = aeff(A, G-)`` and
   ``|{a : eff(a, G+) >= phi}| = |{a : eff(a, G-) >= phi}|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..explanations.base import ExplainerInfo, ExplainerRegistry
from ..explanations.rules import Predicate, discretize_features, frequent_predicate_sets
from ..fairness.groups import group_masks, group_mean
from ..utils import check_random_state

__all__ = ["Action", "SubgroupAudit", "FACTSResult", "FACTSExplainer"]


@dataclass(frozen=True)
class Action:
    """A candidate recourse action: set the listed features to target values."""

    changes: tuple[tuple[int, float], ...]  # (feature index, new value)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """A copy of ``X`` with the action's feature assignments applied."""
        modified = np.asarray(X, dtype=float).copy()
        for feature, value in self.changes:
            modified[:, feature] = value
        return modified

    def describe(self, feature_names: Sequence[str]) -> str:
        """Human-readable ``feature := value`` rendering of the action."""
        parts = [f"{feature_names[j]} := {value:.4g}" for j, value in self.changes]
        return " AND ".join(parts)

    def cost(self, X: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Per-row L1 recourse cost of applying this action (scaled)."""
        X = np.asarray(X, dtype=float)
        total = np.zeros(X.shape[0])
        for feature, value in self.changes:
            total += np.abs(value - X[:, feature]) / scale[feature]
        return total


@dataclass
class SubgroupAudit:
    """Recourse-bias audit of one subgroup.

    ``effectiveness_*`` is the aggregate effectiveness (fraction of affected
    individuals achieving recourse through at least one action);
    ``n_effective_actions_*`` counts actions whose per-group effectiveness
    exceeds the ``phi`` threshold (Equal Choice for Recourse).
    """

    predicates: tuple[Predicate, ...]
    n_protected: int
    n_reference: int
    effectiveness_protected: float
    effectiveness_reference: float
    n_effective_actions_protected: int
    n_effective_actions_reference: int
    mean_cost_protected: float
    mean_cost_reference: float
    per_action: list[dict] = field(default_factory=list, repr=False)

    @property
    def effectiveness_gap(self) -> float:
        """Equal-Effectiveness violation (reference minus protected; positive = bias against protected)."""
        return self.effectiveness_reference - self.effectiveness_protected

    @property
    def choice_gap(self) -> int | float:
        """Equal-Choice-for-Recourse violation (reference minus protected
        count); NaN when either side has no affected row to measure."""
        if not (self.n_protected and self.n_reference):
            return np.nan
        return self.n_effective_actions_reference - self.n_effective_actions_protected

    @property
    def cost_gap(self) -> float:
        """Mean recourse cost difference (protected minus reference)."""
        return self.mean_cost_protected - self.mean_cost_reference

    def describe(self, feature_names: Sequence[str] | None = None) -> str:
        """Human-readable summary of the subgroup's effectiveness gap."""
        clauses = " AND ".join(str(p) for p in self.predicates) or "TRUE"
        return (
            f"[{clauses}] eff(G-)={self.effectiveness_reference:.2f} "
            f"eff(G+)={self.effectiveness_protected:.2f} "
            f"gap={self.effectiveness_gap:+.2f} choice_gap={self.choice_gap:+}"
        )


@dataclass
class FACTSResult:
    """Ranked subgroup audits plus the global (whole-population) audit."""

    subgroups: list[SubgroupAudit]
    global_audit: SubgroupAudit
    phi: float

    def top_biased(self, k: int = 5) -> list[SubgroupAudit]:
        """Subgroups with the largest Equal-Effectiveness violation against the protected group."""
        return sorted(self.subgroups, key=lambda s: -s.effectiveness_gap)[:k]

    def is_fair(self, *, tolerance: float = 0.05) -> bool:
        """Whether every audited subgroup satisfies equal effectiveness within tolerance."""
        return all(abs(s.effectiveness_gap) <= tolerance for s in self.subgroups)


@ExplainerRegistry.register("facts", capabilities=("fairness-explainer", "counterfactual-based"))
class FACTSExplainer:
    """Frequent-itemset audit of recourse bias between protected subgroups.

    Parameters
    ----------
    model:
        Classifier under audit (``predict``).
    feature_names:
        Column names.
    sensitive_index:
        Index of the sensitive column (excluded from subgroup predicates and
        from actions).
    n_bins:
        Discretization granularity for subgroup predicates.
    min_support:
        Minimum fraction of the negatively classified population a subgroup
        must cover.
    max_subgroup_length:
        Maximum number of predicates per subgroup.
    n_actions:
        Number of candidate actions enumerated.
    phi:
        Effectiveness threshold for the Equal-Choice-for-Recourse criterion.
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
        feature_names: Sequence[str],
        sensitive_index: int,
        *,
        n_bins: int = 3,
        min_support: float = 0.1,
        max_subgroup_length: int = 2,
        n_actions: int = 20,
        phi: float = 0.3,
        actionable_indices: Sequence[int] | None = None,
        random_state=None,
    ) -> None:
        self.model = model
        self.feature_names = list(feature_names)
        self.sensitive_index = sensitive_index
        self.n_bins = n_bins
        self.min_support = min_support
        self.max_subgroup_length = max_subgroup_length
        self.n_actions = n_actions
        self.phi = phi
        self.actionable_indices = actionable_indices
        self.random_state = random_state

    # ------------------------------------------------------------- actions
    def _candidate_actions(self, X: np.ndarray, predictions: np.ndarray) -> list[Action]:
        """Derive candidate actions from feature values typical of the approved population."""
        rng = check_random_state(self.random_state)
        approved = X[predictions == 1]
        if approved.shape[0] == 0:
            return []
        actionable = (
            list(self.actionable_indices)
            if self.actionable_indices is not None
            else [j for j in range(X.shape[1]) if j != self.sensitive_index]
        )
        quantiles = (0.5, 0.75, 0.9)
        single_changes: list[tuple[int, float]] = []
        for j in actionable:
            for q in quantiles:
                single_changes.append((j, float(np.quantile(approved[:, j], q))))

        actions = [Action(changes=(change,)) for change in single_changes]
        # Pairwise combinations of the strongest single changes, sampled.
        n_pairs = max(0, self.n_actions - len(actions))
        for _ in range(n_pairs):
            first, second = rng.choice(len(single_changes), size=2, replace=False)
            a, b = single_changes[first], single_changes[second]
            if a[0] == b[0]:
                continue
            actions.append(Action(changes=tuple(sorted((a, b)))))
        # Deduplicate while keeping order, cap at n_actions.
        seen, unique = set(), []
        for action in actions:
            if action.changes in seen:
                continue
            seen.add(action.changes)
            unique.append(action)
        return unique[: self.n_actions]

    # --------------------------------------------------------------- audit
    def _audit_population(
        self,
        X: np.ndarray,
        affected_mask: np.ndarray,
        protected_mask: np.ndarray,
        actions: list[Action],
        scale: np.ndarray,
        predicates: tuple[Predicate, ...] = (),
    ) -> SubgroupAudit:
        protected_idx = np.flatnonzero(affected_mask & protected_mask)
        reference_idx = np.flatnonzero(affected_mask & ~protected_mask)

        def audit_side(idx: np.ndarray) -> tuple[float, int, float, list[float]]:
            rows = X[idx]
            achieved = np.zeros(idx.shape[0], dtype=bool)
            best_cost = np.full(idx.shape[0], np.inf)
            effectiveness_values = []
            for action in actions:
                # An empty side has no row to score (models reject empty input).
                success = (np.asarray(self.model.predict(action.apply(rows))) == 1
                           if idx.size else np.zeros(0, dtype=bool))
                effectiveness_values.append(group_mean(success))
                achieved |= success
                cost = action.cost(rows, scale)
                best_cost = np.where(success & (cost < best_cost), cost, best_cost)
            n_effective = int(sum(1 for e in effectiveness_values if e >= self.phi))
            finite_costs = best_cost[np.isfinite(best_cost)]
            return group_mean(achieved), n_effective, group_mean(finite_costs), effectiveness_values

        eff_protected, n_eff_protected, cost_protected, per_action_protected = audit_side(
            protected_idx
        )
        eff_reference, n_eff_reference, cost_reference, per_action_reference = audit_side(
            reference_idx
        )
        per_action = [
            {
                "action": action.describe(self.feature_names),
                "effectiveness_protected": ep,
                "effectiveness_reference": er,
            }
            for action, ep, er in zip(actions, per_action_protected, per_action_reference)
        ]
        return SubgroupAudit(
            predicates=predicates,
            n_protected=int(protected_idx.shape[0]),
            n_reference=int(reference_idx.shape[0]),
            effectiveness_protected=eff_protected,
            effectiveness_reference=eff_reference,
            n_effective_actions_protected=n_eff_protected,
            n_effective_actions_reference=n_eff_reference,
            mean_cost_protected=cost_protected,
            mean_cost_reference=cost_reference,
            per_action=per_action,
        )

    def explain(self, X, sensitive, *, protected_value=1, min_group_size: int = 5) -> FACTSResult:
        """Audit recourse bias across frequent subgroups of the rejected population."""
        X = np.asarray(X, dtype=float)
        sensitive = np.asarray(sensitive)
        predictions = np.asarray(self.model.predict(X))
        affected = predictions == 0
        masks = group_masks(sensitive, protected_value=protected_value)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0

        actions = self._candidate_actions(X, predictions)
        global_audit = self._audit_population(X, affected, masks.protected, actions, scale)

        feature_indices = [j for j in range(X.shape[1]) if j != self.sensitive_index]
        predicates = discretize_features(
            X[affected], feature_names=self.feature_names, n_bins=self.n_bins,
            feature_indices=feature_indices,
        )
        itemsets = frequent_predicate_sets(
            X[affected], predicates, min_support=self.min_support,
            max_length=self.max_subgroup_length,
        )

        audits = []
        affected_idx = np.flatnonzero(affected)
        for itemset, local_mask in itemsets:
            subgroup_mask = np.zeros(X.shape[0], dtype=bool)
            subgroup_mask[affected_idx[local_mask]] = True
            n_protected = int((subgroup_mask & masks.protected).sum())
            n_reference = int((subgroup_mask & masks.reference).sum())
            if min(n_protected, n_reference) < min_group_size:
                continue
            audit = self._audit_population(
                X, subgroup_mask, masks.protected, actions, scale, predicates=tuple(itemset)
            )
            audits.append(audit)

        audits.sort(key=lambda a: -abs(a.effectiveness_gap))
        return FACTSResult(subgroups=audits, global_audit=global_audit, phi=self.phi)
