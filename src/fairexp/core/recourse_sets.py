"""Two-level recourse sets (AReS-style, Rawal & Lakkaraju [74]).

AReS produces *interpretable and interactive summaries of actionable
recourses*: a two-level structure where an outer "subgroup descriptor"
predicate selects a subpopulation and an inner rule prescribes the action
(feature changes) its members should take.  The summary is optimized for a
weighted combination of correctness (the action flips the prediction),
coverage (how many affected individuals are covered) and cost, subject to a
budget on the number of rules — making recourse differences between
subgroups directly visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import ValidationError
from ..explanations.base import ExplainerInfo, ExplainerRegistry
from ..explanations.rules import Predicate, discretize_features
from ..explanations.session import AuditSession
from ..fairness.groups import group_masks, group_mean
from .facts import Action

__all__ = ["RecourseRule", "TwoLevelRecourseSet", "RecourseSetExplainer"]


@dataclass
class RecourseRule:
    """One two-level rule: IF descriptor THEN apply action."""

    descriptor: tuple[Predicate, ...]
    action: Action
    coverage: float
    correctness: float
    mean_cost: float

    def describe(self, feature_names: Sequence[str]) -> str:
        """Human-readable if/then rendering of the rule."""
        premise = " AND ".join(str(p) for p in self.descriptor) or "TRUE"
        return (
            f"IF {premise} THEN {self.action.describe(feature_names)} "
            f"(coverage={self.coverage:.2f}, correctness={self.correctness:.2f}, "
            f"cost={self.mean_cost:.2f})"
        )


@dataclass
class TwoLevelRecourseSet:
    """The selected set of recourse rules plus per-group aggregate statistics."""

    rules: list[RecourseRule]
    total_coverage: float
    coverage_protected: float
    coverage_reference: float
    correctness_protected: float
    correctness_reference: float
    feature_names: list[str] = field(default_factory=list)

    @property
    def coverage_gap(self) -> float:
        """coverage(reference) - coverage(protected)."""
        return self.coverage_reference - self.coverage_protected

    def describe(self) -> list[str]:
        """Human-readable rendering of the full two-level rule set."""
        return [rule.describe(self.feature_names) for rule in self.rules]


@ExplainerRegistry.register("recourse_sets", capabilities=("fairness-explainer", "rule-based"))
class RecourseSetExplainer:
    """Greedy construction of a two-level recourse set.

    Rules are built by pairing frequent subgroup descriptors (mined on the
    affected population) with candidate actions, scoring each pair by
    ``correctness * coverage - cost_weight * cost``, and greedily selecting
    rules with marginal coverage gain until ``max_rules`` is reached.  All
    (descriptor, action) candidates are scored with one coalesced
    ``model.predict`` over the stacked modified matrices instead of one tiny
    predict per pair.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="both",
        explanation_type="example",
        multiplicity="multiple",
    )

    def __init__(
        self,
        model=None,
        candidate_actions: Sequence[Action] = (),
        *,
        feature_names: Sequence[str],
        sensitive_index: int | None = None,
        max_rules: int = 4,
        n_bins: int = 3,
        min_descriptor_support: float = 0.15,
        cost_weight: float = 0.02,
        session: AuditSession | None = None,
    ) -> None:
        # With a session and no explicit model, candidate scoring routes
        # through the sweep's shared counting/memoizing adapter; an explicit
        # model always wins and is used as-is, outside that accounting.
        if model is None and session is not None:
            model = session.model
        if model is None:
            raise ValidationError("RecourseSetExplainer needs a model or a session")
        if not candidate_actions:
            raise ValidationError("RecourseSetExplainer needs candidate_actions")
        self.model = model
        self.candidate_actions = list(candidate_actions)
        self.feature_names = list(feature_names)
        self.sensitive_index = sensitive_index
        self.max_rules = max_rules
        self.n_bins = n_bins
        self.min_descriptor_support = min_descriptor_support
        self.cost_weight = cost_weight

    def _descriptors(self, X_affected: np.ndarray) -> list[tuple[Predicate, ...]]:
        feature_indices = [
            j for j in range(X_affected.shape[1]) if j != self.sensitive_index
        ]
        predicates = discretize_features(
            X_affected, feature_names=self.feature_names, n_bins=self.n_bins,
            feature_indices=feature_indices,
        )
        descriptors: list[tuple[Predicate, ...]] = [()]
        for predicate in predicates:
            if predicate.mask(X_affected).mean() >= self.min_descriptor_support:
                descriptors.append((predicate,))
        return descriptors

    def explain(self, X, sensitive, *, protected_value=1) -> TwoLevelRecourseSet:
        """Build the recourse-set summary on the negatively classified population."""
        X = np.asarray(X, dtype=float)
        masks = group_masks(sensitive, protected_value=protected_value)
        predictions = np.asarray(self.model.predict(X))
        affected_mask = predictions == 0
        X_affected = X[affected_mask]
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0

        # Stage every (descriptor, action) pair, then score all of them with a
        # single coalesced predict over the stacked modified matrices.
        staged: list[tuple[tuple[Predicate, ...], Action, np.ndarray, np.ndarray]] = []
        blocks: list[np.ndarray] = []
        for descriptor in self._descriptors(X_affected):
            descriptor_mask = np.ones(X_affected.shape[0], dtype=bool)
            for predicate in descriptor:
                descriptor_mask &= predicate.mask(X_affected)
            if not descriptor_mask.any():
                continue
            rows = X_affected[descriptor_mask]
            for action in self.candidate_actions:
                staged.append((descriptor, action, descriptor_mask, rows))
                blocks.append(action.apply(rows))

        candidate_rules: list[tuple[RecourseRule, np.ndarray]] = []
        if staged:
            predictions = np.asarray(self.model.predict(np.vstack(blocks)))
            offset = 0
            for (descriptor, action, descriptor_mask, rows), block in zip(staged, blocks):
                flipped = predictions[offset:offset + block.shape[0]] == 1
                offset += block.shape[0]
                rule = RecourseRule(
                    descriptor=descriptor, action=action,
                    coverage=float(descriptor_mask.mean()),
                    correctness=float(flipped.mean()),
                    mean_cost=float(action.cost(rows, scale).mean()),
                )
                # Per-row success mask in the affected population's indexing.
                success_mask = np.zeros(X_affected.shape[0], dtype=bool)
                success_mask[np.flatnonzero(descriptor_mask)[flipped]] = True
                candidate_rules.append((rule, success_mask))

        # Greedy selection by marginal covered-and-corrected individuals.
        selected: list[RecourseRule] = []
        covered = np.zeros(X_affected.shape[0], dtype=bool)
        for _ in range(self.max_rules):
            best_rule, best_gain, best_mask = None, 0.0, None
            for rule, success_mask in candidate_rules:
                marginal = float((success_mask & ~covered).mean())
                gain = marginal - self.cost_weight * rule.mean_cost
                if gain > best_gain + 1e-12:
                    best_rule, best_gain, best_mask = rule, gain, success_mask
            if best_rule is None:
                break
            selected.append(best_rule)
            covered |= best_mask

        # A covered member is one a selected rule's action corrects, so each
        # group's correctness equals its coverage.
        coverage_protected = group_mean(covered[masks.protected[affected_mask]])
        coverage_reference = group_mean(covered[masks.reference[affected_mask]])
        return TwoLevelRecourseSet(
            rules=selected,
            total_coverage=float(covered.mean()),
            coverage_protected=coverage_protected,
            coverage_reference=coverage_reference,
            correctness_protected=coverage_protected,
            correctness_reference=coverage_reference,
            feature_names=self.feature_names,
        )
