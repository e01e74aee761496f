"""Dexer: detecting and explaining biased representation in ranking (Moskovitch et al. [88]).

Dexer (a) detects groups that are under-represented in the top-k of a ranking
relative to their share of the candidate pool, and (b) explains the detection
with Shapley values: the attributes whose values most separate the detected
group from the top-k tuples, computed by attributing the ranking score (or
top-k membership) to attributes and comparing the distribution of those
attributions between the group and the top-k.  The explanation is delivered
as per-attribute Shapley summaries plus the value distributions to visualize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..explanations.base import ExplainerInfo, ExplainerRegistry
from ..explanations.shapley import sampled_shapley_values
from ..fairness.groups import group_mean
from ..fairness.ranking_metrics import (
    ranking_binomial_pvalue,
    representation_difference,
    top_k_representation,
)
from ..ranking.rankers import RankedCandidates, ScoreRanker
from ..utils import check_random_state

__all__ = ["GroupDetection", "AttributeEvidence", "DexerResult", "DexerExplainer"]


@dataclass
class GroupDetection:
    """A detected under-represented group in the top-k."""

    group_value: int
    pool_share: float
    topk_share: float
    representation_gap: float
    p_value: float

    @property
    def is_significant(self) -> bool:
        """True when the under-representation is significant (p < 0.05)."""
        return self.p_value < 0.05 and self.representation_gap < 0


@dataclass
class AttributeEvidence:
    """Per-attribute explanation of why a group is under-ranked."""

    attribute: str
    mean_shapley_group: float
    mean_shapley_topk: float
    group_values: np.ndarray = field(repr=False)
    topk_values: np.ndarray = field(repr=False)

    @property
    def shapley_gap(self) -> float:
        """Mean attribution of the top-k minus mean attribution of the detected group.

        Large positive values identify attributes that push top-k tuples up
        and the detected group down.
        """
        return self.mean_shapley_topk - self.mean_shapley_group

    def distributions(self) -> dict[str, np.ndarray]:
        """Raw attribute-value distributions for visualization (group vs top-k)."""
        return {"group": self.group_values, "topk": self.topk_values}


@dataclass
class DexerResult:
    """Detection plus ranked attribute evidence."""

    detection: GroupDetection
    evidence: list[AttributeEvidence]

    def top_attributes(self, k: int = 2) -> list[tuple[str, float]]:
        """The ``k`` attributes with the strongest disparity evidence."""
        ranked = sorted(self.evidence, key=lambda e: -e.shapley_gap)
        return [(e.attribute, e.shapley_gap) for e in ranked[:k]]


@ExplainerRegistry.register("dexer", capabilities=("fairness-explainer", "ranking"),
                             modality="ranking", model_requirements=("rank",))
class DexerExplainer:
    """Detect and explain biased representation of a group in a top-k ranking.

    Parameters
    ----------
    ranker:
        The score-based ranker whose output is audited.
    k:
        Size of the ranking prefix under audit.
    n_permutations:
        Monte-Carlo budget for the per-tuple Shapley attributions of the score.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="global",
        explanation_type="feature",
        multiplicity="single",
    )

    def __init__(self, ranker: ScoreRanker, *, k: int = 20, n_permutations: int = 60,
                 random_state=None) -> None:
        self.ranker = ranker
        self.k = k
        self.n_permutations = n_permutations
        self.random_state = random_state

    def detect(self, candidates: RankedCandidates, *, protected_value=1) -> GroupDetection:
        """Test whether the protected group is under-represented in the top-k."""
        ranked = self.ranker.rank(candidates)
        groups_in_order = ranked.ranked_groups()
        pool_share = float(np.mean(candidates.groups == protected_value))
        topk_share = top_k_representation(groups_in_order, self.k, protected_value=protected_value)
        gap = representation_difference(groups_in_order, self.k, protected_value=protected_value)
        p_value = ranking_binomial_pvalue(groups_in_order, self.k, protected_value=protected_value)
        return GroupDetection(
            group_value=int(protected_value),
            pool_share=pool_share,
            topk_share=topk_share,
            representation_gap=gap,
            p_value=p_value,
        )

    def _score_attributions(self, candidates: RankedCandidates, rows: np.ndarray) -> np.ndarray:
        """Shapley attributions of the ranking score for the given rows."""
        rng = check_random_state(self.random_state)

        def predict(X: np.ndarray) -> np.ndarray:
            return self.ranker.score(X)

        attributions = []
        for row in rows:
            attribution = sampled_shapley_values(
                predict,
                row,
                candidates.X,
                n_permutations=self.n_permutations,
                feature_names=candidates.feature_names,
                random_state=rng,
            )
            attributions.append(attribution.values)
        return np.vstack(attributions) if attributions else np.zeros((0, candidates.X.shape[1]))

    def explain(
        self, candidates: RankedCandidates, *, protected_value=1, max_tuples: int = 20
    ) -> DexerResult:
        """Detect under-representation and attribute it to candidate attributes."""
        detection = self.detect(candidates, protected_value=protected_value)
        ranked = self.ranker.rank(candidates)
        rng = check_random_state(self.random_state)

        topk_idx = ranked.top_k(self.k)
        group_idx = np.flatnonzero(candidates.groups == protected_value)
        group_idx = np.setdiff1d(group_idx, topk_idx)
        if group_idx.shape[0] > max_tuples:
            group_idx = rng.choice(group_idx, size=max_tuples, replace=False)
        topk_sample = topk_idx if topk_idx.shape[0] <= max_tuples else rng.choice(
            topk_idx, size=max_tuples, replace=False
        )

        group_attributions = self._score_attributions(candidates, candidates.X[group_idx])
        topk_attributions = self._score_attributions(candidates, candidates.X[topk_sample])

        evidence = []
        for j, name in enumerate(candidates.feature_names):
            evidence.append(
                AttributeEvidence(
                    attribute=name,
                    mean_shapley_group=group_mean(group_attributions[:, j]),
                    mean_shapley_topk=group_mean(topk_attributions[:, j]),
                    group_values=candidates.X[group_idx, j],
                    topk_values=candidates.X[topk_sample, j],
                )
            )
        evidence.sort(key=lambda e: -e.shapley_gap)
        return DexerResult(detection=detection, evidence=evidence)
