"""Fairness metrics for rankings and recommendations.

The paper's taxonomy distinguishes *exposure-based* fairness (expected
attention received by a group, driven by position bias) from
*probability-based* fairness (statistical tests of whether a ranking prefix
could have been produced by an unbiased process).  Both are provided here,
along with simple representation metrics used by Dexer-style explanations.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..utils import safe_divide

__all__ = [
    "position_weights",
    "exposure",
    "group_exposure_ratio",
    "top_k_representation",
    "representation_difference",
    "ranking_binomial_pvalue",
    "ndcg_exposure_share",
]


def position_weights(n_positions: int, *, scheme: str = "log") -> np.ndarray:
    """Return per-position attention weights.

    ``"log"`` uses the standard DCG discount ``1/log2(rank+1)``;
    ``"inverse"`` uses ``1/rank``; ``"uniform"`` gives equal attention.
    """
    ranks = np.arange(1, n_positions + 1, dtype=float)
    if scheme == "log":
        return 1.0 / np.log2(ranks + 1)
    if scheme == "inverse":
        return 1.0 / ranks
    if scheme == "uniform":
        return np.ones(n_positions)
    raise ValidationError(f"unknown position-weight scheme {scheme!r}")


def exposure(ranking_groups, *, scheme: str = "log") -> dict[int, float]:
    """Total exposure received by each group value in a single ranking.

    Parameters
    ----------
    ranking_groups:
        Group value of the item at each rank (rank 0 = top).
    """
    ranking_groups = np.asarray(ranking_groups)
    weights = position_weights(ranking_groups.shape[0], scheme=scheme)
    return {
        int(value): float(weights[ranking_groups == value].sum())
        for value in np.unique(ranking_groups)
    }


def group_exposure_ratio(
    ranking_groups, *, protected_value=1, scheme: str = "log", normalize_by_size: bool = True
) -> float:
    """Exposure of the protected group divided by exposure of the rest.

    With ``normalize_by_size`` the exposures are divided by group sizes first
    (average exposure per item), so a value of 1.0 means size-proportional
    attention and values below 1.0 mean the protected group is under-exposed.
    """
    ranking_groups = np.asarray(ranking_groups)
    exposures = exposure(ranking_groups, scheme=scheme)
    protected_exposure = exposures.get(int(protected_value), 0.0)
    reference_exposure = sum(v for k, v in exposures.items() if k != int(protected_value))
    if normalize_by_size:
        n_protected = int(np.sum(ranking_groups == protected_value))
        n_reference = int(np.sum(ranking_groups != protected_value))
        protected_exposure = safe_divide(protected_exposure, n_protected)
        reference_exposure = safe_divide(reference_exposure, n_reference)
    return float(safe_divide(protected_exposure, reference_exposure))


def top_k_representation(ranking_groups, k: int, *, protected_value=1) -> float:
    """Fraction of the top-``k`` positions occupied by the protected group."""
    ranking_groups = np.asarray(ranking_groups)
    if k <= 0:
        raise ValidationError("k must be positive")
    top = ranking_groups[: min(k, ranking_groups.shape[0])]
    return float(np.mean(top == protected_value))


def representation_difference(ranking_groups, k: int, *, protected_value=1) -> float:
    """Top-k protected share minus the protected share in the full candidate pool."""
    ranking_groups = np.asarray(ranking_groups)
    overall = float(np.mean(ranking_groups == protected_value))
    return top_k_representation(ranking_groups, k, protected_value=protected_value) - overall


def ranking_binomial_pvalue(ranking_groups, k: int, *, protected_value=1) -> float:
    """Probability-based fairness test for a ranking prefix.

    Two-sided binomial test of whether the number of protected items in the
    top-``k`` is consistent with drawing positions at random from the
    candidate pool.  Small p-values indicate the prefix composition is
    unlikely under an unbiased process.
    """
    from scipy import stats

    ranking_groups = np.asarray(ranking_groups)
    pool_share = float(np.mean(ranking_groups == protected_value))
    top = ranking_groups[: min(k, ranking_groups.shape[0])]
    successes = int(np.sum(top == protected_value))
    result = stats.binomtest(successes, n=len(top), p=pool_share, alternative="two-sided")
    return float(result.pvalue)


def ndcg_exposure_share(scores, groups, k: int | None = None, *, protected_value=1) -> float:
    """Share of total DCG-weighted exposure captured by the protected group.

    Items are ranked by ``scores`` (descending); the result is in ``[0, 1]``.
    """
    scores = np.asarray(scores, dtype=float)
    groups = np.asarray(groups)
    order = np.argsort(-scores, kind="stable")
    if k is not None:
        order = order[:k]
    weights = position_weights(order.shape[0])
    protected_mask = groups[order] == protected_value
    total = weights.sum()
    return float(safe_divide(weights[protected_mask].sum(), total))
