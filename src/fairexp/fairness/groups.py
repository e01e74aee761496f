"""Group handling utilities shared by all fairness metrics.

The empty-selection rule lives here, once: a group metric over a selection
with nobody to measure (no rejected members, no positive labels, no
counterfactual found) is NaN, and so is every gap and ratio built from it.
:func:`group_mean`, :func:`group_rate` and :func:`group_ratio` apply it; a
selection with members gives exactly the plain arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError

__all__ = ["GroupMasks", "group_masks", "group_mean", "group_rate", "group_ratio", "groupwise"]


@dataclass(frozen=True)
class GroupMasks:
    """Boolean masks for the protected and non-protected groups.

    By the paper's convention, ``protected`` corresponds to the group
    ``G+`` (sensitive value 1) and ``reference`` to ``G-``.
    """

    protected: np.ndarray
    reference: np.ndarray

    @property
    def n_protected(self) -> int:
        """Number of rows in the protected group."""
        return int(self.protected.sum())

    @property
    def n_reference(self) -> int:
        """Number of rows in the reference group."""
        return int(self.reference.sum())


def group_masks(sensitive, *, protected_value=1) -> GroupMasks:
    """Build :class:`GroupMasks` from a sensitive-attribute vector.

    Parameters
    ----------
    sensitive:
        Group-membership values, one per sample.  A NaN or ``None`` value
        raises :class:`ValidationError` naming its rows.
    protected_value:
        The value identifying the protected group; every other value is
        treated as the reference group.
    """
    sensitive = np.asarray(sensitive)
    if sensitive.ndim != 1:
        raise ValidationError("sensitive must be 1-dimensional")
    missing = np.zeros(sensitive.shape, dtype=bool)
    if sensitive.dtype == object:
        missing = np.array([value is None or value != value for value in sensitive], dtype=bool)
    elif sensitive.dtype.kind in "fc":
        missing = np.isnan(sensitive)
    if missing.any():
        raise ValidationError(
            f"sensitive holds NaN or None at rows {np.flatnonzero(missing).tolist()}; "
            "every row needs a group"
        )
    protected = sensitive == protected_value
    if protected.all() or (~protected).all():
        raise ValidationError(
            "both a protected and a reference group are required "
            f"(protected_value={protected_value!r} produced a single group)"
        )
    return GroupMasks(protected=protected, reference=~protected)


def group_mean(values) -> float:
    """``float(values.mean())``, or NaN when ``values`` is empty."""
    values = np.asarray(values)
    return float(values.mean()) if values.size else np.nan


def group_rate(count, total):
    """``count / total``, or NaN when ``total`` is 0 (nobody to count)."""
    return count / total if total else np.nan


def group_ratio(protected: float, reference: float) -> float:
    """``protected / reference``; 1.0 is parity.

    NaN when either side is NaN.  A zero reference gives ``inf`` against a
    positive protected value and 1.0 otherwise.
    """
    if np.isnan(protected) or np.isnan(reference):
        return np.nan
    if reference == 0:
        return float("inf") if protected > 0 else 1.0
    return protected / reference


def groupwise(values, sensitive, statistic=np.mean, *, protected_value=1) -> dict[str, float]:
    """Apply ``statistic`` to ``values`` separately for each group.

    Returns a dictionary with ``protected``, ``reference`` and ``difference``
    (protected minus reference) entries.
    """
    values = np.asarray(values, dtype=float)
    masks = group_masks(sensitive, protected_value=protected_value)
    protected_value_ = float(statistic(values[masks.protected]))
    reference_value = float(statistic(values[masks.reference]))
    return {
        "protected": protected_value_,
        "reference": reference_value,
        "difference": protected_value_ - reference_value,
    }
