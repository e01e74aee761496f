"""Fairness of recourse across groups.

Two complementary notions from the survey are implemented:

* **Distance-based group recourse** (Gupta et al. [79]) — individual recourse
  is the distance of a negatively classified individual from the decision
  boundary; group recourse is the group average.  The
  :func:`recourse_gap_report` audit pairs with the
  :class:`fairexp.fairness.mitigation.RecourseRegularizedClassifier`
  mitigation (goal "M").
* **Fair causal recourse** (von Kügelgen et al. [80]) — recourse is fair at
  the individual level if the *cost of recourse would have been the same had
  the individual belonged to the other group*, evaluated through SCM
  counterfactuals (flipping the sensitive attribute and re-deriving the
  downstream features before recomputing the recourse cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..causal.scm import StructuralCausalModel
from ..exceptions import ValidationError
from ..explanations.base import ExplainerInfo, ExplainerRegistry
from ..fairness.groups import group_masks, group_mean, group_ratio
from .actionable_recourse import CausalRecourseExplainer

__all__ = [
    "RecourseGapReport",
    "recourse_gap_report",
    "CausalRecourseFairnessResult",
    "causal_recourse_fairness",
    "causal_flip_rate",
]


@dataclass
class RecourseGapReport:
    """Distance-based group recourse audit (Gupta et al.)."""

    recourse_protected: float
    recourse_reference: float
    n_protected: int
    n_reference: int

    @property
    def gap(self) -> float:
        """recourse(protected) - recourse(reference); positive = protected group is further from approval."""
        return self.recourse_protected - self.recourse_reference

    @property
    def ratio(self) -> float:
        """Protected-over-reference recourse cost ratio (1.0 = parity)."""
        return group_ratio(self.recourse_protected, self.recourse_reference)


@ExplainerRegistry.register(
    "recourse_gap_report",
    info=ExplainerInfo(stage="post-hoc", access="black-box", agnostic=True, coverage="global",
                       explanation_type="example", multiplicity="multiple"),
    capabilities=("fairness-explainer", "recourse"),
    resource_requirements=("probabilities",),
)
def recourse_gap_report(model=None, X=None, sensitive=None, *, protected_value=1,
                        session=None) -> RecourseGapReport:
    """Average distance-to-boundary of negatively classified members, per group.

    ``model`` must expose ``distance_to_boundary`` (linear models in
    :mod:`fairexp.models` and the recourse-regularized classifier do); for
    other models the negative margin ``0.5 - P(y=1|x)`` is used as a proxy.
    With a ``session`` (:class:`~fairexp.explanations.session.AuditSession`)
    and no explicit model, the audit reads predictions through the sweep's
    shared counting adapter; an explicit model always wins over the session.
    """
    if model is None and session is not None:
        model = session.model
    if model is None:
        raise ValidationError("recourse_gap_report needs a model or a session")
    if X is None or sensitive is None:
        raise ValidationError("recourse_gap_report needs X and sensitive")
    X = np.asarray(X, dtype=float)
    sensitive = np.asarray(sensitive)
    predictions = np.asarray(model.predict(X))
    if hasattr(model, "distance_to_boundary"):
        distances = np.abs(np.asarray(model.distance_to_boundary(X)))
    else:
        distances = np.abs(0.5 - np.asarray(model.predict_proba(X))[:, 1])
    negative = predictions == 0
    masks = group_masks(sensitive, protected_value=protected_value)

    protected_idx = negative & masks.protected
    reference_idx = negative & masks.reference
    return RecourseGapReport(
        recourse_protected=group_mean(distances[protected_idx]),
        recourse_reference=group_mean(distances[reference_idx]),
        n_protected=int(protected_idx.sum()),
        n_reference=int(reference_idx.sum()),
    )


@dataclass
class CausalRecourseFairnessResult:
    """Individual-level fair-causal-recourse audit.

    ``cost_factual`` / ``cost_counterfactual`` hold, per audited individual,
    the recourse cost in the factual world and in the counterfactual world
    where the sensitive attribute is flipped (with downstream features
    re-derived through the SCM).
    """

    cost_factual: np.ndarray
    cost_counterfactual: np.ndarray
    individuals: np.ndarray

    @property
    def mean_unfairness(self) -> float:
        """Mean |cost_factual - cost_counterfactual| over audited individuals (0 = fair)."""
        both_finite = np.isfinite(self.cost_factual) & np.isfinite(self.cost_counterfactual)
        if not both_finite.any():
            return 0.0
        return float(
            np.mean(np.abs(self.cost_factual[both_finite] - self.cost_counterfactual[both_finite]))
        )

    @property
    def fraction_disadvantaged(self) -> float:
        """Fraction of individuals whose factual recourse is costlier than the counterfactual one."""
        both_finite = np.isfinite(self.cost_factual) & np.isfinite(self.cost_counterfactual)
        if not both_finite.any():
            return 0.0
        return float(
            np.mean(self.cost_factual[both_finite] > self.cost_counterfactual[both_finite] + 1e-9)
        )


@ExplainerRegistry.register(
    "causal_recourse_fairness",
    info=ExplainerInfo(stage="post-hoc", access="black-box", agnostic=True, coverage="both",
                       explanation_type="example", multiplicity="multiple"),
    capabilities=("fairness-explainer", "recourse", "causal"),
    data_requirements=("scm",),
    resource_requirements=("scm",),
)
def causal_recourse_fairness(
    explainer: CausalRecourseExplainer,
    scm: StructuralCausalModel,
    X,
    *,
    sensitive_variable: str,
    max_individuals: int = 25,
    random_state=None,
) -> CausalRecourseFairnessResult:
    """Audit fair causal recourse by flipping the sensitive attribute in the SCM.

    For each negatively classified individual the recourse cost is computed in
    the factual world and in the counterfactual world obtained by intervening
    ``do(sensitive := 1 - sensitive)`` and propagating downstream effects.
    """
    rng = np.random.default_rng(random_state)
    X = np.asarray(X, dtype=float)
    predictions = np.asarray(explainer.model.predict(X))
    affected = np.flatnonzero(predictions == 0)
    if affected.shape[0] > max_individuals:
        affected = rng.choice(affected, size=max_individuals, replace=False)

    cost_factual, cost_counterfactual, individuals = [], [], []
    for i in affected:
        observation = explainer.observation_from_row(X[i])
        flipped_value = 1.0 - observation[sensitive_variable]
        counterfactual_world = scm.counterfactual(
            observation, {sensitive_variable: flipped_value}
        )
        row_counterfactual = np.asarray(
            [counterfactual_world[v] for v in explainer.variable_order]
        )
        cost_factual.append(explainer.recourse_cost(X[i]))
        if int(np.asarray(explainer.model.predict(row_counterfactual[None, :]))[0]) == 1:
            # In the counterfactual world the individual is already approved.
            cost_counterfactual.append(0.0)
        else:
            cost_counterfactual.append(explainer.recourse_cost(row_counterfactual))
        individuals.append(int(i))

    return CausalRecourseFairnessResult(
        cost_factual=np.asarray(cost_factual),
        cost_counterfactual=np.asarray(cost_counterfactual),
        individuals=np.asarray(individuals),
    )


def causal_flip_rate(
    model, scm: StructuralCausalModel, X, variable_order, *, sensitive_variable: str
) -> float:
    """Counterfactual-fairness flip rate with causal propagation.

    Fraction of individuals whose prediction changes when the sensitive
    attribute is flipped *and* its downstream effects are propagated through
    the SCM (contrast with the observational
    :func:`fairexp.fairness.counterfactual_flip_rate`).
    """
    X = np.asarray(X, dtype=float)
    variable_order = list(variable_order)
    original = np.asarray(model.predict(X))
    flipped_rows = np.zeros_like(X)
    for i in range(X.shape[0]):
        observation = {v: float(X[i, j]) for j, v in enumerate(variable_order)}
        counterfactual = scm.counterfactual(
            observation, {sensitive_variable: 1.0 - observation[sensitive_variable]}
        )
        flipped_rows[i] = [counterfactual[v] for v in variable_order]
    flipped = np.asarray(model.predict(flipped_rows))
    return float(np.mean(original != flipped))
