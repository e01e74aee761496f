"""PreCoF: Predictive Counterfactual Fairness (Goethals, Martens, Calders [71]).

PreCoF uses counterfactual explanations to *understand the causes* of
unfairness by comparing, per group, the relative frequency with which each
attribute is changed in the counterfactuals of negatively classified members:

* **Explicit bias** — with the sensitive attribute available to the model,
  counterfactuals that change (essentially) only the sensitive attribute
  indicate direct discrimination.
* **Implicit bias** — after removing the sensitive attribute from training,
  attributes whose change frequency differs strongly between the protected
  and reference groups reveal proxies through which disadvantage persists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import ValidationError
from ..explanations.base import CounterfactualBatch, ExplainerInfo, ExplainerRegistry
from ..explanations.counterfactual import BaseCounterfactualGenerator
from ..explanations.session import AuditSession
from ..fairness.groups import group_masks, group_rate
from ..utils import check_consistent_length

__all__ = ["AttributeChangeProfile", "PreCoFResult", "PreCoFExplainer"]


def _ranked(values: dict[str, float], k: int) -> list[tuple[str, float]]:
    """The ``k`` largest entries, largest first; NaN entries measured nothing."""
    measured = [item for item in values.items() if not np.isnan(item[1])]
    return sorted(measured, key=lambda item: -item[1])[:k]


@dataclass
class AttributeChangeProfile:
    """Per-attribute counterfactual change frequencies for one group."""

    group: int
    n_explained: int
    change_frequency: dict[str, float]
    mean_change_magnitude: dict[str, float] = field(default_factory=dict)

    def top_changed(self, k: int = 3) -> list[tuple[str, float]]:
        """Attributes most frequently changed in this group's counterfactuals
        (none when the group has no counterfactual: every frequency is NaN)."""
        return _ranked(self.change_frequency, k)


@dataclass
class PreCoFResult:
    """Outcome of a PreCoF analysis.

    Attributes
    ----------
    explicit_bias_rate:
        Fraction of protected-group counterfactuals whose only change is the
        sensitive attribute (only populated when the sensitive attribute was
        available to the model).
    sensitive_change_rate:
        Fraction of protected-group counterfactuals that change the sensitive
        attribute at all.
    protected_profile, reference_profile:
        Attribute change profiles per group.
    frequency_gap:
        Per-attribute difference in change frequency
        (protected minus reference) — large positive values identify the
        attributes the protected group is disproportionately asked to change.
    """

    explicit_bias_rate: float
    sensitive_change_rate: float
    protected_profile: AttributeChangeProfile
    reference_profile: AttributeChangeProfile
    frequency_gap: dict[str, float]
    mode: str  # "explicit" or "implicit"

    def implicit_bias_attributes(self, k: int = 3) -> list[tuple[str, float]]:
        """Attributes with the largest protected-vs-reference change-frequency gap
        (none when either group has no counterfactual: every gap is NaN)."""
        return _ranked(self.frequency_gap, k)


@ExplainerRegistry.register("precof", capabilities=("fairness-explainer", "counterfactual-based"))
class PreCoFExplainer:
    """Counterfactual attribute-frequency analysis of group unfairness.

    Parameters
    ----------
    generator:
        Counterfactual generator wrapping the model under audit.  For the
        *explicit* analysis the model should have been trained with the
        sensitive attribute and the generator's constraints should allow
        changing it; for the *implicit* analysis the model should have been
        trained without it (``mode="implicit"``).
    feature_names:
        Column names of the feature matrix handed to :meth:`explain`.
    sensitive_feature:
        Name of the sensitive attribute column (ignored in implicit mode if
        the column is absent).
    session:
        Optional shared :class:`~fairexp.explanations.session.AuditSession`;
        when a burden/NAWB audit of the same population already ran through
        it, PreCoF reuses their counterfactuals instead of generating anew.
    """

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="local",
        explanation_type="example",
        multiplicity="multiple",
    )

    def __init__(
        self,
        generator: BaseCounterfactualGenerator | None = None,
        feature_names: Sequence[str] = (),
        sensitive_feature: str = "",
        *,
        mode: str = "explicit",
        session: AuditSession | None = None,
    ) -> None:
        if not feature_names:
            raise ValidationError("PreCoFExplainer requires feature_names")
        if not sensitive_feature:
            raise ValidationError("PreCoFExplainer requires sensitive_feature")
        # Private sessions are refit-safe (see BurdenExplainer); shared ones
        # pin a frozen model and keep results across audits.
        self.session, self._owns_session = AuditSession.ensure(generator, session)
        self.generator = self.session.generator
        self.engine = self.session.engine
        self.feature_names = list(feature_names)
        self.sensitive_feature = sensitive_feature
        self.mode = mode

    def _profile(self, group: int, batch: CounterfactualBatch) -> AttributeChangeProfile:
        """Change frequency and mean scaled change magnitude per feature over
        the batch's solved rows."""
        changed = batch.changed_masks[batch.has_result]
        n_explained = len(changed)
        delta = (batch.counterfactuals - batch.originals)[batch.has_result]
        magnitudes = np.abs(delta) / self.generator.scale_
        counts = changed.sum(axis=0)
        frequency = [group_rate(count, n_explained) for count in counts.tolist()]
        magnitude = [float(magnitudes[changed[:, j], j].mean()) if counts[j] else 0.0  # fairexp: noqa[FX009] - a feature no counterfactual changed moved by 0.0
                     for j in range(len(counts))]
        return AttributeChangeProfile(
            group=group, n_explained=n_explained,
            change_frequency=dict(zip(self.feature_names, frequency)),
            mean_change_magnitude=dict(zip(self.feature_names, magnitude)),
        )

    def explain(self, X, sensitive, *, protected_value=1) -> PreCoFResult:
        """Run the PreCoF analysis on the negatively classified members of each group."""
        X = np.asarray(X, dtype=float)
        masks = group_masks(sensitive, protected_value=protected_value)
        check_consistent_length(X, masks.protected)
        if X.shape[1] != len(self.feature_names):
            raise ValidationError(
                f"X has {X.shape[1]} features but feature_names names "
                f"{len(self.feature_names)}"
            )
        if self._owns_session:
            self.session.reset_results()
        negative = np.asarray(self.session.predict(X)) == 0

        # Both groups' rows go through the session, so a burden audit of the
        # same population already paid for them.
        protected = self.session.counterfactuals_for(X, np.flatnonzero(masks.protected & negative))
        reference = self.session.counterfactuals_for(X, np.flatnonzero(masks.reference & negative))
        protected_profile = self._profile(1, protected)
        reference_profile = self._profile(0, reference)

        explicit_bias_rate = 0.0
        sensitive_change_rate = 0.0
        if self.sensitive_feature in self.feature_names:
            sensitive_change_rate = protected_profile.change_frequency[self.sensitive_feature]
            changed = protected.changed_masks[protected.has_result]
            only_sensitive = (changed[:, self.feature_names.index(self.sensitive_feature)]
                              & (changed.sum(axis=1) == 1))
            explicit_bias_rate = group_rate(int(only_sensitive.sum()), protected_profile.n_explained)

        frequency_gap = {
            name: protected_profile.change_frequency[name]
            - reference_profile.change_frequency[name]
            for name in self.feature_names
        }
        return PreCoFResult(
            explicit_bias_rate=explicit_bias_rate,
            sensitive_change_rate=sensitive_change_rate,
            protected_profile=protected_profile,
            reference_profile=reference_profile,
            frequency_gap=frequency_gap,
            mode=self.mode,
        )
