"""Per-object reference arithmetic for the counterfactual fairness audits.

:class:`~fairexp.core.BurdenExplainer`, :class:`~fairexp.core.NAWBExplainer`
and :class:`~fairexp.core.PreCoFExplainer` reduce the columns of the
:class:`~fairexp.explanations.base.CounterfactualBatch` a session returns.
The functions here compute the same results the way the audits first did:
from ``{index: Counterfactual}`` mappings (``batch.solved()``), one object
at a time, with per-row comprehensions and a dict-of-lists change profile.
They share the session (and so the counterfactuals) with the audits under
test and nothing of their arithmetic, so the column reductions are checked
against an independent implementation.

The empty-selection rule is written out here too (a group with nothing to
measure reads NaN), not imported from ``fairexp.fairness.groups``.
"""

from __future__ import annotations

import numpy as np

from fairexp.core.burden import BurdenResult, GroupBurden
from fairexp.core.nawb import NAWBGroupResult, NAWBResult
from fairexp.core.precof import AttributeChangeProfile, PreCoFResult
from fairexp.fairness.groups import group_masks


def burden_oracle(session, X, sensitive, *, y_true=None, error_based=False,
                  protected_value=1):
    """``(metrics, counterfactuals)``: the burden audit's ``as_dict()`` and
    each group's solved counterfactuals, computed object by object."""
    X = np.asarray(X, dtype=float)
    predictions = np.asarray(session.predict(X))
    selected = predictions == 0
    if error_based:
        selected = selected & (np.asarray(y_true) == 1)
    masks = group_masks(np.asarray(sensitive), protected_value=protected_value)
    per_group, counterfactuals = {}, {}
    for group_value, mask in ((1, masks.protected), (0, masks.reference)):
        member_idx = np.flatnonzero(mask & selected)
        generated = session.counterfactuals_for(X, member_idx).solved()
        group_counterfactuals = [generated[i] for i in member_idx if i in generated]
        distances = np.asarray([cf.distance for cf in group_counterfactuals], dtype=float)
        per_group[group_value] = GroupBurden(
            group=group_value,
            n_negative=int(member_idx.shape[0]),
            n_with_recourse=int(distances.shape[0]),
            burden=float(distances.mean()) if distances.size else np.nan,
            distances=distances,
        )
        counterfactuals[group_value] = group_counterfactuals
    result = BurdenResult(protected=per_group[1], reference=per_group[0])
    return result.as_dict(), counterfactuals


def nawb_oracle(session, X, y_true, sensitive, *, protected_value=1) -> NAWBResult:
    """The NAWB audit's result, computed object by object."""
    X = np.asarray(X, dtype=float)
    y_true = np.asarray(y_true, dtype=int)
    predictions = np.asarray(session.predict(X))
    masks = group_masks(np.asarray(sensitive), protected_value=protected_value)
    n_features = X.shape[1]
    results = {}
    for group_value, mask in ((1, masks.protected), (0, masks.reference)):
        positive_label = mask & (y_true == 1)
        false_negatives = positive_label & (predictions == 0)
        fn_idx = np.flatnonzero(false_negatives)
        generated = session.counterfactuals_for(X, fn_idx).solved()
        distances = np.asarray(
            [generated[i].distance for i in fn_idx if i in generated], dtype=float
        )
        n_positive = int(positive_label.sum())
        total_distance = float(distances.sum())
        results[group_value] = NAWBGroupResult(
            group=group_value,
            nawb=total_distance / (n_features * n_positive) if n_positive else np.nan,
            false_negative_rate=(
                float(false_negatives.sum() / n_positive) if n_positive else np.nan
            ),
            mean_burden_of_false_negatives=(
                float(distances.mean()) if distances.size else np.nan
            ),
            n_positive_label=n_positive,
            n_false_negatives=int(fn_idx.shape[0]),
            n_with_recourse=int(distances.shape[0]),
        )
    return NAWBResult(protected=results[1], reference=results[0])


def _profile(counterfactuals, feature_names, scale, group) -> AttributeChangeProfile:
    change_counts = {name: 0 for name in feature_names}
    change_magnitudes = {name: [] for name in feature_names}
    n_explained = len(counterfactuals)
    for counterfactual in counterfactuals:
        delta = counterfactual.delta()
        for j in counterfactual.changed_features:
            name = feature_names[j]
            change_counts[name] += 1
            change_magnitudes[name].append(abs(delta[j]) / scale[j])
    return AttributeChangeProfile(
        group=group,
        n_explained=n_explained,
        change_frequency={
            name: (count / n_explained if n_explained else np.nan)
            for name, count in change_counts.items()
        },
        mean_change_magnitude={
            name: (float(np.mean(values)) if values else 0.0)
            for name, values in change_magnitudes.items()
        },
    )


def precof_oracle(session, X, sensitive, feature_names, sensitive_feature, *,
                  protected_value=1, mode="explicit") -> PreCoFResult:
    """The PreCoF audit's result, computed object by object."""
    X = np.asarray(X, dtype=float)
    feature_names = list(feature_names)
    scale = session.generator.scale_
    negative = np.asarray(session.predict(X)) == 0
    masks = group_masks(np.asarray(sensitive), protected_value=protected_value)
    protected = list(session.counterfactuals_for(
        X, np.flatnonzero(masks.protected & negative)).solved().values())
    reference = list(session.counterfactuals_for(
        X, np.flatnonzero(masks.reference & negative)).solved().values())
    protected_profile = _profile(protected, feature_names, scale, 1)
    reference_profile = _profile(reference, feature_names, scale, 0)

    explicit_bias_rate = 0.0
    sensitive_change_rate = 0.0
    if sensitive_feature in feature_names:
        sensitive_change_rate = protected_profile.change_frequency[sensitive_feature]
        sensitive_index = feature_names.index(sensitive_feature)
        only_sensitive = sum(
            counterfactual.changed_features == (sensitive_index,)
            for counterfactual in protected
        )
        explicit_bias_rate = (only_sensitive / protected_profile.n_explained
                              if protected_profile.n_explained else np.nan)
    return PreCoFResult(
        explicit_bias_rate=explicit_bias_rate,
        sensitive_change_rate=sensitive_change_rate,
        protected_profile=protected_profile,
        reference_profile=reference_profile,
        frequency_gap={
            name: protected_profile.change_frequency[name]
            - reference_profile.change_frequency[name]
            for name in feature_names
        },
        mode=mode,
    )
