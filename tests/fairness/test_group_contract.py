"""One group contract, checked over every module that calls ``group_masks``.

Each case below runs one module's group metrics on a fixed 40-row loan
population with a shared fitted model; hypothesis draws only the sensitive
vector.  For every case:

* a NaN or ``None`` group value raises ``ValidationError`` naming its rows;
* every value other than the protected one is the reference group, so
  mapping them all to 0 gives bitwise the same result (NaN equal to NaN);
* a group metric over an empty selection is NaN, and so is every gap and
  ratio built from it; an optimizer that needs such a metric raises;
* a ratio whose reference side selects nobody (``disparate_impact`` over
  the approved rows) reads ``inf`` or 1.0, never a finite disparity;
* with both sides of every selection non-empty, every metric is finite.

A *selection* is the set of rows a metric measures (rejected rows, rows with
a positive label, rejected rows a counterfactual was found for, ...).  Each
case lists, per output, the selections it measures (``EXPECT``); an output
not listed must always be finite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexp.core import (
    BurdenExplainer,
    CounterfactualExplanationTree,
    FACTSExplainer,
    GlobeCEExplainer,
    NAWBExplainer,
    PreCoFExplainer,
    RecourseSetExplainer,
    recourse_gap_report,
)
from fairexp.exceptions import ValidationError
from fairexp.explanations import AuditSession
from fairexp.fairness import group_fairness_report, groupwise
from fairexp.fairness.mitigation import (
    FairLogisticRegression,
    GroupThresholdOptimizer,
    RecourseRegularizedClassifier,
    disparate_impact_repair,
    reweighing_weights,
)

N_ROWS = 40
P, R = "protected", "reference"


@dataclass
class Population:
    """The fixed rows, the shared fitted objects and every selection's mask."""

    dataset: object
    X: np.ndarray
    y: np.ndarray
    proba: np.ndarray
    model: object
    session: AuditSession
    recourse_model: RecourseRegularizedClassifier
    actions: list
    tree: CounterfactualExplanationTree
    globe: GlobeCEExplainer
    facts: FACTSExplainer
    selections: dict[str, np.ndarray] = field(default_factory=dict)


@pytest.fixture(scope="module")
def population(loan_data, loan_model, loan_cf_generator):
    dataset, train, test = loan_data
    audit = test.subset(np.arange(N_ROWS))
    X, y = audit.X, audit.y
    predictions = loan_model.predict(X)
    negative = predictions == 0
    facts = FACTSExplainer(loan_model, dataset.feature_names, dataset.sensitive_index,
                           n_actions=6, random_state=0)
    actions = facts._candidate_actions(train.X, loan_model.predict(train.X))
    # Neither FACTS's actions nor GLOBE-CE's direction depends on the groups,
    # so the rows each one gives recourse to are fixed.
    facts_recourse = np.zeros(N_ROWS, dtype=bool)
    for action in facts._candidate_actions(X, predictions):
        facts_recourse |= loan_model.predict(action.apply(X)) == 1
    globe = GlobeCEExplainer(loan_model, X, n_directions=4, n_scales=8, max_scale=8.0,
                             random_state=0)
    direction = globe.explain(X, y).direction.direction
    globe_recourse = np.zeros(N_ROWS, dtype=bool)
    globe_recourse[negative] = np.isfinite(globe._min_scales(X[negative], direction))
    recourse_model = RecourseRegularizedClassifier(n_iter=60).fit(
        train.X, train.y, sensitive=train.sensitive_values)
    with AuditSession(loan_cf_generator) as session:
        solved = np.zeros(N_ROWS, dtype=bool)
        batch = session.counterfactuals_for(X, np.flatnonzero(negative))
        solved[batch.indices[batch.has_result]] = True
        yield Population(
            dataset=audit, X=X, y=y, proba=loan_model.predict_proba(X)[:, 1],
            model=loan_model, session=session, recourse_model=recourse_model,
            actions=actions, globe=globe, facts=facts,
            tree=CounterfactualExplanationTree(loan_model, actions, max_depth=1).fit(X),
            selections={
                "all": np.ones(N_ROWS, dtype=bool),
                "rejected": negative,
                "approved": ~negative,
                "solved": negative & solved,
                "positive": y == 1,
                "negative_label": y == 0,
                "solved_false_negative": negative & solved & (y == 1),
                "recourse_rejected": recourse_model.predict(X) == 0,
                "facts_recourse": negative & facts_recourse,
                "globe_recourse": globe_recourse,
            },
        )


# ------------------------------------------------------------------ the cases
def _groupwise(pop, s):
    return groupwise(pop.proba, s)


def _group_metrics(pop, s):
    report = group_fairness_report(pop.y, (pop.proba >= 0.5).astype(int), s,
                                   y_proba=pop.proba)
    return report.as_dict()


def _preprocessing(pop, s):
    weights = reweighing_weights(pop.y, s)
    X = pop.X.copy()
    X[:, pop.dataset.sensitive_index] = s
    columns = [spec.name for spec in pop.dataset.features
               if spec.kind == "numeric" and spec.name != pop.dataset.sensitive]
    repaired = disparate_impact_repair(pop.dataset.with_values(X=X), columns=columns)
    keep = [pop.dataset.index_of(name) for name in columns]
    return {"weights": weights, "repaired": repaired.X[:, keep]}


def _inprocessing(pop, s):
    fair = FairLogisticRegression(n_iter=40).fit(pop.X, pop.y, sensitive=s)
    recourse = RecourseRegularizedClassifier(n_iter=40).fit(pop.X, pop.y, sensitive=s)
    return {"fair_coef": fair.coef_, "fair_intercept": fair.intercept_,
            "recourse_coef": recourse.coef_, "recourse_intercept": recourse.intercept_,
            "group_recourse_gap": pop.recourse_model.group_recourse_gap(pop.X, s)}


def _postprocessing(pop, s):
    out = {}
    for criterion in ("statistical_parity", "equal_opportunity"):
        optimizer = GroupThresholdOptimizer(criterion, grid_size=11).fit(pop.proba, pop.y, s)
        out[criterion] = [optimizer.threshold_protected_, optimizer.threshold_reference_]
    return out


def _burden(pop, s):
    return BurdenExplainer(session=pop.session).explain(pop.X, s).as_dict()


def _nawb(pop, s):
    result = NAWBExplainer(session=pop.session).explain(pop.X, pop.y, s)
    return {**result.as_dict(),
            "fn_burden_protected": result.protected.mean_burden_of_false_negatives,
            "fn_burden_reference": result.reference.mean_burden_of_false_negatives}


def _precof(pop, s):
    result = PreCoFExplainer(feature_names=pop.dataset.feature_names,
                             sensitive_feature=pop.dataset.sensitive,
                             session=pop.session).explain(pop.X, s)
    names = pop.dataset.feature_names
    return {
        "frequency_protected": [result.protected_profile.change_frequency[n] for n in names],
        "frequency_reference": [result.reference_profile.change_frequency[n] for n in names],
        # A feature no counterfactual changed moved by 0.0, also in an empty group.
        "magnitude_protected": [result.protected_profile.mean_change_magnitude[n] for n in names],
        "magnitude_reference": [result.reference_profile.mean_change_magnitude[n] for n in names],
        "frequency_gap": [result.frequency_gap[n] for n in names],
        "sensitive_change_rate": result.sensitive_change_rate,
        "explicit_bias_rate": result.explicit_bias_rate,
    }


def _fair_recourse(pop, s):
    report = recourse_gap_report(pop.model, pop.X, s)
    return {"recourse_protected": report.recourse_protected,
            "recourse_reference": report.recourse_reference,
            "gap": report.gap, "ratio": report.ratio}


def _globe_ce(pop, s):
    return pop.globe.explain(pop.X, s).as_dict()


def _cf_trees(pop, s):
    audit = pop.tree.audit(pop.X, s)
    return {name: getattr(audit, name) for name in (
        "overall_validity", "overall_cost", "validity_protected", "validity_reference",
        "cost_protected", "cost_reference", "validity_gap", "cost_gap")}


def _recourse_sets(pop, s):
    result = RecourseSetExplainer(pop.model, pop.actions,
                                  feature_names=pop.dataset.feature_names,
                                  sensitive_index=pop.dataset.sensitive_index,
                                  max_rules=2).explain(pop.X, s)
    return {"total_coverage": result.total_coverage,
            "coverage_protected": result.coverage_protected,
            "coverage_reference": result.coverage_reference,
            "correctness_protected": result.correctness_protected,
            "correctness_reference": result.correctness_reference,
            "coverage_gap": result.coverage_gap}


def _facts(pop, s):
    result = pop.facts.explain(pop.X, s)
    audit = result.global_audit
    return {
        "effectiveness_protected": audit.effectiveness_protected,
        "effectiveness_reference": audit.effectiveness_reference,
        "cost_protected": audit.mean_cost_protected,
        "cost_reference": audit.mean_cost_reference,
        "effectiveness_gap": audit.effectiveness_gap,
        "cost_gap": audit.cost_gap,
        "per_action_protected": [a["effectiveness_protected"] for a in audit.per_action],
        "per_action_reference": [a["effectiveness_reference"] for a in audit.per_action],
        "n_effective": [audit.n_effective_actions_protected,
                        audit.n_effective_actions_reference],
        "choice_gap": audit.choice_gap,
        "subgroups": [[a.n_protected, a.n_reference, a.effectiveness_protected,
                       a.effectiveness_reference, a.mean_cost_protected,
                       a.mean_cost_reference] for a in result.subgroups],
    }


def _sides(selection, *keys_by_side):
    """EXPECT entries: protected keys, reference keys, then keys built from both."""
    protected, reference, both = keys_by_side
    out = {key: [(selection, P)] for key in protected}
    out.update({key: [(selection, R)] for key in reference})
    out.update({key: [(selection, P), (selection, R)] for key in both})
    return out


@dataclass(frozen=True)
class Case:
    run: object
    expect: dict = field(default_factory=dict)
    raises: tuple = ()   # (selection, side) pairs whose emptiness makes the call raise
    # Ratios against a reference that can be 0: output -> the (selection,
    # side) pairs whose emptiness makes it read inf or 1.0 instead.
    unbounded: dict = field(default_factory=dict)


CASES = {
    "fairness/groups": Case(_groupwise),
    "fairness/group_metrics": Case(_group_metrics, {
        "equal_opportunity_difference": [("positive", P), ("positive", R)],
        "false_negative_rate_difference": [("positive", P), ("positive", R)],
        "false_positive_rate_difference": [("negative_label", P), ("negative_label", R)],
        "equalized_odds_difference": [("positive", P), ("positive", R),
                                      ("negative_label", P), ("negative_label", R)],
        "average_odds_difference": [("positive", P), ("positive", R),
                                    ("negative_label", P), ("negative_label", R)],
        "predictive_parity_difference": [("approved", P), ("approved", R)],
    }, unbounded={"disparate_impact": [("approved", R)]}),
    "fairness/mitigation/preprocessing": Case(_preprocessing),
    "fairness/mitigation/inprocessing": Case(_inprocessing, _sides(
        "recourse_rejected", (), (), ("group_recourse_gap",))),
    "fairness/mitigation/postprocessing": Case(_postprocessing,
                                               raises=(("positive", P), ("positive", R))),
    "core/burden": Case(_burden, {
        **_sides("rejected", ("coverage_protected",), ("coverage_reference",), ()),
        **_sides("solved", ("burden_protected",), ("burden_reference",),
                 ("burden_gap", "burden_ratio")),
    }),
    "core/nawb": Case(_nawb, {
        **_sides("positive", ("nawb_protected", "fnr_protected"),
                 ("nawb_reference", "fnr_reference"), ("nawb_gap",)),
        **_sides("solved_false_negative", ("fn_burden_protected",),
                 ("fn_burden_reference",), ()),
    }),
    "core/precof": Case(_precof, _sides(
        "solved", ("frequency_protected", "sensitive_change_rate", "explicit_bias_rate"),
        ("frequency_reference",), ("frequency_gap",))),
    "core/fair_recourse": Case(_fair_recourse, _sides(
        "rejected", ("recourse_protected",), ("recourse_reference",), ("gap", "ratio"))),
    "core/globe_ce": Case(_globe_ce, {
        **_sides("rejected", ("coverage_protected",), ("coverage_reference",),
                 ("coverage_gap",)),
        **_sides("globe_recourse", ("cost_protected",), ("cost_reference",), ("cost_gap",)),
    }),
    "core/cf_trees": Case(_cf_trees, _sides(
        "rejected", ("validity_protected", "cost_protected"),
        ("validity_reference", "cost_reference"), ("validity_gap", "cost_gap"))),
    "core/recourse_sets": Case(_recourse_sets, _sides(
        "rejected", ("coverage_protected", "correctness_protected"),
        ("coverage_reference", "correctness_reference"), ("coverage_gap",))),
    "core/facts": Case(_facts, {
        **_sides("rejected", ("effectiveness_protected", "per_action_protected"),
                 ("effectiveness_reference", "per_action_reference"),
                 ("effectiveness_gap", "choice_gap")),
        **_sides("facts_recourse", ("cost_protected",), ("cost_reference",), ("cost_gap",)),
    }),
}


# ------------------------------------------------------------------- the test
def _selections_of(case):
    return sorted({selection for deps in (*case.expect.values(), *case.unbounded.values())
                   for selection, _ in deps}
                  | {selection for selection, _ in case.raises}) or ["all"]


def _as_arrays(result) -> dict[str, np.ndarray]:
    return {key: np.asarray(value, dtype=float) for key, value in result.items()}


def _assert_bitwise(left, right):
    assert left.keys() == right.keys()
    for key in left:
        a, b = left[key], right[key]
        assert a.shape == b.shape, key
        assert np.array_equal(np.isnan(a), np.isnan(b)), key
        assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes(), key


@st.composite
def sensitive_vectors(draw, masks, names):
    """Group values in {0, 1, 2} (1 protected); one side of one selection may be empty."""
    target = draw(st.sampled_from([None] + names), label="emptied selection")
    protected = np.array(draw(st.lists(st.booleans(), min_size=N_ROWS, max_size=N_ROWS)))
    if target is not None:
        inside = masks[target]
        empty_side = draw(st.sampled_from([P, R]), label="emptied side")
        if empty_side == P:      # protected rows only outside the selection
            protected &= ~inside
        else:                    # every selected row is protected
            protected |= inside
    values = np.array(draw(st.lists(st.sampled_from([0, 2]), min_size=N_ROWS,
                                    max_size=N_ROWS)))
    return np.where(protected, 1, values)


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_group_contract(population, name, data):
    case = CASES[name]
    masks = population.selections
    names = _selections_of(case)
    sensitive = data.draw(sensitive_vectors(masks, names), label="sensitive")
    protected = sensitive == 1
    if protected.all() or not protected.any():
        with pytest.raises(ValidationError, match="single group"):
            case.run(population, sensitive)
        return

    # NaN or None for a group raises, naming the rows.
    rows = sorted(data.draw(st.sets(st.integers(0, N_ROWS - 1), min_size=1, max_size=3),
                            label="missing rows"))
    missing = sensitive.astype(object if data.draw(st.booleans(), label="None") else float)
    missing[rows] = None if missing.dtype == object else np.nan
    with pytest.raises(ValidationError, match=re.escape(f"rows {rows}")):
        case.run(population, missing)

    empty = {(selection, side): not (masks[selection] & (protected if side == P
                                                         else ~protected)).any()
             for selection in names for side in (P, R)}
    if any(empty[dep] for dep in case.raises):
        with pytest.raises(ValidationError, match="group has none"):
            case.run(population, sensitive)
        return

    result = _as_arrays(case.run(population, sensitive))
    # Every non-protected value is the reference group.
    _assert_bitwise(result, _as_arrays(case.run(population, np.where(protected, 1, 0))))
    for key, values in result.items():
        if any(empty[dep] for dep in case.expect.get(key, ())):
            assert np.isnan(values).all(), (key, values)   # nothing to measure
        elif any(empty[dep] for dep in case.unbounded.get(key, ())):
            assert np.isin(values, [np.inf, 1.0]).all(), (key, values)
        else:
            assert np.isfinite(values).all(), (key, values)
