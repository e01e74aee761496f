"""Tests for FACTS [77], GLOBE-CE [75], counterfactual explanation trees [76]
and two-level recourse sets [74]."""

import numpy as np
import pytest

from fairexp.core import (
    Action,
    CounterfactualExplanationTree,
    FACTSExplainer,
    GlobeCEExplainer,
    RecourseSetExplainer,
)
from fairexp.explanations import ActionabilityConstraints
from fairexp.workloads import _loan_workload


@pytest.fixture(scope="module")
def facts_setup(loan_data, loan_model):
    dataset, train, test = loan_data
    explainer = FACTSExplainer(
        loan_model, dataset.feature_names, dataset.sensitive_index, random_state=0
    )
    actions = explainer._candidate_actions(train.X, loan_model.predict(train.X))
    return dataset, train, test, loan_model, explainer, actions


class TestActions:
    def test_apply_sets_target_values(self):
        action = Action(changes=((1, 5.0), (2, 7.0)))
        X = np.zeros((3, 4))
        modified = action.apply(X)
        assert np.all(modified[:, 1] == 5.0)
        assert np.all(modified[:, 2] == 7.0)
        assert np.all(modified[:, 0] == 0.0)
        assert np.all(X == 0.0)  # original untouched

    def test_cost_is_scaled_l1(self):
        action = Action(changes=((0, 10.0),))
        X = np.array([[4.0, 0.0]])
        cost = action.cost(X, np.array([2.0, 1.0]))
        assert cost[0] == pytest.approx(3.0)

    def test_describe(self):
        action = Action(changes=((0, 1.0),))
        assert "income := 1" in action.describe(["income", "debt"])


class TestFACTS:
    def test_candidate_actions_exclude_sensitive(self, facts_setup):
        dataset, *_rest, actions = facts_setup
        for action in actions:
            assert all(feature != dataset.sensitive_index for feature, _ in action.changes)

    def test_global_audit_shows_bias_against_protected(self, facts_setup):
        dataset, _, test, _, explainer, _ = facts_setup
        result = explainer.explain(test.X, test.sensitive_values)
        assert result.global_audit.effectiveness_gap > 0.05
        assert not result.is_fair(tolerance=0.02)

    def test_effectiveness_values_are_rates(self, facts_setup):
        _, _, test, _, explainer, _ = facts_setup
        result = explainer.explain(test.X, test.sensitive_values)
        for audit in [result.global_audit, *result.subgroups]:
            assert 0.0 <= audit.effectiveness_protected <= 1.0
            assert 0.0 <= audit.effectiveness_reference <= 1.0
            assert audit.n_effective_actions_protected >= 0

    def test_subgroups_meet_min_size(self, facts_setup):
        _, _, test, _, explainer, _ = facts_setup
        result = explainer.explain(test.X, test.sensitive_values, min_group_size=5)
        for audit in result.subgroups:
            assert audit.n_protected >= 5
            assert audit.n_reference >= 5

    def test_top_biased_sorted(self, facts_setup):
        _, _, test, _, explainer, _ = facts_setup
        result = explainer.explain(test.X, test.sensitive_values)
        gaps = [audit.effectiveness_gap for audit in result.top_biased(5)]
        assert gaps == sorted(gaps, reverse=True)

    def test_describe_subgroup(self, facts_setup):
        _, _, test, _, explainer, _ = facts_setup
        result = explainer.explain(test.X, test.sensitive_values)
        if result.subgroups:
            text = result.subgroups[0].describe()
            assert "eff(G-)" in text


    def test_choice_gap_of_a_side_with_nobody_affected_is_nan(self):
        """E1 loan data (400 rows, 50 audited) with the model's approvals as
        the protected group: no protected row is rejected, so there is no
        choice of actions to compare, not a choice gap of 4."""
        dataset, train, test, model = _loan_workload(400, seed=0)
        audit = test.subset(np.arange(50))
        explainer = FACTSExplainer(model, dataset.feature_names, dataset.sensitive_index,
                                   random_state=0)
        result = explainer.explain(audit.X, model.predict(audit.X))
        global_audit = result.global_audit
        assert global_audit.n_protected == 0 and global_audit.n_reference > 0
        assert np.isnan(global_audit.choice_gap)
        assert "choice_gap=+nan" in global_audit.describe()


class TestGlobeCE:
    def test_direction_audit_shows_cost_gap(self, loan_data, loan_model):
        dataset, train, test = loan_data
        constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
        explainer = GlobeCEExplainer(
            loan_model, train.X, constraints=constraints,
            feature_names=dataset.feature_names, random_state=0,
        )
        result = explainer.explain(test.X, test.sensitive_values)
        assert result.protected.coverage > 0.5
        assert result.reference.coverage > 0.5
        # The protected group needs larger multiples of the direction.
        assert result.cost_gap > 0.0

    def test_direction_respects_immutability(self, loan_data, loan_model):
        dataset, train, test = loan_data
        constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
        explainer = GlobeCEExplainer(loan_model, train.X, constraints=constraints,
                                     feature_names=dataset.feature_names, random_state=0)
        result = explainer.explain(test.X, test.sensitive_values)
        assert result.direction.direction[dataset.sensitive_index] == pytest.approx(0.0)

    def test_direction_is_unit_norm(self, loan_data, loan_model):
        dataset, train, test = loan_data
        explainer = GlobeCEExplainer(loan_model, train.X, feature_names=dataset.feature_names,
                                     random_state=0)
        result = explainer.explain(test.X, test.sensitive_values)
        assert np.linalg.norm(result.direction.direction) == pytest.approx(1.0)

    def test_top_components_and_dict(self, loan_data, loan_model):
        dataset, train, test = loan_data
        explainer = GlobeCEExplainer(loan_model, train.X, feature_names=dataset.feature_names,
                                     random_state=0)
        result = explainer.explain(test.X, test.sensitive_values)
        top = result.direction.top_components(2)
        assert len(top) == 2
        assert set(result.as_dict()) >= {"coverage_gap", "cost_gap"}


class TestCounterfactualTree:
    def test_tree_assigns_actions_and_flips(self, facts_setup):
        dataset, _, test, model, _, actions = facts_setup
        tree = CounterfactualExplanationTree(
            model, actions, feature_names=dataset.feature_names, max_depth=2
        ).fit(test.X)
        audit = tree.audit(test.X, test.sensitive_values)
        assert audit.n_leaves >= 1
        assert audit.overall_validity > 0.3

    def test_validity_gap_reflects_recourse_bias(self, facts_setup):
        dataset, _, test, model, _, actions = facts_setup
        tree = CounterfactualExplanationTree(
            model, actions, feature_names=dataset.feature_names, max_depth=2
        ).fit(test.X)
        audit = tree.audit(test.X, test.sensitive_values)
        # With a uniform action per leaf, the protected group (further from the
        # boundary) flips less often or pays at least as much.
        assert audit.validity_gap >= -0.05 or audit.cost_gap >= -0.05

    def test_describe_lists_one_rule_per_leaf(self, facts_setup):
        dataset, _, test, model, _, actions = facts_setup
        tree = CounterfactualExplanationTree(
            model, actions, feature_names=dataset.feature_names, max_depth=1
        ).fit(test.X)
        audit = tree.audit(test.X, test.sensitive_values)
        assert len(tree.describe()) == audit.n_leaves

    def test_audit_before_fit_raises(self, facts_setup):
        dataset, _, test, model, _, actions = facts_setup
        tree = CounterfactualExplanationTree(model, actions)
        with pytest.raises(RuntimeError):
            tree.audit(test.X, test.sensitive_values)


class TestRecourseSets:
    def test_rules_have_positive_correctness(self, facts_setup):
        dataset, _, test, model, _, actions = facts_setup
        result = RecourseSetExplainer(
            model, actions, feature_names=dataset.feature_names,
            sensitive_index=dataset.sensitive_index, max_rules=3,
        ).explain(test.X, test.sensitive_values)
        assert len(result.rules) >= 1
        for rule in result.rules:
            assert rule.correctness > 0.0
            assert 0.0 <= rule.coverage <= 1.0

    def test_total_coverage_bounded(self, facts_setup):
        dataset, _, test, model, _, actions = facts_setup
        result = RecourseSetExplainer(
            model, actions, feature_names=dataset.feature_names,
            sensitive_index=dataset.sensitive_index,
        ).explain(test.X, test.sensitive_values)
        assert 0.0 <= result.total_coverage <= 1.0
        assert 0.0 <= result.coverage_protected <= 1.0

    def test_coverage_gap_against_protected(self, facts_setup):
        dataset, _, test, model, _, actions = facts_setup
        result = RecourseSetExplainer(
            model, actions, feature_names=dataset.feature_names,
            sensitive_index=dataset.sensitive_index,
        ).explain(test.X, test.sensitive_values)
        # The protected group is harder to cover with shared actions.
        assert result.coverage_gap >= -0.05

    def test_describe_readable(self, facts_setup):
        dataset, _, test, model, _, actions = facts_setup
        result = RecourseSetExplainer(
            model, actions, feature_names=dataset.feature_names,
            sensitive_index=dataset.sensitive_index,
        ).explain(test.X, test.sensitive_values)
        for line in result.describe():
            assert line.startswith("IF ")
