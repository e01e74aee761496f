"""Tests for the burden [72], NAWB [73] and PreCoF [71] fairness explanations."""

import numpy as np
import pytest

from fairexp.core import BurdenExplainer, NAWBExplainer, PreCoFExplainer
from fairexp.datasets import make_loan_dataset
from fairexp.explanations import ActionabilityConstraints, GrowingSpheresCounterfactual
from fairexp.models import LogisticRegression


@pytest.fixture(scope="module")
def audited(loan_data, loan_model, loan_cf_generator):
    """Subset of the loan test split used by the counterfactual-based audits."""
    _, _, test = loan_data
    subset = test.subset(np.arange(min(90, test.n_samples)))
    return subset, loan_model, loan_cf_generator


class TestBurden:
    def test_biased_model_burden_gap_positive(self, audited):
        subset, _, generator = audited
        result = BurdenExplainer(generator).explain(subset.X, subset.sensitive_values)
        assert result.protected.burden > 0
        assert result.gap > 0.3
        assert result.ratio > 1.2

    def test_burden_counts_negatively_classified_members(self, audited):
        subset, model, generator = audited
        result = BurdenExplainer(generator).explain(subset.X, subset.sensitive_values)
        predictions = model.predict(subset.X)
        n_negative = int((predictions == 0).sum())
        assert result.protected.n_negative + result.reference.n_negative == n_negative

    def test_coverage_between_zero_and_one(self, audited):
        subset, _, generator = audited
        result = BurdenExplainer(generator).explain(subset.X, subset.sensitive_values)
        assert 0.0 <= result.protected.coverage <= 1.0
        assert 0.0 <= result.reference.coverage <= 1.0

    def test_error_based_selection_requires_labels(self, audited):
        subset, _, generator = audited
        with pytest.raises(ValueError):
            BurdenExplainer(generator, error_based=True).explain(
                subset.X, subset.sensitive_values
            )

    def test_error_based_explains_fewer_instances(self, audited):
        subset, _, generator = audited
        parity = BurdenExplainer(generator).explain(subset.X, subset.sensitive_values)
        error_based = BurdenExplainer(generator, error_based=True).explain(
            subset.X, subset.sensitive_values, y_true=subset.y
        )
        assert (
            error_based.protected.n_negative + error_based.reference.n_negative
            <= parity.protected.n_negative + parity.reference.n_negative
        )

    def test_fair_data_has_small_gap(self):
        dataset = make_loan_dataset(600, direct_bias=0.0, recourse_gap=0.0, random_state=1)
        train, test = dataset.split(random_state=2)
        model = LogisticRegression(n_iter=1000, random_state=0).fit(train.X, train.y)
        constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
        generator = GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                                 random_state=0)
        subset = test.subset(np.arange(min(80, test.n_samples)))
        result = BurdenExplainer(generator).explain(subset.X, subset.sensitive_values)
        assert abs(result.gap) < 1.0

    def test_missing_sensitive_value_raises_before_predict(self, audited):
        subset, _, generator = audited
        from fairexp.exceptions import ValidationError

        sensitive = subset.sensitive_values.astype(float)
        sensitive[3] = np.nan
        explainer = BurdenExplainer(generator)
        calls = explainer.session.predict_call_count
        with pytest.raises(ValidationError, match=r"rows \[3\]"):
            explainer.explain(subset.X, sensitive)
        assert explainer.session.predict_call_count == calls

    def test_as_dict_keys(self, audited):
        subset, _, generator = audited
        result = BurdenExplainer(generator).explain(subset.X, subset.sensitive_values)
        assert set(result.as_dict()) == {
            "burden_protected", "burden_reference", "burden_gap", "burden_ratio",
            "coverage_protected", "coverage_reference",
        }


class TestNAWB:
    def test_nawb_gap_positive_for_biased_model(self, audited):
        subset, _, generator = audited
        result = NAWBExplainer(generator).explain(subset.X, subset.y, subset.sensitive_values)
        assert result.gap > 0
        assert result.protected.false_negative_rate > result.reference.false_negative_rate

    def test_nawb_counts_false_negatives_only(self, audited):
        subset, model, generator = audited
        result = NAWBExplainer(generator).explain(subset.X, subset.y, subset.sensitive_values)
        predictions = model.predict(subset.X)
        protected = subset.protected_mask
        expected_fn = int(((predictions == 0) & (subset.y == 1) & protected).sum())
        assert result.protected.n_false_negatives == expected_fn

    def test_nawb_zero_when_no_false_negatives(self, audited):
        subset, model, generator = audited
        # Pretend every negatively classified person truly deserved rejection.
        y_fake = model.predict(subset.X)
        result = NAWBExplainer(generator).explain(subset.X, y_fake, subset.sensitive_values)
        assert result.protected.nawb == 0.0
        assert result.reference.nawb == 0.0

    def test_mismatched_lengths_rejected(self, audited):
        subset, _, generator = audited
        from fairexp.exceptions import ValidationError

        with pytest.raises(ValidationError):
            NAWBExplainer(generator).explain(subset.X, subset.y[:-3], subset.sensitive_values)


class TestPreCoF:
    def test_explicit_mode_detects_sensitive_changes_when_allowed(self, audited):
        subset, model, _ = audited
        # Generator WITHOUT immutability: the sensitive attribute may be changed,
        # so explicit bias becomes visible through sensitive-attribute flips.
        generator = GrowingSpheresCounterfactual(model, subset.X, random_state=0)
        explainer = PreCoFExplainer(generator, subset.feature_names, "group", mode="explicit")
        result = explainer.explain(subset.X, subset.sensitive_values)
        assert result.sensitive_change_rate > 0.0
        assert 0.0 <= result.explicit_bias_rate <= 1.0

    def test_implicit_mode_surfaces_proxy_attributes(self, audited):
        subset, _, generator = audited
        explainer = PreCoFExplainer(generator, subset.feature_names, "group", mode="implicit")
        result = explainer.explain(subset.X, subset.sensitive_values)
        top = [name for name, _ in result.implicit_bias_attributes(3)]
        # The loan dataset's recourse gap runs through income and credit_score.
        assert set(top) & {"income", "credit_score", "debt"}

    def test_profiles_cover_both_groups(self, audited):
        subset, _, generator = audited
        result = PreCoFExplainer(generator, subset.feature_names, "group").explain(
            subset.X, subset.sensitive_values
        )
        assert result.protected_profile.group == 1
        assert result.reference_profile.group == 0
        assert result.protected_profile.n_explained > 0

    def test_change_frequencies_are_probabilities(self, audited):
        subset, _, generator = audited
        result = PreCoFExplainer(generator, subset.feature_names, "group").explain(
            subset.X, subset.sensitive_values
        )
        for value in result.protected_profile.change_frequency.values():
            assert 0.0 <= value <= 1.0

    def test_immutable_sensitive_never_changed(self, audited):
        subset, _, generator = audited
        # The session generator freezes immutable features, so the sensitive
        # attribute must never appear among the changes.
        result = PreCoFExplainer(generator, subset.feature_names, "group").explain(
            subset.X, subset.sensitive_values
        )
        assert result.protected_profile.change_frequency["group"] == 0.0
        assert result.sensitive_change_rate == 0.0
