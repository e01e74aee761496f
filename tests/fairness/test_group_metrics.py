"""Tests for group fairness metrics."""

import numpy as np
import pytest

from fairexp.exceptions import ValidationError
from fairexp.fairness import (
    average_odds_difference,
    between_group_generalized_entropy,
    calibration_gap,
    disparate_impact,
    equal_opportunity_difference,
    equalized_odds_difference,
    false_negative_rate_difference,
    generalized_entropy_index,
    group_fairness_report,
    group_masks,
    groupwise,
    predictive_parity_difference,
    statistical_parity_difference,
)

# Hand-crafted example: protected group selected less often and with worse TPR.
SENSITIVE = np.array([1, 1, 1, 1, 0, 0, 0, 0])
Y_TRUE =    np.array([1, 1, 0, 0, 1, 1, 0, 0])
Y_PRED =    np.array([1, 0, 0, 0, 1, 1, 1, 0])
Y_PROBA =   np.array([0.9, 0.4, 0.3, 0.2, 0.95, 0.85, 0.6, 0.1])


class TestGroupMasks:
    def test_masks_partition(self):
        masks = group_masks(SENSITIVE)
        assert masks.n_protected == 4
        assert masks.n_reference == 4
        assert not np.any(masks.protected & masks.reference)

    def test_single_group_rejected(self):
        with pytest.raises(ValidationError):
            group_masks(np.ones(5))

    def test_custom_protected_value(self):
        masks = group_masks(np.array(["a", "b", "a"]), protected_value="a")
        assert masks.n_protected == 2

    @pytest.mark.parametrize("sensitive", [
        np.array([0.0, 1.0, 1.0, np.nan, 0.0, np.nan]),
        np.array([0, 1, 1, None, 0, float("nan")], dtype=object),
        np.array(["a", "b", "a", None, "b", None], dtype=object),
    ], ids=["float-nan", "object-none-and-nan", "object-strings-none"])
    def test_missing_group_value_is_named_not_counted(self, sensitive):
        """NaN != protected_value, so a NaN or None row would silently join
        the reference group."""
        with pytest.raises(ValidationError, match=r"rows \[3, 5\]"):
            group_masks(sensitive, protected_value=sensitive[1])

    def test_groupwise_statistic(self):
        result = groupwise(Y_PRED, SENSITIVE)
        assert result["protected"] == pytest.approx(0.25)
        assert result["reference"] == pytest.approx(0.75)
        assert result["difference"] == pytest.approx(-0.5)


class TestBaseRateMetrics:
    def test_statistical_parity_difference(self):
        assert statistical_parity_difference(Y_PRED, SENSITIVE) == pytest.approx(-0.5)

    def test_disparate_impact(self):
        assert disparate_impact(Y_PRED, SENSITIVE) == pytest.approx(1 / 3)

    def test_parity_when_equal_rates(self):
        pred = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        assert statistical_parity_difference(pred, SENSITIVE) == pytest.approx(0.0)
        assert disparate_impact(pred, SENSITIVE) == pytest.approx(1.0)

    def test_disparate_impact_zero_reference_rate(self):
        """Nobody selected in the reference group is no disparity against
        the protected group: ``inf`` when anyone in the protected group is
        selected, parity when nobody is."""
        assert disparate_impact(np.array([1, 1, 0, 0, 0, 0, 0, 0]), SENSITIVE) == np.inf
        assert disparate_impact(np.zeros(8), SENSITIVE) == 1.0


class TestErrorBasedMetrics:
    def test_equal_opportunity_difference(self):
        # TPR protected = 1/2, reference = 2/2.
        assert equal_opportunity_difference(Y_TRUE, Y_PRED, SENSITIVE) == pytest.approx(-0.5)

    def test_fpr_and_fnr_differences(self):
        # FPR protected = 0, reference = 1/2; FNR protected = 1/2, reference = 0.
        assert false_negative_rate_difference(Y_TRUE, Y_PRED, SENSITIVE) == pytest.approx(0.5)

    def test_equalized_odds_is_max_of_gaps(self):
        assert equalized_odds_difference(Y_TRUE, Y_PRED, SENSITIVE) == pytest.approx(0.5)

    def test_average_odds(self):
        assert average_odds_difference(Y_TRUE, Y_PRED, SENSITIVE) == pytest.approx(
            (-0.5 + -0.5) / 2
        )

    def test_predictive_parity(self):
        # Precision protected = 1/1, reference = 2/3.
        assert predictive_parity_difference(Y_TRUE, Y_PRED, SENSITIVE) == pytest.approx(1 / 3)

    def test_zero_for_identical_groups(self, rng):
        y_true = rng.integers(0, 2, 200)
        y_pred = rng.integers(0, 2, 200)
        sensitive = np.tile([0, 1], 100)
        doubled_true = np.concatenate([y_true, y_true])
        doubled_pred = np.concatenate([y_pred, y_pred])
        doubled_sensitive = np.concatenate([np.zeros(200), np.ones(200)])
        assert equal_opportunity_difference(
            doubled_true, doubled_pred, doubled_sensitive
        ) == pytest.approx(0.0)


class TestEntropyAndCalibration:
    def test_generalized_entropy_zero_for_equal_benefits(self):
        assert generalized_entropy_index(np.ones(10)) == pytest.approx(0.0)

    def test_generalized_entropy_positive_for_unequal(self):
        assert generalized_entropy_index(np.array([0.0, 2.0, 0.0, 2.0])) > 0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_entropy_alpha_variants_nonnegative(self, alpha, rng):
        benefits = rng.random(100) + 0.1
        assert generalized_entropy_index(benefits, alpha=alpha) >= 0

    def test_between_group_entropy_zero_when_benefits_match(self):
        pred = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        true = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        assert between_group_generalized_entropy(true, pred, SENSITIVE) == pytest.approx(0.0)

    def test_calibration_gap_sign(self, rng):
        n = 2000
        sensitive = np.tile([0, 1], n // 2)
        proba = rng.random(n)
        y = (rng.random(n) < proba).astype(int)
        # Mis-calibrate the protected group only.
        proba_bad = proba.copy()
        proba_bad[sensitive == 1] = np.clip(proba_bad[sensitive == 1] + 0.3, 0, 1)
        assert calibration_gap(y, proba_bad, sensitive) > 0.1


class TestReport:
    def test_report_contains_all_metrics(self):
        report = group_fairness_report(Y_TRUE, Y_PRED, SENSITIVE, y_proba=Y_PROBA)
        as_dict = report.as_dict()
        assert "statistical_parity_difference" in as_dict
        assert "calibration_gap" in as_dict
        assert as_dict["statistical_parity_difference"] == pytest.approx(-0.5)

    def test_worst_violation_identifies_largest_deviation(self):
        report = group_fairness_report(Y_TRUE, Y_PRED, SENSITIVE)
        worst, deviation = report.worst_violation()
        assert deviation >= abs(report.statistical_parity_difference)

    def test_report_without_probabilities_skips_calibration(self):
        report = group_fairness_report(Y_TRUE, Y_PRED, SENSITIVE)
        assert "calibration_gap" not in report.as_dict()

    def test_biased_model_shows_negative_parity(self, loan_data, loan_model):
        _, _, test = loan_data
        report = group_fairness_report(
            test.y, loan_model.predict(test.X), test.sensitive_values
        )
        assert report.statistical_parity_difference < -0.2
        assert report.disparate_impact < 0.8
