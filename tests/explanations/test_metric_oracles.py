"""Burden, NAWB and PreCoF column reductions against the per-object oracle.

The audits reduce the columns of the batch ``AuditSession.counterfactuals_for``
returns; ``metric_oracles`` computes the same results from
``{index: Counterfactual}`` mappings, object by object.  Both read the same
session, so every difference is arithmetic.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from metric_oracles import burden_oracle, nawb_oracle, precof_oracle

from fairexp.core import BurdenExplainer, NAWBExplainer, PreCoFExplainer
from fairexp.exceptions import ValidationError
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    Counterfactual,
    GrowingSpheresCounterfactual,
)


class AlwaysRejects:
    """A model no counterfactual search can flip: every row stays unsolved."""

    def predict(self, X):
        return np.zeros(np.atleast_2d(X).shape[0], dtype=int)


def _bits(mapping) -> dict:
    """Float values as hex strings, so ``==`` is bitwise (``-0.0 != 0.0``)."""
    return {name: float(value).hex() for name, value in mapping.items()}


def _fields(counterfactual) -> tuple:
    return (counterfactual.original.tobytes(), counterfactual.counterfactual.tobytes(),
            counterfactual.original_prediction, counterfactual.counterfactual_prediction,
            counterfactual.changed_features, float(counterfactual.distance).hex(),
            counterfactual.feasible, counterfactual.meta)


def _profile_bits(profile) -> tuple:
    return (profile.group, profile.n_explained, _bits(profile.change_frequency),
            _bits(profile.mean_change_magnitude))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_column_metrics_match_object_oracle(loan_data, loan_model, data):
    """Random populations (repeated rows), group vectors (one with an empty
    selection), labels and a warm-up request with duplicated and negative
    indices; solvable, partly solvable and unsolvable searches; the
    sensitive feature inside and outside ``feature_names``."""
    dataset, train, test = loan_data
    n = data.draw(st.integers(4, 30), label="n")
    rows = data.draw(st.lists(st.integers(0, test.n_samples - 1), min_size=n, max_size=n),
                     label="rows")
    X = test.X[rows]
    search = data.draw(st.sampled_from(["solvable", "short", "unsolvable"]), label="search")
    model = AlwaysRejects() if search == "unsolvable" else loan_model
    constraints = data.draw(st.sampled_from(
        [None, ActionabilityConstraints.from_feature_specs(dataset.features)]))
    generator = GrowingSpheresCounterfactual(
        model, train.X, constraints=constraints, random_state=0,
        max_shells={"solvable": 12, "short": 2, "unsolvable": 2}[search])
    negative = model.predict(X) == 0

    if data.draw(st.booleans(), label="empty protected selection") and not negative.all():
        # The protected group holds only accepted rows: nothing to explain.
        accepted = np.flatnonzero(~negative)
        sensitive = np.zeros(n, dtype=int)
        sensitive[sorted(data.draw(st.sets(st.sampled_from(accepted.tolist()), min_size=1)))] = 1
    else:
        sensitive = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    assume(0 < sensitive.sum() < n)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="y"))
    warm = data.draw(st.lists(st.integers(-n, n - 1), max_size=2 * n), label="warm")
    error_based = data.draw(st.booleans(), label="error_based")
    sensitive_feature = data.draw(st.sampled_from(["group", "absent"]))

    with AuditSession(generator) as session:
        session.counterfactuals_for(X, np.array(warm, dtype=int))
        burden = BurdenExplainer(session=session, error_based=error_based).explain(
            X, sensitive, y_true=y)
        metrics, counterfactuals = burden_oracle(session, X, sensitive, y_true=y,
                                                 error_based=error_based)
        assert _bits(burden.as_dict()) == _bits(metrics)
        for group in (0, 1):
            assert ([_fields(cf) for cf in burden.counterfactuals[group]]
                    == [_fields(cf) for cf in counterfactuals[group]])

        nawb = NAWBExplainer(session=session).explain(X, y, sensitive)
        expected_nawb = nawb_oracle(session, X, y, sensitive)
        assert _bits(nawb.as_dict()) == _bits(expected_nawb.as_dict())
        assert nawb == expected_nawb

        precof = PreCoFExplainer(feature_names=dataset.feature_names,
                                 sensitive_feature=sensitive_feature,
                                 session=session).explain(X, sensitive)
        expected = precof_oracle(session, X, sensitive, dataset.feature_names,
                                 sensitive_feature)
        for profile in ("protected_profile", "reference_profile"):
            assert (_profile_bits(getattr(precof, profile))
                    == _profile_bits(getattr(expected, profile)))
        assert float(precof.explicit_bias_rate).hex() == float(expected.explicit_bias_rate).hex()
        assert (float(precof.sensitive_change_rate).hex()
                == float(expected.sensitive_change_rate).hex())
        assert _bits(precof.frequency_gap) == _bits(expected.frequency_gap)


def test_warm_audit_builds_no_counterfactual_until_read(loan_data, loan_model,
                                                        loan_cf_generator, tmp_path,
                                                        monkeypatch):
    """Burden and NAWB served from the store reduce columns only; the
    burden result builds its objects once, when ``.counterfactuals`` is read."""
    dataset, train, test = loan_data
    subset = test.subset(np.arange(80))

    def audit():
        generator = GrowingSpheresCounterfactual(
            loan_model, train.X, constraints=loan_cf_generator.constraints, random_state=0)
        with AuditSession(generator, store=tmp_path) as session:
            burden = BurdenExplainer(session=session).explain(subset.X,
                                                              subset.sensitive_values)
            nawb = NAWBExplainer(session=session).explain(subset.X, subset.y,
                                                          subset.sensitive_values)
            return session, burden, nawb

    cold_session, cold, _ = audit()
    assert cold_session.engine_predict_call_count > 0
    calls = []
    original = Counterfactual.from_columns.__func__

    def counting(cls, *args, **kwargs):
        calls.append(len(args[0]))
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Counterfactual, "from_columns", classmethod(counting))
    warm_session, warm, nawb = audit()
    assert warm_session.engine_predict_call_count == 0    # served from the store
    assert calls == []
    assert warm.protected.n_with_recourse + warm.reference.n_with_recourse > 0
    solved = warm.counterfactuals
    assert calls == [warm.protected.n_with_recourse, warm.reference.n_with_recourse]
    assert warm.counterfactuals is solved                 # built once
    assert [len(solved[1]), len(solved[0])] == calls
    monkeypatch.undo()
    for group in (0, 1):
        assert ([_fields(cf) for cf in solved[group]]
                == [_fields(cf) for cf in cold.counterfactuals[group]])


@pytest.mark.parametrize("explainer", ["burden", "burden-y", "nawb", "precof", "precof-names"])
def test_misaligned_inputs_raise_before_predict(loan_data, loan_cf_generator, explainer):
    """A sensitive vector (burden's error-based labels, PreCoF's feature
    names) of the wrong length is a ``ValidationError`` naming both lengths,
    raised before the first predict call."""
    dataset, _, test = loan_data
    subset = test.subset(np.arange(40))
    X, y, sensitive = subset.X, subset.y, subset.sensitive_values
    session = AuditSession(loan_cf_generator)

    def precof(feature_names, sensitive):
        return PreCoFExplainer(feature_names=feature_names, sensitive_feature="group",
                               session=session).explain(X, sensitive)

    run, lengths = {
        "burden": (lambda: BurdenExplainer(session=session).explain(X, sensitive[:-3]),
                   (37, 40)),
        "burden-y": (lambda: BurdenExplainer(session=session, error_based=True).explain(
            X, sensitive, y_true=y[:-3]), (37, 40)),
        "nawb": (lambda: NAWBExplainer(session=session).explain(X, y, sensitive[:-3]),
                 (37, 40)),
        "precof": (lambda: precof(dataset.feature_names, sensitive[:-3]), (37, 40)),
        "precof-names": (lambda: precof(dataset.feature_names[:-1], sensitive), (6, 5)),
    }[explainer]
    calls = session.predict_call_count
    with pytest.raises(ValidationError, match=r"\b{}\b.*\b{}\b".format(*lengths)):
        run()
    assert session.predict_call_count == calls
