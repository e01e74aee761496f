"""Shared-pass AuditSession: the PR's acceptance criteria on the E1-E3 workload.

Two claims are asserted here:

* a burden + NAWB + PreCoF sweep through ONE :class:`~fairexp.explanations.AuditSession`
  issues strictly fewer ``model.predict`` calls than the same three audits
  run independently (result-level sharing: the three audits consume
  overlapping slices of the same population's counterfactual matrix, which
  the session computes once);
* sharded generation (``n_jobs=4``) produces bitwise-identical
  counterfactuals to the sequential ``n_jobs=1`` path under fixed seeds.
"""

import numpy as np

from conftest import record

from fairexp.core import BurdenExplainer, NAWBExplainer, PreCoFExplainer
from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    GrowingSpheresCounterfactual,
)
from fairexp.models import LogisticRegression


def _workload(n_samples=600, audit_size=80):
    dataset = make_loan_dataset(n_samples, direct_bias=1.2, recourse_gap=1.0, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    subset = test.subset(np.arange(min(audit_size, test.n_samples)))
    return dataset, train, subset, model, constraints


def _generator(model, train, constraints):
    return GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                        random_state=0)


def test_session_sweep_beats_independent_audits(benchmark):
    dataset, train, subset, model, constraints = _workload()

    def build_explainers(session=None):
        """Burden + NAWB + PreCoF; private per-audit sessions when None."""
        if session is None:
            burden = BurdenExplainer(_generator(model, train, constraints))
            nawb = NAWBExplainer(_generator(model, train, constraints))
            precof = PreCoFExplainer(_generator(model, train, constraints),
                                     dataset.feature_names, dataset.sensitive)
        else:
            burden = BurdenExplainer(session=session)
            nawb = NAWBExplainer(session=session)
            precof = PreCoFExplainer(feature_names=dataset.feature_names,
                                     sensitive_feature=dataset.sensitive,
                                     session=session)
        return burden, nawb, precof

    def run_audits(explainers):
        burden, nawb, precof = explainers
        return (
            burden.explain(subset.X, subset.sensitive_values),
            nawb.explain(subset.X, subset.y, subset.sensitive_values),
            precof.explain(subset.X, subset.sensitive_values),
        )

    # Independent baseline: each audit builds a private session around its
    # own generator and pays for its own engine pass.
    independent_explainers = build_explainers()
    independent = run_audits(independent_explainers)
    independent_calls = sum(e.session.predict_call_count for e in independent_explainers)

    shared_session = AuditSession(_generator(model, train, constraints))
    shared = benchmark.pedantic(
        lambda: run_audits(build_explainers(shared_session)), rounds=1, iterations=1,
    )

    # Identical audit numbers ...
    assert shared[0].gap == independent[0].gap
    assert shared[1].gap == independent[1].gap
    assert shared[2].frequency_gap == independent[2].frequency_gap

    # ... at strictly fewer predict calls (the acceptance criterion).
    shared_calls = shared_session.predict_call_count
    assert 0 < shared_calls < independent_calls, (
        f"shared session: {shared_calls} calls, independent: {independent_calls}"
    )
    stats = shared_session.stats()
    # Genuine cross-audit reuse happened (NAWB's false negatives and PreCoF's
    # negatives were served from burden's pass).
    assert stats["n_results_reused"] > 0
    record(benchmark, {
        "independent_predict_calls": independent_calls,
        "shared_predict_calls": shared_calls,
        "sharing_factor": independent_calls / max(shared_calls, 1),
        "counterfactual_results_reused": stats["n_results_reused"],
        "prediction_cache_hits": stats["predict_cache_hits"],
    }, adapter=shared_session, experiment="SESSION")

