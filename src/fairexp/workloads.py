"""Parameterized experiment workloads (the runner bodies behind the specs).

Each function here builds one experiment's workload from the synthetic
generators, runs the relevant fairexp components, and returns a flat
dictionary of the numbers the benchmark harness asserts on and that
EXPERIMENTS.md records.  ``n_samples`` scales every workload so the same
code serves both the fast benchmark configuration and larger runs.

These are the *implementations* the declarative layer executes: every
experiment id in :mod:`fairexp.experiments` is a
:class:`~fairexp.sweep.SweepSpec` whose factors (explainer, schedule,
predict backend, model family, dataset) map onto keyword
arguments of one of these functions, and whose defaults reproduce the
historical single-configuration runs bit for bit.  Two sweep hooks thread
through every workload:

* every :class:`~fairexp.explanations.AuditSession` is registered with
  :func:`fairexp.sweep.track_session` (a no-op passthrough outside a
  sweep), so an enclosing sweep cell folds uniform accounting — predict
  calls, engine predict calls, store row hits, pool gauges — out of
  whichever sessions the workload builds;
* the counterfactual-heavy runners (E1–E9) attach the cross-process
  persistent result store resolved by :func:`_experiment_store`: the
  directory an enclosing ``run_sweep(store=...)`` injected, else
  ``$FAIREXP_STORE_DIR``.  A repeated run (a resumed sweep, a CI re-run)
  warm-starts from the matrices a previous process already computed.
  (Generator-less sessions — E4/E6/E7/E8's prediction-sharing ones — have
  no counterfactuals to persist and take no store.)
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .causal import CausalGraph
from .core import (
    BurdenExplainer,
    CausalPathExplainer,
    CausalRecourseExplainer,
    CEFExplainer,
    CFairERExplainer,
    CounterfactualExplanationTree,
    DexerExplainer,
    FACTSExplainer,
    FairnessShapExplainer,
    GNNUERSExplainer,
    GlobeCEExplainer,
    GopherExplainer,
    NAWBExplainer,
    NodeInfluenceExplainer,
    PreCoFExplainer,
    ProbabilisticContrastiveExplainer,
    RecourseSetExplainer,
    StructuralBiasExplainer,
    TABLE_I,
    causal_recourse_fairness,
    explanation_taxonomy,
    fairness_taxonomy,
    implemented_class,
    recourse_gap_report,
    registry_figure2_coverage,
    render_table_i,
    render_taxonomy,
)
from .datasets import make_adult_like, make_loan_dataset, make_scm_loan_dataset
from .exceptions import ValidationError
from .explanations import (
    ActionabilityConstraints,
    AuditSession,
    CoalescingScoringClient,
    CounterfactualStore,
    ExplainerRegistry,
    OnnxExportBackend,
    RemoteScoringBackend,
    ScoringServer,
    export_model,
)
from .fairness import statistical_parity_difference
from .fairness.mitigation import (
    FairLogisticRegression,
    GroupThresholdOptimizer,
    RecourseRegularizedClassifier,
    reweighing_weights,
)
from .graphs import GCNClassifier, make_biased_sbm
from .models import (
    DecisionTreeClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
)
from .ranking import make_ranking_candidates
from .recsys import (
    RecWalkRecommender,
    exposure_disparity,
    make_biased_interactions,
)
from .sweep import active_store_dir, track_session

__all__ = [
    "run_fig1_taxonomy",
    "run_fig2_taxonomy",
    "run_table1",
    "run_e1_e2_burden_nawb",
    "run_e3_precof",
    "run_e4_facts",
    "run_e5_group_counterfactuals",
    "run_e6_causal_recourse",
    "run_e7_fair_recourse",
    "run_e8_fairness_shap",
    "run_e9_data_explanations",
    "run_e10_recsys",
    "run_e11_ranking",
    "run_e12_graphs",
    "run_e13_contrastive",
    "run_e14_mitigation",
]


# --------------------------------------------------------------------------
# Shared workload builders
# --------------------------------------------------------------------------
#: Audited model families for the specs' ``model`` factor.  ``"logistic"``
#: is the historical default (bitwise-identical to the pre-sweep runs);
#: every family here is servable (exports through
#: :func:`~fairexp.explanations.export_model`), so the backend factor
#: crosses with all of them.
MODEL_FAMILIES = {
    "logistic": lambda: LogisticRegression(n_iter=1200, random_state=0),
    "tree": lambda: DecisionTreeClassifier(max_depth=6, random_state=0),
    "forest": lambda: RandomForestClassifier(n_estimators=15, max_depth=6,
                                             random_state=0),
    "mlp": lambda: MLPClassifier(hidden_sizes=(16,), n_epochs=150, random_state=0),
}


def _loan_workload(n_samples: int, *, direct_bias=1.2, recourse_gap=1.0, seed=0,
                   model: str = "logistic"):
    dataset = make_loan_dataset(n_samples, direct_bias=direct_bias, recourse_gap=recourse_gap,
                                random_state=seed)
    train, test = dataset.split(test_size=0.3, random_state=seed + 1)
    if model not in MODEL_FAMILIES:
        raise ValidationError(
            f"model must be one of {sorted(MODEL_FAMILIES)}, got {model!r}"
        )
    fitted = MODEL_FAMILIES[model]().fit(train.X, train.y)
    return dataset, train, test, fitted


def _generator_for(dataset, train, model, *, seed=0, name="growing_spheres"):
    """Build a counterfactual generator resolved from the explainer registry."""
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    generator_cls = ExplainerRegistry.get(name)
    return generator_cls(model, train.X, constraints=constraints, random_state=seed)


@contextmanager
def _serving_fleet(models, backend):
    """Resolve a runner's ``backend`` name for a list of fitted models.

    A context manager yielding one predict backend per model (``None``
    entries for the in-process default): exported
    :class:`~fairexp.explanations.OnnxExportBackend` graphs for
    ``"onnx"``, or — for ``"remote"`` — **one** loopback
    :class:`~fairexp.explanations.ScoringServer` hosting every model's
    compute graph as a fleet, each backend routing its batches by the
    graph's content hash through one shared coalescing client.  This is
    the same serving path a separate ``python -m fairexp serve --graph a
    --graph b`` process runs.  Exiting the block always tears the remote
    server/client down, even when an audit inside raises (exactly the
    scorer-failure path the backend accounting is hardened against).
    """
    if backend in (None, "numpy"):
        yield [None] * len(models)
        return
    if backend == "onnx":
        yield [OnnxExportBackend(model) for model in models]
        return
    if backend == "remote":
        graphs = [export_model(model) for model in models]
        server = ScoringServer(graphs)
        client = CoalescingScoringClient(server.url)
        remotes = [RemoteScoringBackend(client, graph=graph)
                   for graph in graphs]
        try:
            yield remotes
        finally:
            for remote in remotes:
                remote.close()
            client.close()
            server.close()
        return
    raise ValidationError(
        f"backend must be 'numpy', 'onnx' or 'remote', got {backend!r}"
    )


@contextmanager
def _serving_backend(model, backend):
    """Single-model convenience over :func:`_serving_fleet`."""
    with _serving_fleet([model], backend) as backends:
        yield backends[0]


def _experiment_store():
    """The cross-process store the E1–E9 sessions share, or ``None``.

    Resolved per call (not at import time) so tests and CI steps can flip
    ``FAIREXP_STORE_DIR`` between runs.  An enclosing sweep's injected
    store directory (:func:`fairexp.sweep.active_store_dir`) wins over the
    environment — ``run_sweep(store=...)`` must not have to mutate
    process-global state to warm-start its cells.
    """
    directory = active_store_dir()
    if directory is not None:
        return CounterfactualStore.ensure(directory)
    return CounterfactualStore.from_env()


def _session_for(dataset, train, model, *, seed=0, name="growing_spheres", n_jobs=1,
                 schedule=None, predict_backend=None):
    """One shared-pass :class:`AuditSession` per workload: every audit of the
    workload draws counterfactuals and predictions from the same engine +
    backend, so overlapping populations are explained once — and, with
    ``FAIREXP_STORE_DIR`` set, across processes too.  ``schedule`` (a
    :class:`~fairexp.explanations.SearchSchedule` or a name like
    ``"adaptive"``) selects the candidate-search schedule every audit of the
    sweep runs under; ``predict_backend`` (from :func:`_serving_backend`)
    reroutes the sweep's predict batches out of process; sharded passes
    reuse the session's executor pool."""
    return track_session(
        AuditSession(_generator_for(dataset, train, model, seed=seed, name=name),
                     n_jobs=n_jobs, schedule=schedule, backend=predict_backend,
                     store=_experiment_store())
    )


# --------------------------------------------------------------------------
# FIG1 / FIG2 / TAB1
# --------------------------------------------------------------------------
def run_fig1_taxonomy() -> dict:
    """Figure 1: regenerate the fairness taxonomy and report its structure."""
    taxonomy = fairness_taxonomy()
    return {
        "rendered": render_taxonomy(taxonomy),
        "n_nodes": taxonomy.size(),
        "dimensions": [child.name for child in taxonomy.children],
        "n_leaves": len(taxonomy.leaves()),
    }


def run_fig2_taxonomy() -> dict:
    """Figure 2: regenerate the explanation taxonomy and report its structure,
    plus how many registered explainers cover each taxonomy axis value."""
    taxonomy = explanation_taxonomy()
    coverage = registry_figure2_coverage()
    return {
        "rendered": render_taxonomy(taxonomy),
        "n_nodes": taxonomy.size(),
        "dimensions": [child.name for child in taxonomy.children],
        "n_leaves": len(taxonomy.leaves()),
        "n_registered_explainers": coverage["n_registered"],
        "n_registered_local": coverage.get("coverage:local", 0),
        "n_registered_global": coverage.get("coverage:global", 0),
    }


def run_table1() -> dict:
    """Table I: regenerate the comparison table and verify every row is implemented."""

    def is_implemented(entry) -> bool:
        try:
            return implemented_class(entry) is not None
        except KeyError:
            return False

    n = len(TABLE_I)
    resolved = sum(1 for entry in TABLE_I if is_implemented(entry))
    return {
        "rendered": render_table_i(),
        "n_rows": n,
        "n_implemented": resolved,
        "share_post_hoc": sum(e.stage == "Post" for e in TABLE_I) / n,
        "share_black_box": sum(e.access == "B" for e in TABLE_I) / n,
        "share_model_agnostic": sum(e.agnostic == "A" for e in TABLE_I) / n,
        "share_cfe": sum("CFE" in e.explanation_type for e in TABLE_I) / n,
        "share_group_level": sum(e.fairness_level in ("Group", "Both") for e in TABLE_I) / n,
    }


# --------------------------------------------------------------------------
# E1 / E2 — burden and NAWB
# --------------------------------------------------------------------------
def run_e1_e2_burden_nawb(n_samples: int = 600, audit_size: int = 80,
                          n_jobs: int = 1, schedule=None,
                          backend: str = "numpy",
                          explainer: str = "growing_spheres") -> dict:
    """Burden [72] and NAWB [73] on a biased vs. an unbiased loan model.

    Both explainers share one :class:`AuditSession` per workload: burden
    explains the negatively classified members, NAWB's false negatives are a
    subset of those rows, so the sweep costs a single engine pass.  The
    session-wide number of ``model.predict`` invocations is reported per
    workload so the benchmarks can track predict-call reduction;
    ``schedule`` selects the search schedule (``"adaptive"`` issues strictly
    fewer predict calls than the default geometric ladder, asserted in
    ``benchmarks/test_bench_schedules.py``); ``backend`` selects where the
    predict batches run (``"onnx"`` = exported compute graph, ``"remote"``
    = loopback scoring server); ``explainer`` names the registered
    counterfactual generator the shared session draws from.
    """
    results: dict[str, float] = {"predict_backend": backend}
    for label, direct_bias, recourse_gap in (("biased", 1.2, 1.0), ("fair", 0.0, 0.0)):
        dataset, train, test, model = _loan_workload(
            n_samples, direct_bias=direct_bias, recourse_gap=recourse_gap, seed=0
        )
        with _serving_backend(model, backend) as predict_backend, \
                _session_for(dataset, train, model, name=explainer, n_jobs=n_jobs,
                             schedule=schedule,
                             predict_backend=predict_backend) as session:
            subset = test.subset(np.arange(min(audit_size, test.n_samples)))
            burden = BurdenExplainer(session=session).explain(subset.X,
                                                              subset.sensitive_values)
            nawb = NAWBExplainer(session=session).explain(subset.X, subset.y,
                                                          subset.sensitive_values)
            stats = session.stats()
        results[f"burden_gap_{label}"] = burden.gap
        results[f"burden_ratio_{label}"] = burden.ratio
        results[f"nawb_gap_{label}"] = nawb.gap
        results[f"fnr_gap_{label}"] = (
            nawb.protected.false_negative_rate - nawb.reference.false_negative_rate
        )
        results[f"predict_calls_{label}"] = stats["predict_call_count"]
        results[f"engine_predict_calls_{label}"] = stats["engine_predict_calls"]
        results[f"schedule_steps_{label}"] = stats["schedule_steps"]
        results[f"schedule_draws_{label}"] = stats["schedule_draws"]
        results[f"cf_reused_{label}"] = stats["n_results_reused"]
    return results


# --------------------------------------------------------------------------
# E3 — PreCoF
# --------------------------------------------------------------------------
def run_e3_precof(n_samples: int = 600, audit_size: int = 80, schedule=None,
                  backend: str = "numpy") -> dict:
    """PreCoF [71]: explicit bias via sensitive flips, implicit bias via proxies."""
    dataset = make_adult_like(n_samples, direct_bias=1.2, proxy_bias=0.9, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    subset = test.subset(np.arange(min(audit_size, test.n_samples)))

    # Two trained models (explicit vs. blind), one session each (a session
    # pins a frozen model).  With backend="remote" BOTH models' graphs are
    # hosted by ONE fleet server and each session's batches route by graph
    # content hash — the multi-model deployment shape, not a server per
    # model.
    spheres_cls = ExplainerRegistry.get("growing_spheres")
    model_explicit = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y)
    X_train_blind, _ = train.features_without_sensitive()
    X_sub_blind, blind_specs = subset.features_without_sensitive()
    blind_names = [spec.name for spec in blind_specs]
    model_blind = LogisticRegression(n_iter=1200, random_state=0).fit(X_train_blind, train.y)

    with _serving_fleet([model_explicit, model_blind], backend) as \
            (backend_explicit, backend_blind):
        # Explicit analysis: model sees the sensitive attribute,
        # counterfactuals may flip it.
        with track_session(
                AuditSession(spheres_cls(model_explicit, train.X, random_state=0),
                             schedule=schedule, backend=backend_explicit,
                             store=_experiment_store())) as session_explicit:
            explicit = PreCoFExplainer(
                feature_names=dataset.feature_names, sensitive_feature=dataset.sensitive,
                mode="explicit", session=session_explicit,
            ).explain(subset.X, subset.sensitive_values)

        # Implicit analysis: sensitive attribute removed from training
        # (fairness through unawareness); the proxy attribute should
        # surface in the change-frequency gap.
        with track_session(
                AuditSession(spheres_cls(model_blind, X_train_blind, random_state=0),
                             schedule=schedule, backend=backend_blind,
                             store=_experiment_store())) as session_blind:
            implicit = PreCoFExplainer(
                feature_names=blind_names, sensitive_feature=dataset.sensitive,
                mode="implicit", session=session_blind,
            ).explain(X_sub_blind, subset.sensitive_values)
    implicit_top = implicit.implicit_bias_attributes(3)

    return {
        "explicit_sensitive_change_rate": explicit.sensitive_change_rate,
        "explicit_bias_rate": explicit.explicit_bias_rate,
        "implicit_top_attribute": implicit_top[0][0] if implicit_top else "",
        "implicit_top_gap": implicit_top[0][1] if implicit_top else np.nan,
        "proxy_gap": implicit.frequency_gap.get("occupation_score", 0.0),
        "predict_calls_explicit": session_explicit.predict_call_count,
        "predict_calls_implicit": session_blind.predict_call_count,
    }


# --------------------------------------------------------------------------
# E4 — FACTS
# --------------------------------------------------------------------------
def run_e4_facts(n_samples: int = 700, backend: str = "numpy",
                 model: str = "logistic") -> dict:
    """FACTS [77]: equal effectiveness / equal choice of recourse across subgroups.

    ``model`` names the audited model family (:data:`MODEL_FAMILIES`) —
    FACTS only needs ``predict``, so the spec crosses it over every family,
    and each of them is servable, so ``backend`` crosses too.
    """
    dataset, train, test, fitted = _loan_workload(n_samples, model=model)
    # Generator-less session: FACTS never asks for counterfactuals, but its
    # action scoring routes through the session's counting/memoizing adapter
    # (and, with backend= set, out of process).
    with _serving_backend(fitted, backend) as predict_backend:
        session = track_session(AuditSession(model=fitted, backend=predict_backend))
        explainer = FACTSExplainer(session.model, dataset.feature_names,
                                   dataset.sensitive_index, random_state=0)
        result = explainer.explain(test.X, test.sensitive_values)
    top = result.top_biased(3)
    return {
        "global_effectiveness_gap": result.global_audit.effectiveness_gap,
        "global_choice_gap": result.global_audit.choice_gap,
        "global_cost_gap": result.global_audit.cost_gap,
        "n_subgroups_audited": len(result.subgroups),
        "max_subgroup_effectiveness_gap": top[0].effectiveness_gap if top else 0.0,
        "is_fair": result.is_fair(),
        "predict_calls": session.predict_call_count,
    }


# --------------------------------------------------------------------------
# E5 — group counterfactuals (GLOBE-CE, CF trees, recourse sets) + CF ablation
# --------------------------------------------------------------------------
def run_e5_group_counterfactuals(n_samples: int = 600, schedule=None,
                                 backend: str = "numpy") -> dict:
    """GLOBE-CE [75], CF trees [76] and recourse sets [74] + CF search ablation."""
    dataset, train, test, model = _loan_workload(n_samples)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    # One session per workload: GLOBE-CE, the CF tree and the recourse set all
    # score candidates through the same counting/memoizing adapter.
    with _serving_backend(model, backend) as predict_backend, \
            _session_for(dataset, train, model, schedule=schedule,
                         predict_backend=predict_backend) as session:

        globe = GlobeCEExplainer(feature_names=dataset.feature_names, random_state=0,
                                 session=session).explain(test.X, test.sensitive_values)

        facts = FACTSExplainer(session.model, dataset.feature_names, dataset.sensitive_index,
                               random_state=0)
        actions = facts._candidate_actions(train.X, session.predict(train.X))
        tree = CounterfactualExplanationTree(session.model, actions,
                                             feature_names=dataset.feature_names,
                                             max_depth=2).fit(test.X)
        tree_audit = tree.audit(test.X, test.sensitive_values)
        recourse_set = RecourseSetExplainer(
            candidate_actions=actions, feature_names=dataset.feature_names,
            sensitive_index=dataset.sensitive_index, session=session,
        ).explain(test.X, test.sensitive_values)

        # Ablation: every *compatible* counterfactual search strategy (distance and
        # sparsity of the CFs), auto-selected through the registry's structured
        # compatibility check instead of a hard-coded list + try/except.
        ablation: dict[str, float] = {}
        rejected = test.X[session.predict(test.X) == 0][:20]
        for entry in ExplainerRegistry.compatible(capability="counterfactual-generator",
                                                  model=model, dataset=dataset):
            generator = entry.obj(model, train.X, constraints=constraints, random_state=0)
            counterfactuals = generator.generate_batch(rejected)
            ablation[f"cf_{entry.name}_mean_distance"] = (
                float(np.mean([c.distance for c in counterfactuals])) if counterfactuals else np.inf
            )
            ablation[f"cf_{entry.name}_mean_sparsity"] = (
                float(np.mean([c.sparsity() for c in counterfactuals])) if counterfactuals else 0.0
            )
            ablation[f"cf_{entry.name}_coverage"] = len(counterfactuals) / max(len(rejected), 1)

    return {
        "globe_cost_gap": globe.cost_gap,
        "globe_coverage_gap": globe.coverage_gap,
        "cftree_n_leaves": tree_audit.n_leaves,
        "cftree_validity": tree_audit.overall_validity,
        "cftree_validity_gap": tree_audit.validity_gap,
        "recourse_set_n_rules": len(recourse_set.rules),
        "recourse_set_coverage": recourse_set.total_coverage,
        "recourse_set_coverage_gap": recourse_set.coverage_gap,
        "predict_calls": session.predict_call_count,
        **ablation,
    }


# --------------------------------------------------------------------------
# E6 — actionable recourse over an SCM
# --------------------------------------------------------------------------
def run_e6_causal_recourse(n_samples: int = 500, audit_size: int = 12,
                           backend: str = "numpy") -> dict:
    """Actionable recourse [65]: SCM-intervention cost vs independent manipulation cost."""
    dataset, scm = make_scm_loan_dataset(n_samples, random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1000, random_state=0).fit(train.X, train.y)
    # Generator-less session: the flipset grid search repeats many small
    # intervention matrices, which the session's memoizing backend coalesces.
    with _serving_backend(model, backend) as predict_backend:
        session = track_session(AuditSession(model=model, backend=predict_backend))
        # The SCM travels on the dataset, so the causal explainer is
        # auto-selected through the registry's declared data requirements
        # instead of being hard-coded: only SCM-carrying datasets offer it.
        causal_entries = {
            entry.name
            for entry in ExplainerRegistry.compatible(capability="causal",
                                                      model=model, dataset=train)
        }
        explainer_cls = ExplainerRegistry.get("causal_recourse")
        explainer = explainer_cls(
            session.model, scm, dataset.feature_names,
            actionable=["education", "income", "savings"],
            scales={"education": 2.0, "income": 10.0, "savings": 5.0},
            value_ranges={"education": (4, 20), "income": (5, 200),
                          "savings": (0, 100)},
            grid_size=6,
        )
        rejected = test.X[session.predict(test.X) == 0][:audit_size]
        causal_costs, independent_costs = [], []
        for row in rejected:
            causal_costs.append(explainer.recourse_cost(row))
            independent_costs.append(explainer.independent_manipulation_cost(row))
    causal_costs = np.asarray(causal_costs)
    independent_costs = np.asarray(independent_costs)
    finite = np.isfinite(causal_costs) & np.isfinite(independent_costs)
    return {
        "n_audited": int(finite.sum()),
        "mean_causal_cost": float(causal_costs[finite].mean()),
        "mean_independent_cost": float(independent_costs[finite].mean()),
        "mean_saving": float((independent_costs[finite] - causal_costs[finite]).mean()),
        "fraction_strictly_cheaper": float(
            np.mean(independent_costs[finite] - causal_costs[finite] > 1e-9)
        ),
        "n_causal_explainers_selected": len(causal_entries),
        "causal_recourse_auto_selected": "causal_recourse" in causal_entries,
        "predict_calls": session.predict_call_count,
    }


# --------------------------------------------------------------------------
# E7 — fair recourse (distance-based + causal)
# --------------------------------------------------------------------------
def run_e7_fair_recourse(n_samples: int = 600, backend: str = "numpy") -> dict:
    """Equalizing recourse [79] and fair causal recourse [80]."""
    dataset, train, test, model = _loan_workload(n_samples)
    # Generator-less session: prediction sharing only (no counterfactuals
    # to persist, so no store is attached).
    with _serving_backend(model, backend) as predict_backend:
        base_session = track_session(AuditSession(model=model, backend=predict_backend))
        base_report = recourse_gap_report(X=test.X, sensitive=test.sensitive_values,
                                          session=base_session)

    regularized = RecourseRegularizedClassifier(recourse_weight=3.0, n_iter=1200,
                                                random_state=0).fit(
        train.X, train.y, sensitive=train.sensitive_values
    )
    regularized_report = recourse_gap_report(regularized, test.X, test.sensitive_values)

    scm_dataset, scm = make_scm_loan_dataset(400, random_state=0)
    scm_train, scm_test = scm_dataset.split(test_size=0.3, random_state=1)
    scm_model = LogisticRegression(n_iter=800, random_state=0).fit(scm_train.X, scm_train.y)
    causal_explainer = CausalRecourseExplainer(
        scm_model, scm, scm_dataset.feature_names,
        actionable=["education", "income", "savings"],
        scales={"education": 2.0, "income": 10.0, "savings": 5.0},
        value_ranges={"education": (4, 20), "income": (5, 200), "savings": (0, 100)},
        grid_size=5,
    )
    causal = causal_recourse_fairness(causal_explainer, scm, scm_test.X,
                                      sensitive_variable="group", max_individuals=8,
                                      random_state=0)
    return {
        "recourse_gap_base": base_report.gap,
        "recourse_gap_regularized": regularized_report.gap,
        "accuracy_base": model.score(test.X, test.y),
        "accuracy_regularized": regularized.score(test.X, test.y),
        "causal_recourse_unfairness": causal.mean_unfairness,
        "causal_fraction_disadvantaged": causal.fraction_disadvantaged,
        "predict_calls_base": base_session.predict_call_count,
    }


# --------------------------------------------------------------------------
# E8 — fairness Shapley + causal path decomposition
# --------------------------------------------------------------------------
def run_e8_fairness_shap(n_samples: int = 600, audit_size: int = 120,
                         backend: str = "numpy") -> dict:
    """Fairness-Shapley decomposition [81] and causal path decomposition [82]."""
    dataset, train, test, model = _loan_workload(n_samples)
    subset = test.subset(np.arange(min(audit_size, test.n_samples)))

    # The exact and sampled Shapley passes evaluate many identical coalition
    # matrices; one generator-less session memoizes them across both runs.
    with _serving_backend(model, backend) as predict_backend:
        session = track_session(AuditSession(model=model, backend=predict_backend))
        exact = FairnessShapExplainer(session.model, train.X[:80],
                                      feature_names=dataset.feature_names,
                                      method="exact", n_background=8,
                                      random_state=0).explain(
            subset.X, subset.sensitive_values
        )
        sampled = FairnessShapExplainer(session.model, train.X[:80],
                                        feature_names=dataset.feature_names,
                                        method="sampling", n_permutations=60,
                                        n_background=8, random_state=0).explain(
            subset.X, subset.sensitive_values)
        sampling_error = float(np.max(np.abs(exact.values - sampled.values)))

    scm_dataset, scm = make_scm_loan_dataset(500, random_state=0)
    scm_train, scm_test = scm_dataset.split(test_size=0.3, random_state=1)
    scm_model = LogisticRegression(n_iter=800, random_state=0).fit(scm_train.X, scm_train.y)
    graph = CausalGraph([("group", "education"), ("group", "income"),
                         ("education", "income"), ("income", "savings")])
    decomposition = CausalPathExplainer(scm_model, graph, sensitive="group",
                                        feature_order=scm_dataset.feature_names).explain(
        scm_test.X
    )
    top_path = decomposition.ranked()[0]
    return {
        "parity_gap": exact.meta["metric_full_model"],
        "shap_attribution_sum": float(exact.values.sum()),
        "shap_efficiency_gap": float(exact.meta["efficiency_gap"]),
        "shap_sensitive_share": exact.as_dict()["group"],
        "shap_sampling_max_error": sampling_error,
        "path_total_disparity": decomposition.total_disparity,
        "path_explained_fraction": decomposition.explained_fraction(),
        "path_top": " -> ".join(top_path.path),
        "path_top_contribution": top_path.contribution,
    }


# --------------------------------------------------------------------------
# E9 — data-based explanations (Gopher)
# --------------------------------------------------------------------------
def run_e9_data_explanations(n_samples: int = 600, backend: str = "numpy") -> dict:
    """Gopher [63, 83]: returned pattern reduces unfairness more than random patterns."""
    dataset = make_adult_like(n_samples, direct_bias=1.2, proxy_bias=0.8, random_state=0)
    factory = lambda: LogisticRegression(n_iter=500, random_state=0)  # noqa: E731
    explainer = GopherExplainer(factory, feature_names=dataset.feature_names,
                                min_support=0.1, top_k=5)
    result = explainer.explain(dataset.X, dataset.y, dataset.sensitive_values)
    best = result.patterns[0]

    # Gopher's search refits the factory model per candidate pattern, so the
    # refit loop itself stays in-process; the requested backend is still
    # exercised (and its export verified bitwise) against the factory model
    # fitted on the full workload — E9's model family must stay servable.
    backend_parity = True
    if backend not in (None, "numpy"):
        reference = factory().fit(dataset.X, dataset.y)
        with _serving_backend(reference, backend) as predict_backend:
            backend_parity = bool(
                np.array_equal(predict_backend.predict(dataset.X),
                               reference.predict(dataset.X))
            )

    # Baseline: mean reduction over all candidate patterns (proxy for a random pattern).
    all_reductions = [pattern.unfairness_reduction for pattern in result.patterns]
    return {
        "predict_backend": backend,
        "backend_parity": backend_parity,
        "baseline_unfairness": result.baseline_unfairness,
        "best_pattern": best.describe(),
        "best_reduction": best.unfairness_reduction,
        "best_support": best.support,
        "mean_topk_reduction": float(np.mean(all_reductions)),
        "verified_new_unfairness": explainer.verify_pattern(
            dataset.X, dataset.y, dataset.sensitive_values, best
        ),
    }


# --------------------------------------------------------------------------
# E10 — recommendation fairness explanations
# --------------------------------------------------------------------------
def run_e10_recsys(n_users: int = 60, n_items: int = 35) -> dict:
    """CEF [87], CFairER [86] and edge-removal [84] explanations of exposure bias."""
    rng = np.random.default_rng(0)
    interactions = make_biased_interactions(n_users, n_items, popularity_bias=2.5,
                                            random_state=0)
    recommender = RecWalkRecommender(n_steps=15).fit(interactions)
    recommendations = recommender.recommend_all(5)
    base_disparity = exposure_disparity(recommendations, interactions.item_groups)

    item_attributes = (rng.random((n_items, 5)) < 0.3).astype(float)
    item_attributes[:, 0] = (interactions.item_groups == 0).astype(float)
    holdout = (rng.random(interactions.matrix.shape) < 0.1).astype(float)

    cef = CEFExplainer(recommender, item_attributes, holdout, k=5).explain()
    cfairer = CFairERExplainer(recommender, item_attributes, k=5, max_attributes=2).explain()
    from .core import EdgeRemovalExplainer

    edge = EdgeRemovalExplainer(recommender, k=5, max_edges=15, random_state=0)
    edge_explanations = edge.explain_group_exposure()
    best_edge = edge_explanations[0]
    return {
        "base_exposure_disparity": base_disparity,
        "cef_top_feature": cef.ranked()[0][0],
        "cef_top_fairness_gain": float(cef.fairness_gain.max()),
        "cfairer_improvement": cfairer.improvement,
        "cfairer_n_attributes": len(cfairer.selected_attributes),
        "edge_best_exposure_change": best_edge.exposure_change,
    }


# --------------------------------------------------------------------------
# E11 — ranking explanations (Dexer)
# --------------------------------------------------------------------------
def run_e11_ranking(n_candidates: int = 200) -> dict:
    """Dexer [88]: detect and explain under-representation in the top-k."""
    candidates, ranker = make_ranking_candidates(n_candidates, score_penalty=1.5,
                                                 random_state=0)
    explainer = DexerExplainer(ranker, k=20, n_permutations=40, random_state=0)
    result = explainer.explain(candidates)
    unbiased_candidates, unbiased_ranker = make_ranking_candidates(
        n_candidates, score_penalty=0.0, random_state=1
    )
    unbiased_detection = DexerExplainer(unbiased_ranker, k=20, random_state=0).detect(
        unbiased_candidates
    )
    return {
        "representation_gap": result.detection.representation_gap,
        "detection_p_value": result.detection.p_value,
        "top_attribute": result.top_attributes(1)[0][0],
        "top_attribute_shap_gap": result.top_attributes(1)[0][1],
        "unbiased_p_value": unbiased_detection.p_value,
    }


# --------------------------------------------------------------------------
# E12 — graph explanations
# --------------------------------------------------------------------------
def run_e12_graphs(n_nodes: int = 90) -> dict:
    """Structural bias edge sets [89], node influence [90], GNNUERS [91]."""
    rng = np.random.default_rng(0)
    graph = make_biased_sbm(n_nodes, random_state=0)
    gcn = GCNClassifier(n_epochs=120, random_state=0).fit(graph)
    base_bias = abs(gcn.soft_statistical_parity(graph))

    structural = StructuralBiasExplainer(gcn, graph, max_edges=12, top_k=3)
    explanation = structural.explain_node(0)
    # Compare against removing the same number of random edges.
    random_edges = [graph.edges()[i] for i in
                    rng.choice(len(graph.edges()), size=max(len(explanation.bias_edges), 1),
                               replace=False)]
    random_bias = abs(gcn.soft_statistical_parity(graph.remove_edges(random_edges)))

    influence = NodeInfluenceExplainer(
        lambda: GCNClassifier(n_epochs=60, random_state=0), graph
    ).explain(max_nodes=8, random_state=0)
    top_influence = influence.most_bias_inducing(1)[0][1]

    interactions = make_biased_interactions(40, 25, random_state=0)
    recommender = RecWalkRecommender(n_steps=10).fit(interactions)
    holdout = (rng.random(interactions.matrix.shape) < 0.1).astype(float)
    gnnuers = GNNUERSExplainer(recommender, holdout, k=5, max_removals=2,
                               candidate_edges=10, random_state=0).explain()
    return {
        "gcn_statistical_parity": gcn.statistical_parity(graph),
        "base_soft_bias": base_bias,
        "bias_after_explained_edges": explanation.bias_after_removal,
        "bias_after_random_edges": random_bias,
        "explained_beats_random": explanation.bias_after_removal <= random_bias + 1e-12,
        "top_node_influence": top_influence,
        "gnnuers_base_gap": gnnuers.base_gap,
        "gnnuers_final_gap": gnnuers.final_gap,
    }


# --------------------------------------------------------------------------
# E13 — probabilistic contrastive counterfactuals
# --------------------------------------------------------------------------
def run_e13_contrastive(n_samples: int = 600) -> dict:
    """Probabilistic contrastive counterfactuals [10] before and after mitigation."""
    dataset, train, test, model = _loan_workload(n_samples)
    explainer = ProbabilisticContrastiveExplainer(model, dataset.feature_names,
                                                  dataset.sensitive_index)
    biased_scores = explainer.explain_sensitive(test.X)

    mitigated = FairLogisticRegression(fairness_weight=5.0, n_iter=1200, random_state=0).fit(
        train.X, train.y, sensitive=train.sensitive_values
    )
    mitigated_explainer = ProbabilisticContrastiveExplainer(
        mitigated, dataset.feature_names, dataset.sensitive_index
    )
    mitigated_scores = mitigated_explainer.explain_sensitive(test.X)
    ranking = explainer.rank_attributes(test.X)
    return {
        "sensitive_necessity_biased": biased_scores.necessity,
        "sensitive_sufficiency_biased": biased_scores.sufficiency,
        "sensitive_necessity_mitigated": mitigated_scores.necessity,
        "top_ranked_attribute": ranking[0].attribute,
        "top_attribute_sufficiency": ranking[0].scores.sufficiency,
    }


# --------------------------------------------------------------------------
# E14 — mitigation stages
# --------------------------------------------------------------------------
def run_e14_mitigation(n_samples: int = 700, dataset: str = "adult") -> dict:
    """Pre- / in- / post-processing mitigation, on the adult-like or loan dataset.

    ``dataset`` selects the workload the mitigation ladder runs on:
    ``"adult"`` (the historical default) or ``"loan"`` — both carry the
    sensitive column and labels the three mitigation stages need.
    """
    if dataset == "adult":
        data = make_adult_like(n_samples, direct_bias=1.2, proxy_bias=0.8, random_state=0)
    elif dataset == "loan":
        data = make_loan_dataset(n_samples, direct_bias=1.2, recourse_gap=1.0,
                                 random_state=0)
    else:
        raise ValidationError(
            f"dataset must be 'adult' or 'loan', got {dataset!r}"
        )
    train, test = data.split(test_size=0.3, random_state=1)
    base = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y)

    def spd(model_like, predictions=None):
        predicted = predictions if predictions is not None else model_like.predict(test.X)
        return statistical_parity_difference(predicted, test.sensitive_values)

    weights = reweighing_weights(train.y, train.sensitive_values)
    pre = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y,
                                                              sample_weight=weights)
    inproc = FairLogisticRegression(fairness_weight=5.0, n_iter=1200, random_state=0).fit(
        train.X, train.y, sensitive=train.sensitive_values
    )
    optimizer = GroupThresholdOptimizer().fit(
        base.predict_proba(train.X)[:, 1], train.y, train.sensitive_values
    )
    post_predictions = optimizer.predict(base.predict_proba(test.X)[:, 1],
                                         test.sensitive_values)
    return {
        "spd_baseline": spd(base),
        "spd_preprocessing": spd(pre),
        "spd_inprocessing": spd(inproc),
        "spd_postprocessing": spd(None, post_predictions),
        "accuracy_baseline": base.score(test.X, test.y),
        "accuracy_preprocessing": pre.score(test.X, test.y),
        "accuracy_inprocessing": inproc.score(test.X, test.y),
        "accuracy_postprocessing": float(np.mean(post_predictions == test.y)),
    }
