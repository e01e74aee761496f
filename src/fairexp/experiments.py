"""Declarative experiment specs for the paper's display items and per-method claims.

Each experiment id (FIG1/FIG2/TAB1 and E1–E14 from DESIGN.md) is a
:class:`~fairexp.sweep.SweepSpec` registered with
:class:`~fairexp.sweep.SweepRegistry`: the spec names the parameterized
workload implementation (:mod:`fairexp.workloads`), its fixed arguments,
and the :class:`~fairexp.sweep.Factor` s it crosses — counterfactual
explainer × search schedule × predict backend for E1/E2, model family ×
backend for E4, dataset for E14, and so on.  The planner prunes infeasible
cells through the explainer registry's structured compatibility checks
plus declared resources (a gradient-based generator over a model without
gradients, a remote backend for an unservable workload), so a spec's cross
product is safe to enumerate blindly: ``python -m fairexp sweep plan``
shows exactly which cells run and why the rest don't.

**Every factor's first level reproduces the historical hard-coded run bit
for bit** — ``SweepRegistry.get("E5").cell().spec.runner(**cell.params())``
computes exactly what ``run_e5_group_counterfactuals()`` always did, which
``tests/core/test_sweep_parity.py`` asserts for all experiments.

The legacy ``run_*`` functions are re-exported from
:mod:`fairexp.workloads` unchanged (same names, signatures and defaults)
for API stability; ``ALL_EXPERIMENTS`` is now *derived* from the spec
registry instead of being a second hand-maintained list.
"""

from __future__ import annotations

from .sweep import Factor, SweepRegistry, SweepSpec
from .workloads import (
    run_e1_e2_burden_nawb,
    run_e3_precof,
    run_e4_facts,
    run_e5_group_counterfactuals,
    run_e6_causal_recourse,
    run_e7_fair_recourse,
    run_e8_fairness_shap,
    run_e9_data_explanations,
    run_e10_recsys,
    run_e11_ranking,
    run_e12_graphs,
    run_e13_contrastive,
    run_e14_mitigation,
    run_fig1_taxonomy,
    run_fig2_taxonomy,
    run_table1,
)

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
    "ALL_EXPERIMENTS",
]


# --------------------------------------------------------------------------
# Shared factor builders
# --------------------------------------------------------------------------
#: What the loan/adult tabular workloads offer the planner: the audited
#: LogisticRegression exposes predictions, probabilities and input
#: gradients, and the datasets carry labels + per-feature specs.
_TABULAR_MODEL = ("predict", "predict_proba", "gradient_input")
_TABULAR_DATA = ("labels", "feature-specs")

#: Resources the servable tabular workloads provide.  ``"servable"`` gates
#: the onnx/remote backend levels (every E1–E9 model family exports to a
#: compute graph).
_SERVABLE = frozenset({"servable"})


def _backend_factor() -> Factor:
    return Factor(
        "backend",
        levels=(("numpy", "numpy"), ("onnx", "onnx"), ("remote", "remote")),
        requires={"onnx": ("servable",), "remote": ("servable",)},
    )


def _schedule_factor() -> Factor:
    # The geometric default travels as ``schedule=None`` (the session's
    # built-in ladder) so the default cell matches the legacy runs exactly.
    return Factor("schedule", levels=(("geometric", None), ("adaptive", "adaptive")))


def _explainer_factor() -> Factor:
    return Factor(
        "explainer",
        levels=(("growing_spheres", "growing_spheres"),
                ("random_search", "random_search"),
                ("gradient", "gradient")),
        registry=True,
        capability="counterfactual-generator",
    )


def _spec(**kwargs) -> SweepSpec:
    return SweepRegistry.register(SweepSpec(**kwargs))


# --------------------------------------------------------------------------
# Display items: single-cell designs
# --------------------------------------------------------------------------
_spec(experiment="FIG1", runner=run_fig1_taxonomy,
      description="Figure 1: fairness taxonomy regeneration")
_spec(experiment="FIG2", runner=run_fig2_taxonomy,
      description="Figure 2: explanation taxonomy + registry coverage")
_spec(experiment="TAB1", runner=run_table1,
      description="Table I: method comparison table, implementation audit")

# --------------------------------------------------------------------------
# E1–E9: counterfactual/recourse audits over the tabular loan workloads
# --------------------------------------------------------------------------
_spec(
    experiment="E1/E2", runner=run_e1_e2_burden_nawb,
    factors=(_explainer_factor(), _schedule_factor(), _backend_factor()),
    fixed={"n_samples": 600, "audit_size": 80},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    resources=_SERVABLE,
    description="Burden + NAWB on biased vs fair loan models",
)
_spec(
    experiment="E3", runner=run_e3_precof,
    factors=(_schedule_factor(), _backend_factor()),
    fixed={"n_samples": 600, "audit_size": 80},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    resources=_SERVABLE,
    description="PreCoF explicit/implicit bias, two-model fleet",
)
_spec(
    experiment="E4", runner=run_e4_facts,
    factors=(Factor("model", levels=(("logistic", "logistic"), ("tree", "tree"),
                                     ("forest", "forest"), ("mlp", "mlp"))),
             _backend_factor()),
    fixed={"n_samples": 700},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    resources=_SERVABLE,
    description="FACTS subgroup recourse audit across model families",
)
_spec(
    experiment="E5", runner=run_e5_group_counterfactuals,
    factors=(_schedule_factor(), _backend_factor()),
    fixed={"n_samples": 600},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    resources=_SERVABLE,
    description="GLOBE-CE + CF trees + recourse sets + generator ablation",
)
_spec(
    experiment="E6", runner=run_e6_causal_recourse,
    factors=(_backend_factor(),),
    fixed={"n_samples": 500, "audit_size": 12},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA + ("scm",),
    resources=_SERVABLE,
    description="Causal recourse cost vs independent manipulation (SCM)",
)
_spec(
    experiment="E7", runner=run_e7_fair_recourse,
    factors=(_backend_factor(),),
    fixed={"n_samples": 600},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    resources=_SERVABLE,
    description="Recourse gap report + causal recourse fairness",
)
_spec(
    experiment="E8", runner=run_e8_fairness_shap,
    factors=(_backend_factor(),),
    fixed={"n_samples": 600, "audit_size": 120},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    resources=_SERVABLE,
    description="Fairness-Shapley + causal path decomposition",
)
_spec(
    experiment="E9", runner=run_e9_data_explanations,
    factors=(_backend_factor(),),
    fixed={"n_samples": 600},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    resources=_SERVABLE,
    description="Gopher data-based explanations (+ backend export parity)",
)

# --------------------------------------------------------------------------
# E10–E14: other modalities and the mitigation ladder
# --------------------------------------------------------------------------
_spec(
    experiment="E10", runner=run_e10_recsys,
    fixed={"n_users": 60, "n_items": 35},
    modality="recsys", model_provides=("predict", "recommend_all"),
    description="CEF + CFairER + edge removal on exposure bias",
)
_spec(
    experiment="E11", runner=run_e11_ranking,
    fixed={"n_candidates": 200},
    modality="ranking", model_provides=("rank",),
    description="Dexer top-k under-representation",
)
_spec(
    experiment="E12", runner=run_e12_graphs,
    fixed={"n_nodes": 90},
    modality="graph", model_provides=("predict", "recommend_all"),
    description="Structural bias + node influence + GNNUERS",
)
_spec(
    experiment="E13", runner=run_e13_contrastive,
    fixed={"n_samples": 600},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    description="Probabilistic contrastive scores before/after mitigation",
)
_spec(
    experiment="E14", runner=run_e14_mitigation,
    factors=(Factor("dataset", levels=(("adult", "adult"), ("loan", "loan"))),),
    fixed={"n_samples": 700},
    model_provides=_TABULAR_MODEL, data_provides=_TABULAR_DATA,
    description="Pre-/in-/post-processing mitigation ladder",
)


#: Derived from the spec registry — one source of truth for "what
#: experiments exist"; the CLI and the trajectory benchmarks key off it.
ALL_EXPERIMENTS = {spec.experiment: spec.runner for spec in SweepRegistry.specs()}
