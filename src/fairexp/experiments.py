"""Declarative experiment specs for the paper's display items and per-method claims.

Each experiment id (FIG1/FIG2/TAB1 and E1–E14 from DESIGN.md) is a
:class:`~fairexp.sweep.SweepSpec` registered with
:class:`~fairexp.sweep.SweepRegistry`: the spec names the parameterized
workload implementation (:mod:`fairexp.workloads`), its fixed arguments,
and the :class:`~fairexp.sweep.Factor` s it crosses — counterfactual
explainer × search schedule × predict backend for E1/E2, model family ×
backend for E4, dataset for E14, and so on.  Every level of every factor
is feasible for its workload (each E1–E9 model family exports to a compute
graph, and every E1/E2 explainer level is a registered counterfactual
generator), so a spec's cells are its full cross product:
``python -m fairexp sweep plan`` lists exactly the cells that run.

**Every factor's first level reproduces the historical hard-coded run bit
for bit** — ``SweepRegistry.get("E5").cell().params()`` are exactly the
signature defaults of ``run_e5_group_counterfactuals``.  A cell's results
do not depend on its ``backend`` level, the shard count (``n_jobs``) or a
warm store: ``tests/test_invariance.py`` builds that matrix from the
registry and compares every result key bitwise except the accounting keys
(``predict_calls*``, ``engine_predict_calls*``, ``schedule_steps*``,
``schedule_draws*``, ``cf_reused*``, ``predict_backend``).

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
def _backend_factor() -> Factor:
    return Factor(
        "backend",
        levels=(("numpy", "numpy"), ("onnx", "onnx"), ("remote", "remote")),
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
    description="Burden + NAWB on biased vs fair loan models",
)
_spec(
    experiment="E3", runner=run_e3_precof,
    factors=(_schedule_factor(), _backend_factor()),
    fixed={"n_samples": 600, "audit_size": 80},
    description="PreCoF explicit/implicit bias, two-model fleet",
)
_spec(
    experiment="E4", runner=run_e4_facts,
    factors=(Factor("model", levels=(("logistic", "logistic"), ("tree", "tree"),
                                     ("forest", "forest"), ("mlp", "mlp"))),
             _backend_factor()),
    fixed={"n_samples": 700},
    description="FACTS subgroup recourse audit across model families",
)
_spec(
    experiment="E5", runner=run_e5_group_counterfactuals,
    factors=(_schedule_factor(), _backend_factor()),
    fixed={"n_samples": 600},
    description="GLOBE-CE + CF trees + recourse sets + generator ablation",
)
_spec(
    experiment="E6", runner=run_e6_causal_recourse,
    factors=(_backend_factor(),),
    fixed={"n_samples": 500, "audit_size": 12},
    description="Causal recourse cost vs independent manipulation (SCM)",
)
_spec(
    experiment="E7", runner=run_e7_fair_recourse,
    factors=(_backend_factor(),),
    fixed={"n_samples": 600},
    description="Recourse gap report + causal recourse fairness",
)
_spec(
    experiment="E8", runner=run_e8_fairness_shap,
    factors=(_backend_factor(),),
    fixed={"n_samples": 600, "audit_size": 120},
    description="Fairness-Shapley + causal path decomposition",
)
_spec(
    experiment="E9", runner=run_e9_data_explanations,
    factors=(_backend_factor(),),
    fixed={"n_samples": 600},
    description="Gopher data-based explanations (+ backend export parity)",
)

# --------------------------------------------------------------------------
# E10–E14: other modalities and the mitigation ladder
# --------------------------------------------------------------------------
_spec(
    experiment="E10", runner=run_e10_recsys,
    fixed={"n_users": 60, "n_items": 35},
    description="CEF + CFairER + edge removal on exposure bias",
)
_spec(
    experiment="E11", runner=run_e11_ranking,
    fixed={"n_candidates": 200},
    description="Dexer top-k under-representation",
)
_spec(
    experiment="E12", runner=run_e12_graphs,
    fixed={"n_nodes": 90},
    description="Structural bias + node influence + GNNUERS",
)
_spec(
    experiment="E13", runner=run_e13_contrastive,
    fixed={"n_samples": 600},
    description="Probabilistic contrastive scores before/after mitigation",
)
_spec(
    experiment="E14", runner=run_e14_mitigation,
    factors=(Factor("dataset", levels=(("adult", "adult"), ("loan", "loan"))),),
    fixed={"n_samples": 700},
    description="Pre-/in-/post-processing mitigation ladder",
)


#: Derived from the spec registry — one source of truth for "what
#: experiments exist"; the CLI and the trajectory benchmarks key off it.
ALL_EXPERIMENTS = {spec.experiment: spec.runner for spec in SweepRegistry.specs()}
