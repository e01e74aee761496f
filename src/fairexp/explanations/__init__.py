"""General-purpose XAI substrate (the methods of the paper's Figure 2 taxonomy).

Feature-based (Shapley, permutation importance, PDP/ICE), example-based
(counterfactuals, prototypes, neighbours, influence, contrastive) and
approximation-based (local surrogates, global surrogate trees, anchors)
explanation methods, all operating on the from-scratch models in
:mod:`fairexp.models` or on any object exposing ``predict``/``predict_proba``.

The counterfactual hot path is layered session → engine → backend → store:
:class:`AuditSession` (``session.py``) shares each population's
counterfactual matrix across audits, :class:`CounterfactualEngine`
(``engine.py``) batches and shards the search (threads or processes,
GIL-aware), the :class:`PredictBackend` protocol (``backends.py``)
dispatches the coalesced predict batches (vectorized NumPy by default;
memoizing / ONNX / remote backends behind the same counting interface), and
:class:`CounterfactualStore` (``store.py``) persists each population's
results across processes under a (population, model, config) fingerprint.
See ``docs/architecture.md`` and ``docs/api/`` for the full reference.
"""

from .base import (
    CompatibilityCheck,
    Counterfactual,
    CounterfactualBatch,
    ExampleExplanation,
    ExplainerInfo,
    ExplainerRegistry,
    FeatureAttribution,
    RegisteredExplainer,
    RuleExplanation,
)
from .counterfactual import (
    ActionabilityConstraints,
    BaseCounterfactualGenerator,
    GradientCounterfactual,
    GrowingSpheresCounterfactual,
    RandomSearchCounterfactual,
    counterfactual_distance,
)
from .backends import (
    CallablePredictBackend,
    MemoizingPredictBackend,
    NumpyPredictBackend,
    PredictBackend,
    ensure_backend,
)
from .engine import BatchModelAdapter, CounterfactualEngine, generator_config, shard_indices
from .kernels import (
    KernelSet,
    batch_counterfactual_distance,
    build_prefix_revert_trials,
    project_candidates,
    rank_changed_features,
    resolve_kernels,
)
from .pool import ExecutorPool
from .serving import (
    CoalescingScoringClient,
    ComputeGraph,
    OnnxExportBackend,
    RemoteScoringBackend,
    ScoringServer,
    export_model,
    serve_fleet,
)
from .schedules import (
    AdaptiveSchedule,
    GeometricSchedule,
    SearchSchedule,
    resolve_schedule,
)
from .session import AuditSession
from .store import CounterfactualStore, model_signature, population_fingerprint
from .examples import (
    ExampleBasedExplainer,
    contrastive_example,
    nearest_neighbor_explanation,
    select_criticisms,
    select_prototypes,
)
from .feature_importance import (
    PermutationImportanceExplainer,
    individual_conditional_expectation,
    partial_dependence,
    permutation_importance,
)
from .influence import (
    InfluenceExplainer,
    influence_functions_logistic,
    leave_one_out_influence,
    logistic_gradients,
    logistic_hessian,
)
from .rules import (
    AnchorExplainer,
    Predicate,
    discretize_features,
    frequent_predicate_sets,
)
from .shapley import (
    ShapleyExplainer,
    exact_shapley_values,
    sampled_shapley_values,
    shapley_for_value_function,
)
from .surrogate import GlobalSurrogateTree, LocalSurrogateExplainer

__all__ = [
    "ExplainerInfo",
    "ExplainerRegistry",
    "RegisteredExplainer",
    "CompatibilityCheck",
    "AuditSession",
    "BatchModelAdapter",
    "CounterfactualEngine",
    "CounterfactualStore",
    "ExecutorPool",
    "SearchSchedule",
    "GeometricSchedule",
    "AdaptiveSchedule",
    "resolve_schedule",
    "generator_config",
    "model_signature",
    "population_fingerprint",
    "PredictBackend",
    "NumpyPredictBackend",
    "CallablePredictBackend",
    "MemoizingPredictBackend",
    "ensure_backend",
    "ComputeGraph",
    "export_model",
    "OnnxExportBackend",
    "CoalescingScoringClient",
    "RemoteScoringBackend",
    "ScoringServer",
    "serve_fleet",
    "shard_indices",
    "FeatureAttribution",
    "Counterfactual",
    "CounterfactualBatch",
    "RuleExplanation",
    "ExampleExplanation",
    "ShapleyExplainer",
    "exact_shapley_values",
    "sampled_shapley_values",
    "shapley_for_value_function",
    "permutation_importance",
    "partial_dependence",
    "individual_conditional_expectation",
    "PermutationImportanceExplainer",
    "LocalSurrogateExplainer",
    "GlobalSurrogateTree",
    "AnchorExplainer",
    "Predicate",
    "discretize_features",
    "frequent_predicate_sets",
    "KernelSet",
    "resolve_kernels",
    "batch_counterfactual_distance",
    "project_candidates",
    "build_prefix_revert_trials",
    "rank_changed_features",
    "ActionabilityConstraints",
    "counterfactual_distance",
    "BaseCounterfactualGenerator",
    "RandomSearchCounterfactual",
    "GrowingSpheresCounterfactual",
    "GradientCounterfactual",
    "select_prototypes",
    "select_criticisms",
    "nearest_neighbor_explanation",
    "contrastive_example",
    "ExampleBasedExplainer",
    "InfluenceExplainer",
    "influence_functions_logistic",
    "leave_one_out_influence",
    "logistic_gradients",
    "logistic_hessian",
]
