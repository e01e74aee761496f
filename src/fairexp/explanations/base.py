"""Common explanation containers, the explainer taxonomy metadata, and the
explainer registry.

Every explainer in :mod:`fairexp.explanations` and :mod:`fairexp.core`
declares where it sits in the explanation taxonomy of the paper (Figure 2)
through :class:`ExplainerInfo`, and registers itself with
:class:`ExplainerRegistry` under a stable name plus a set of capability
flags.  The Table I / Figure 2 regeneration benches and the experiment
runners discover implemented classes through the registry instead of
hard-coded import lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ExplainerInfo",
    "CompatibilityCheck",
    "RegisteredExplainer",
    "ExplainerRegistry",
    "FeatureAttribution",
    "Counterfactual",
    "CounterfactualBatch",
    "RuleExplanation",
    "ExampleExplanation",
]


@dataclass(frozen=True)
class ExplainerInfo:
    """Position of an explanation method in the taxonomy of Figure 2.

    Attributes
    ----------
    stage:
        ``"intrinsic"``, ``"data"`` or ``"post-hoc"``.
    access:
        ``"black-box"``, ``"gradient"`` or ``"white-box"``.
    agnostic:
        Whether the method applies to any model (model-agnostic).
    coverage:
        ``"local"``, ``"global"`` or ``"both"``.
    explanation_type:
        ``"feature"``, ``"example"`` or ``"approximation"``.
    multiplicity:
        ``"single"`` or ``"multiple"``.
    """

    stage: str = "post-hoc"
    access: str = "black-box"
    agnostic: bool = True
    coverage: str = "local"
    explanation_type: str = "feature"
    multiplicity: str = "single"


@dataclass(frozen=True)
class CompatibilityCheck:
    """Outcome of a structured explainer/model/dataset compatibility check.

    Truthiness follows :attr:`compatible`, so entries can be filtered with a
    plain ``if entry.is_compatible(model, dataset):``; :attr:`reasons` lists
    every failed requirement for diagnostics.
    """

    reasons: tuple[str, ...] = ()

    @property
    def compatible(self) -> bool:
        """``True`` when no requirement failed."""
        return not self.reasons

    def __bool__(self) -> bool:
        return self.compatible


@dataclass(frozen=True)
class RegisteredExplainer:
    """One registry entry: an explainer (class or function) plus metadata.

    Attributes
    ----------
    name:
        Stable registry key (e.g. ``"growing_spheres"``, ``"burden"``).
    obj:
        The registered class or callable.
    info:
        Taxonomy position; read from ``obj.info`` when not given explicitly.
    capabilities:
        Free-form flags such as ``"counterfactual-generator"``,
        ``"fairness-explainer"`` or ``"requires-gradient"`` that callers use
        to parameterize over compatible explainers.
    modality:
        Data modality the explainer operates on: ``"tabular"`` (default),
        ``"graph"``, ``"recsys"`` or ``"ranking"``.
    model_requirements:
        Attributes the audited model must expose (``("predict",)`` by
        default; e.g. ``("predict", "gradient_input")`` for gradient-access
        explainers).
    data_requirements:
        What the *dataset* must carry for the explainer to run:
        ``"labels"`` (ground-truth ``y``, e.g. NAWB's false negatives),
        ``"scm"`` (a structural causal model attached to the dataset, e.g.
        the causal-recourse and causal-path explainers), and/or
        ``"feature-specs"`` (per-feature metadata, for explainers built on
        actionability information).  This is how E6/E7-style causal
        workloads auto-select their explainers through
        :meth:`ExplainerRegistry.compatible` instead of hard-coded lists.
    resource_requirements:
        Named *resources* the workload must offer, each checked against the
        model or the dataset by :attr:`_RESOURCE_CHECKS`: ``"gradients"``
        (the model exposes ``gradient_input``), ``"probabilities"`` (the
        model exposes ``predict_proba``), ``"scm"`` (the dataset carries a
        structural causal model) and ``"recommender"`` (the model exposes
        ``recommend_all``).  These extend the attribute-level
        ``model_requirements``/``data_requirements`` with named reasons
        instead of missing-attribute messages.
    """

    name: str
    obj: Any
    info: ExplainerInfo | None
    capabilities: frozenset[str]
    modality: str = "tabular"
    model_requirements: tuple[str, ...] = ("predict",)
    data_requirements: tuple[str, ...] = ()
    resource_requirements: tuple[str, ...] = ()

    #: requirement name -> (predicate over the dataset, failure description)
    _DATA_CHECKS = {
        "labels": (
            lambda dataset: getattr(dataset, "y", None) is not None
            and len(getattr(dataset, "y", ())) > 0,
            "dataset lacks ground-truth labels (y)",
        ),
        "scm": (
            lambda dataset: getattr(dataset, "scm", None) is not None,
            "dataset lacks an attached structural causal model (scm)",
        ),
        "feature-specs": (
            lambda dataset: bool(getattr(dataset, "features", None)),
            "dataset lacks per-feature specs (features)",
        ),
    }

    #: resource name -> (checked half: "model"|"dataset", predicate, description)
    _RESOURCE_CHECKS = {
        "gradients": (
            "model",
            lambda model: hasattr(model, "gradient_input"),
            "explainer needs gradients (model lacks gradient_input)",
        ),
        "probabilities": (
            "model",
            lambda model: hasattr(model, "predict_proba"),
            "explainer needs class probabilities (model lacks predict_proba)",
        ),
        "scm": (
            "dataset",
            lambda dataset: getattr(dataset, "scm", None) is not None,
            "explainer needs a structural causal model (dataset lacks scm)",
        ),
        "recommender": (
            "model",
            lambda model: hasattr(model, "recommend_all"),
            "explainer needs a recommender (model lacks recommend_all)",
        ),
    }

    @property
    def path(self) -> str:
        """Dotted path of the registered object relative to ``fairexp``."""
        module = self.obj.__module__
        prefix = "fairexp."
        if module.startswith(prefix):
            module = module[len(prefix):]
        return f"{module}.{self.obj.__qualname__}"

    def is_compatible(self, model=None, dataset=None) -> CompatibilityCheck:
        """Structured check that this explainer applies to ``model``/``dataset``.

        ``model`` is checked against :attr:`model_requirements`; ``dataset``
        against :attr:`modality` (a dataset advertises its modality through a
        ``modality`` attribute, defaulting to ``"tabular"``) and against the
        declared :attr:`data_requirements` (labels / SCM / feature specs).
        :attr:`resource_requirements` check against whichever half each
        resource names.  Either argument may be ``None`` to skip that half
        of the check.
        """
        reasons: list[str] = []
        if model is not None:
            for attr in self.model_requirements:
                if not hasattr(model, attr):
                    reasons.append(f"model lacks required attribute {attr!r}")
        if dataset is not None:
            modality = getattr(dataset, "modality", "tabular")
            if modality != self.modality:
                reasons.append(
                    f"explainer expects {self.modality!r} data, dataset is {modality!r}"
                )
            for requirement in self.data_requirements:
                satisfied, description = self._DATA_CHECKS[requirement]
                if not satisfied(dataset):
                    reasons.append(description)
        for resource in self.resource_requirements:
            scope, satisfied, description = self._RESOURCE_CHECKS[resource]
            subject = model if scope == "model" else dataset
            if subject is not None and not satisfied(subject):
                reasons.append(description)
        return CompatibilityCheck(tuple(reasons))


class ExplainerRegistry:
    """Process-wide registry of explainer implementations.

    Classes register at import time via the :meth:`register` decorator;
    consumers (``fairexp.experiments``, the Table I / Figure 2 renderers,
    the benchmarks) look implementations up by name, capability, or dotted
    path instead of maintaining hard-coded import lists.
    """

    _entries: dict[str, RegisteredExplainer] = {}

    @classmethod
    def register(
        cls,
        name: str,
        *,
        info: ExplainerInfo | None = None,
        capabilities: Sequence[str] = (),
        modality: str = "tabular",
        model_requirements: Sequence[str] | None = None,
        data_requirements: Sequence[str] = (),
        resource_requirements: Sequence[str] = (),
    ) -> Callable:
        """Class/function decorator adding the object to the registry."""
        if model_requirements is None:
            model_requirements = ("predict",)
            if "requires-gradient" in capabilities:
                model_requirements = ("predict", "gradient_input")
        unknown = set(data_requirements) - set(RegisteredExplainer._DATA_CHECKS)
        if unknown:
            raise ValueError(
                f"unknown data requirements {sorted(unknown)}; "
                f"known: {sorted(RegisteredExplainer._DATA_CHECKS)}"
            )
        unknown = set(resource_requirements) - set(RegisteredExplainer._RESOURCE_CHECKS)
        if unknown:
            raise ValueError(
                f"unknown resource requirements {sorted(unknown)}; "
                f"known: {sorted(RegisteredExplainer._RESOURCE_CHECKS)}"
            )

        def decorator(obj):
            entry_info = info if info is not None else getattr(obj, "info", None)
            entry = RegisteredExplainer(
                name=name, obj=obj, info=entry_info,
                capabilities=frozenset(capabilities),
                modality=modality,
                model_requirements=tuple(model_requirements),
                data_requirements=tuple(data_requirements),
                resource_requirements=tuple(resource_requirements),
            )
            existing = cls._entries.get(name)
            if existing is not None and existing.obj is not obj:
                raise ValueError(f"explainer name {name!r} already registered")
            cls._entries[name] = entry
            obj.registry_name = name
            return obj

        return decorator

    @classmethod
    def entry(cls, name: str) -> RegisteredExplainer:
        """Return the full registry entry for ``name`` (raises ``KeyError``)."""
        if name not in cls._entries:
            raise KeyError(
                f"no explainer registered as {name!r}; known: {sorted(cls._entries)}"
            )
        return cls._entries[name]

    @classmethod
    def get(cls, name: str):
        """Return the registered class/callable for ``name``."""
        return cls.entry(name).obj

    @classmethod
    def names(cls) -> list[str]:
        """Sorted names of every registered explainer."""
        return sorted(cls._entries)

    @classmethod
    def entries(cls) -> list[RegisteredExplainer]:
        """Every registry entry, ordered by name."""
        return [cls._entries[name] for name in cls.names()]

    @classmethod
    def with_capability(cls, capability: str) -> list[RegisteredExplainer]:
        """All entries carrying ``capability``, sorted by name."""
        return [e for e in cls.entries() if capability in e.capabilities]

    @classmethod
    def compatible(cls, *, model=None, dataset=None,
                   capability: str | None = None) -> list[RegisteredExplainer]:
        """All entries structurally compatible with ``model`` / ``dataset``.

        This is what the experiment runners use to auto-select every
        applicable explainer for a workload instead of hard-coding lists:
        capability narrows the family (e.g. ``"counterfactual-generator"``),
        :meth:`RegisteredExplainer.is_compatible` filters on model
        requirements and data modality.
        """
        entries = cls.with_capability(capability) if capability else cls.entries()
        return [e for e in entries if e.is_compatible(model, dataset)]

    @classmethod
    def resolve_path(cls, dotted: str):
        """Resolve a ``fairexp``-relative dotted path to a registered object.

        Returns ``None`` when no registered entry matches, so callers can
        distinguish "not implemented" from "implemented but unregistered".
        """
        for entry in cls._entries.values():
            if entry.path == dotted:
                return entry.obj
        return None


@dataclass
class FeatureAttribution:
    """Per-feature importance scores for one prediction or for the whole model.

    Attributes
    ----------
    feature_names:
        Names aligned with :attr:`values`.
    values:
        Attribution value per feature (sign carries direction where defined).
    baseline:
        The value the attributions are measured against (e.g. expected model
        output for Shapley values).
    meta:
        Free-form extra information (e.g. sampling error estimates).
    """

    feature_names: list[str]
    values: np.ndarray
    baseline: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)

    def as_dict(self) -> dict[str, float]:
        """Attribution values keyed by feature name."""
        return {name: float(v) for name, v in zip(self.feature_names, self.values)}

    def top(self, k: int = 3) -> list[tuple[str, float]]:
        """Return the ``k`` features with the largest absolute attribution."""
        order = np.argsort(-np.abs(self.values))[:k]
        return [(self.feature_names[i], float(self.values[i])) for i in order]

    def total(self) -> float:
        """Sum of all attribution values."""
        return float(self.values.sum())


@dataclass
class Counterfactual:
    """A counterfactual explanation ``x -> x'`` for a single instance.

    Attributes
    ----------
    original:
        The explainee data point.
    counterfactual:
        The modified data point achieving the target outcome.
    original_prediction, counterfactual_prediction:
        Model outputs before and after.
    changed_features:
        Indices of features whose value changed.
    distance:
        Distance between original and counterfactual under the generator's
        cost metric.
    feasible:
        Whether the counterfactual respects actionability constraints.
    """

    original: np.ndarray
    counterfactual: np.ndarray
    original_prediction: int
    counterfactual_prediction: int
    changed_features: tuple[int, ...]
    distance: float
    feasible: bool = True
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_columns(cls, originals, counterfactuals, original_predictions,
                     counterfactual_predictions, changed, distances, feasible
                     ) -> list["Counterfactual"]:
        """One result per row of column-wise arrays, with Python scalar fields.

        ``originals``, ``counterfactuals`` and the boolean ``changed`` mask
        are ``(n, d)``; the other arguments are length-``n`` columns.  Each
        scalar column is converted with one bulk ``tolist`` and every row's
        ``changed_features`` comes from one ``np.nonzero`` over the mask.
        The results' arrays are rows (views) of ``originals`` and
        ``counterfactuals``, so pass matrices that nothing else holds.
        """
        original_predictions = np.asarray(original_predictions).astype(np.int64).tolist()
        counterfactual_predictions = np.asarray(
            counterfactual_predictions).astype(np.int64).tolist()
        distances = np.asarray(distances, dtype=float).tolist()
        feasible = np.asarray(feasible, dtype=bool).tolist()
        changed = np.asarray(changed, dtype=bool)
        columns = np.nonzero(changed)[1].tolist()
        bounds = [0, *np.cumsum(changed.sum(axis=1)).tolist()]
        return [
            cls(
                original=original,
                counterfactual=counterfactual,
                original_prediction=original_predictions[k],
                counterfactual_prediction=counterfactual_predictions[k],
                changed_features=tuple(columns[bounds[k]:bounds[k + 1]]),
                distance=distances[k],
                feasible=feasible[k],
            )
            for k, (original, counterfactual) in enumerate(zip(originals, counterfactuals))
        ]

    def delta(self) -> np.ndarray:
        """Feature-wise change vector ``x' - x``."""
        return np.asarray(self.counterfactual, dtype=float) - np.asarray(self.original, dtype=float)

    def sparsity(self) -> int:
        """Number of features changed."""
        return len(self.changed_features)

    def describe(self, feature_names: Sequence[str] | None = None) -> list[str]:
        """Human-readable list of the feature changes."""
        original = np.asarray(self.original, dtype=float)
        counterfactual = np.asarray(self.counterfactual, dtype=float)
        lines = []
        for j in self.changed_features:
            name = feature_names[j] if feature_names is not None else f"x{j}"
            lines.append(f"{name}: {original[j]:.4g} -> {counterfactual[j]:.4g}")
        return lines


#: Column name -> (dtype, fill value of an unsolved row).  This order and
#: these dtypes are also the layout of a store payload's column stream.
_BATCH_COLUMNS = {
    "indices": (np.int64, 0), "has_result": (bool, False),
    "originals": (float, np.nan), "counterfactuals": (float, np.nan),
    "original_predictions": (np.int64, 0), "counterfactual_predictions": (np.int64, 0),
    "distances": (float, np.nan), "constraint_feasible": (bool, False),
    "changed_masks": (bool, False),
}
_BATCH_MATRICES = ("originals", "counterfactuals", "changed_masks")


@dataclass
class CounterfactualBatch:
    """Counterfactual results for rows ``indices`` of one population, by column.

    The :class:`Counterfactual` fields are columns; ``originals``,
    ``counterfactuals`` and ``changed_masks`` are ``(n, n_features)``.  A row
    with ``has_result[k] == False`` found nothing and holds fill values (NaN
    floats, zero predictions, ``False`` flags).  The constructor coerces each
    column's dtype and raises ``ValueError`` unless every column has one row
    per index and the matrices share one width.
    """

    indices: np.ndarray
    has_result: np.ndarray
    originals: np.ndarray
    counterfactuals: np.ndarray
    original_predictions: np.ndarray
    counterfactual_predictions: np.ndarray
    distances: np.ndarray
    constraint_feasible: np.ndarray
    changed_masks: np.ndarray

    def __post_init__(self) -> None:
        for name, (dtype, _) in _BATCH_COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if self.originals.ndim != 2:
            raise ValueError("originals must be a matrix")
        for name in _BATCH_COLUMNS:
            expected = self.originals.shape if name in _BATCH_MATRICES else (len(self.originals),)
            if getattr(self, name).shape != expected:
                raise ValueError(f"column {name!r} has shape "
                                 f"{getattr(self, name).shape}, expected {expected}")

    @classmethod
    def unsolved(cls, indices, n_features: int) -> "CounterfactualBatch":
        """A batch in which no row of ``indices`` has a counterfactual."""
        n_rows = len(indices)
        return cls(indices, **{
            name: np.full((n_rows, n_features) if name in _BATCH_MATRICES else n_rows,
                          fill, dtype=dtype)
            for name, (dtype, fill) in _BATCH_COLUMNS.items() if name != "indices"
        })

    @classmethod
    def merge(cls, *batches: "CounterfactualBatch") -> "CounterfactualBatch":
        """Every row of ``batches`` (disjoint indices) in one batch, sorted by index."""
        columns = {name: np.concatenate([batch.columns[name] for batch in batches])
                   for name in _BATCH_COLUMNS}
        order = np.argsort(columns["indices"], kind="stable")
        return cls(**{name: column[order] for name, column in columns.items()})

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """Every column by name: exactly what a store payload holds."""
        return {name: getattr(self, name) for name in _BATCH_COLUMNS}

    @property
    def n_features(self) -> int:
        """Width of the matrix columns."""
        return self.originals.shape[1]

    def take(self, positions) -> "CounterfactualBatch":
        """A new batch of the rows at ``positions``, copied, in that order."""
        return CounterfactualBatch(**{name: column[positions]
                                      for name, column in self.columns.items()})

    def _counterfactuals(self) -> list[Counterfactual]:
        # Fancy indexing copies, so no result shares memory with the batch.
        rows = np.flatnonzero(self.has_result)
        return Counterfactual.from_columns(
            self.originals[rows], self.counterfactuals[rows],
            self.original_predictions[rows], self.counterfactual_predictions[rows],
            self.changed_masks[rows], self.distances[rows], self.constraint_feasible[rows])

    def solved(self) -> dict[int, Counterfactual]:
        """The solved rows as ``{index: Counterfactual}``, in row order."""
        return dict(zip(self.indices[self.has_result].tolist(), self._counterfactuals()))

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, position: int) -> Counterfactual | None:
        """Row ``position`` as one :class:`Counterfactual` (``None`` if unsolved)."""
        return next(iter(self.take([position])))

    def __iter__(self):
        """Each row as a :class:`Counterfactual`, or ``None`` where unsolved."""
        solved = iter(self._counterfactuals())
        return iter([next(solved) if has else None for has in self.has_result.tolist()])


@dataclass
class RuleExplanation:
    """A conjunctive rule (anchor / itemset-style explanation).

    Attributes
    ----------
    conditions:
        Mapping ``feature name -> (low, high)`` interval or set of values.
    prediction:
        The outcome the rule is associated with.
    coverage:
        Fraction of the reference population satisfying the rule.
    precision:
        Fraction of covered points for which the model output matches
        ``prediction``.
    """

    conditions: Mapping[str, tuple]
    prediction: int
    coverage: float
    precision: float
    meta: dict = field(default_factory=dict)

    def __str__(self) -> str:
        clauses = []
        for name, bounds in self.conditions.items():
            low, high = bounds
            if low is not None and high is not None:
                clauses.append(f"{low:.4g} <= {name} <= {high:.4g}")
            elif low is not None:
                clauses.append(f"{name} >= {low:.4g}")
            elif high is not None:
                clauses.append(f"{name} <= {high:.4g}")
        premise = " AND ".join(clauses) if clauses else "TRUE"
        return (
            f"IF {premise} THEN prediction={self.prediction} "
            f"(coverage={self.coverage:.2f}, precision={self.precision:.2f})"
        )


@dataclass
class ExampleExplanation:
    """Example-based explanation: indices of reference instances and their roles."""

    indices: tuple[int, ...]
    role: str  # "prototype", "criticism", "neighbor", "influential"
    scores: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
