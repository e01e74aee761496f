"""Dataset container used throughout fairexp.

A :class:`Dataset` bundles a numeric feature matrix with per-feature metadata
(:class:`FeatureSpec`), a binary label, and the name of the sensitive
attribute.  All fairness metrics and explanation methods in the library
consume this container so the sensitive attribute, actionability and
immutability information travel with the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import ValidationError

__all__ = ["FeatureSpec", "Dataset"]


@dataclass(frozen=True)
class FeatureSpec:
    """Metadata for one feature column.

    Attributes
    ----------
    name:
        Column name.
    kind:
        ``"numeric"``, ``"binary"`` or ``"categorical"`` (categorical columns
        hold integer category codes).
    actionable:
        Whether an individual can plausibly change this feature (used by the
        recourse / counterfactual generators).
    immutable:
        Whether the feature must never be changed by a counterfactual
        (e.g. race, birthplace).  ``immutable`` implies ``not actionable``.
    monotone:
        Optional direction constraint for recourse: ``+1`` means the feature
        may only be increased, ``-1`` only decreased, ``0`` unconstrained.
    lower, upper:
        Optional plausibility bounds on the feature value.
    categories:
        Category names for categorical features (index = code).
    """

    name: str
    kind: str = "numeric"
    actionable: bool = True
    immutable: bool = False
    monotone: int = 0
    lower: float | None = None
    upper: float | None = None
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("numeric", "binary", "categorical"):
            raise ValidationError(f"unknown feature kind {self.kind!r}")
        if self.monotone not in (-1, 0, 1):
            raise ValidationError("monotone must be -1, 0 or +1")
        if self.immutable and self.actionable:
            object.__setattr__(self, "actionable", False)


@dataclass
class Dataset:
    """Tabular dataset with a sensitive attribute and a binary label.

    Attributes
    ----------
    X:
        Feature matrix, shape ``(n_samples, n_features)``, float.
    y:
        Binary labels (1 = favourable outcome).
    features:
        One :class:`FeatureSpec` per column of ``X``.
    sensitive:
        Name of the sensitive feature column; its values partition the data
        into groups (1 is conventionally the protected group).
    name:
        Human-readable dataset name.
    scm:
        Optional structural causal model the data was generated from
        (:class:`~fairexp.causal.scm.StructuralCausalModel`).  Datasets
        carrying one satisfy the registry's ``"scm"`` data requirement, so
        causal-recourse explainers auto-select for them; it travels through
        :meth:`subset` / :meth:`split` and friends.
    """

    X: np.ndarray
    y: np.ndarray
    features: list[FeatureSpec]
    sensitive: str
    name: str = "dataset"
    scm: object | None = None

    #: data modality advertised to ``ExplainerRegistry.is_compatible``
    modality = "tabular"

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 2:
            raise ValidationError("X must be 2-dimensional")
        if self.y.shape[0] != self.X.shape[0]:
            raise ValidationError("X and y must have the same number of rows")
        if len(self.features) != self.X.shape[1]:
            raise ValidationError(
                f"{len(self.features)} feature specs for {self.X.shape[1]} columns"
            )
        if self.sensitive not in self.feature_names:
            raise ValidationError(f"sensitive feature {self.sensitive!r} not in columns")

    # ------------------------------------------------------------ accessors
    @property
    def feature_names(self) -> list[str]:
        """Names of the feature columns."""
        return [spec.name for spec in self.features]

    @property
    def n_samples(self) -> int:
        """Number of rows."""
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return int(self.X.shape[1])

    @property
    def sensitive_index(self) -> int:
        """Column index of the sensitive attribute."""
        return self.feature_names.index(self.sensitive)

    @property
    def sensitive_values(self) -> np.ndarray:
        """Values of the sensitive column (group membership)."""
        return self.X[:, self.sensitive_index].astype(int)

    @property
    def protected_mask(self) -> np.ndarray:
        """Boolean mask for the protected group (sensitive value == 1)."""
        return self.sensitive_values == 1

    def column(self, name: str) -> np.ndarray:
        """Return the values of the named feature column."""
        return self.X[:, self.index_of(name)]

    def index_of(self, name: str) -> int:
        """Return the column index of the named feature."""
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown feature {name!r}") from None

    def spec_of(self, name: str) -> FeatureSpec:
        """Return the :class:`FeatureSpec` of the named feature."""
        return self.features[self.index_of(name)]

    # --------------------------------------------------------- manipulation
    def subset(self, mask_or_indices) -> "Dataset":
        """Return a new dataset restricted to the given rows."""
        idx = np.asarray(mask_or_indices)
        return Dataset(
            X=self.X[idx].copy(),
            y=self.y[idx].copy(),
            features=list(self.features),
            sensitive=self.sensitive,
            name=self.name,
            scm=self.scm,
        )

    def drop_feature(self, name: str) -> "Dataset":
        """Return a new dataset without the named column.

        Dropping the sensitive attribute is allowed for *training* fairness-
        through-unawareness models (e.g. PreCoF implicit-bias analysis); the
        returned dataset re-labels the first remaining column as "sensitive"
        placeholder-free by keeping group membership in :attr:`groups_backup`.
        """
        if name == self.sensitive:
            raise ValidationError(
                "use features_without_sensitive() to obtain a matrix without the "
                "sensitive column; the Dataset always keeps group membership"
            )
        j = self.index_of(name)
        keep = [i for i in range(self.n_features) if i != j]
        return Dataset(
            X=self.X[:, keep].copy(),
            y=self.y.copy(),
            features=[self.features[i] for i in keep],
            sensitive=self.sensitive,
            name=self.name,
            scm=self.scm,
        )

    def features_without_sensitive(self) -> tuple[np.ndarray, list[FeatureSpec]]:
        """Return ``(X, specs)`` with the sensitive column removed.

        Group membership remains available through :attr:`sensitive_values`.
        """
        j = self.sensitive_index
        keep = [i for i in range(self.n_features) if i != j]
        return self.X[:, keep].copy(), [self.features[i] for i in keep]

    def with_values(self, X: np.ndarray | None = None, y: np.ndarray | None = None) -> "Dataset":
        """Return a copy with replaced feature matrix and/or labels."""
        return Dataset(
            X=self.X.copy() if X is None else np.asarray(X, dtype=float),
            y=self.y.copy() if y is None else np.asarray(y, dtype=int),
            features=list(self.features),
            sensitive=self.sensitive,
            name=self.name,
            scm=self.scm,
        )

    def split(self, test_size: float = 0.3, random_state=None) -> tuple["Dataset", "Dataset"]:
        """Split into train and test datasets, stratified on the label."""
        from ..models.preprocessing import train_test_split

        idx = np.arange(self.n_samples)
        train_idx, test_idx = train_test_split(
            idx, test_size=test_size, random_state=random_state, stratify=self.y
        )
        return self.subset(train_idx), self.subset(test_idx)

    # ------------------------------------------------------------ summaries
    def group_sizes(self) -> dict[int, int]:
        """Return the number of samples per sensitive-attribute value."""
        values, counts = np.unique(self.sensitive_values, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def base_rates(self) -> dict[int, float]:
        """Return ``P(y=1 | group)`` for each sensitive-attribute value."""
        rates = {}
        for value in np.unique(self.sensitive_values):
            mask = self.sensitive_values == value
            rates[int(value)] = float(self.y[mask].mean())
        return rates

    def describe(self) -> dict:
        """Return a summary dictionary (sizes, base rates, feature kinds)."""
        return {
            "name": self.name,
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "sensitive": self.sensitive,
            "group_sizes": self.group_sizes(),
            "base_rates": self.base_rates(),
            "feature_kinds": {spec.name: spec.kind for spec in self.features},
        }

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, n_samples={self.n_samples}, "
            f"n_features={self.n_features}, sensitive={self.sensitive!r})"
        )


def make_feature_specs(
    names: Sequence[str],
    *,
    kinds: Mapping[str, str] | None = None,
    immutable: Iterable[str] = (),
    non_actionable: Iterable[str] = (),
    bounds: Mapping[str, tuple[float, float]] | None = None,
    monotone: Mapping[str, int] | None = None,
) -> list[FeatureSpec]:
    """Convenience builder for lists of :class:`FeatureSpec`."""
    kinds = dict(kinds or {})
    bounds = dict(bounds or {})
    monotone = dict(monotone or {})
    immutable = set(immutable)
    non_actionable = set(non_actionable)
    specs = []
    for name in names:
        lower, upper = bounds.get(name, (None, None))
        specs.append(
            FeatureSpec(
                name=name,
                kind=kinds.get(name, "numeric"),
                actionable=name not in non_actionable and name not in immutable,
                immutable=name in immutable,
                monotone=monotone.get(name, 0),
                lower=lower,
                upper=upper,
            )
        )
    return specs
