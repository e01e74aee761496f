"""Example-based explanations: prototypes & criticisms, nearest neighbours, contrastive pairs."""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from .base import ExampleExplanation, ExplainerInfo

__all__ = [
    "select_prototypes",
    "select_criticisms",
    "nearest_neighbor_explanation",
    "contrastive_example",
]


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    from scipy.spatial.distance import cdist

    return np.exp(-gamma * cdist(A, B, metric="sqeuclidean"))


def select_prototypes(X, *, n_prototypes: int = 5, gamma: float | None = None) -> ExampleExplanation:
    """Greedy MMD-critic prototype selection.

    Prototypes are the instances that, taken together, best match the dataset
    distribution under the maximum mean discrepancy with an RBF kernel.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n_prototypes > n:
        raise ValidationError("n_prototypes exceeds the number of samples")
    if gamma is None:
        gamma = 1.0 / max(X.shape[1], 1)

    kernel = _rbf_kernel(X, X, gamma)
    column_means = kernel.mean(axis=1)
    selected: list[int] = []
    for _ in range(n_prototypes):
        best_gain, best_idx = -np.inf, -1
        for candidate in range(n):
            if candidate in selected:
                continue
            trial = selected + [candidate]
            m = len(trial)
            gain = 2.0 / m * column_means[trial].sum() - kernel[np.ix_(trial, trial)].sum() / m**2
            if gain > best_gain:
                best_gain, best_idx = gain, candidate
        selected.append(best_idx)
    return ExampleExplanation(indices=tuple(selected), role="prototype",
                              meta={"gamma": gamma})


def select_criticisms(
    X, prototypes: ExampleExplanation, *, n_criticisms: int = 3, gamma: float | None = None
) -> ExampleExplanation:
    """Select criticisms: points worst represented by the chosen prototypes (MMD witness)."""
    X = np.asarray(X, dtype=float)
    if gamma is None:
        gamma = prototypes.meta.get("gamma", 1.0 / max(X.shape[1], 1))
    kernel = _rbf_kernel(X, X, gamma)
    proto_idx = list(prototypes.indices)
    witness = np.abs(kernel.mean(axis=1) - kernel[:, proto_idx].mean(axis=1))
    witness[proto_idx] = -np.inf
    order = np.argsort(-witness)[:n_criticisms]
    return ExampleExplanation(
        indices=tuple(int(i) for i in order), role="criticism", scores=witness[order]
    )


def nearest_neighbor_explanation(
    x, X_reference, y_reference=None, *, n_neighbors: int = 5, metric: str = "euclidean"
) -> ExampleExplanation:
    """Explain a prediction by the most similar reference instances (and their labels)."""
    from scipy.spatial.distance import cdist

    x = np.atleast_2d(np.asarray(x, dtype=float))
    X_reference = np.asarray(X_reference, dtype=float)
    distances = cdist(x, X_reference, metric=metric)[0]
    order = np.argsort(distances)[:n_neighbors]
    meta = {}
    if y_reference is not None:
        meta["labels"] = np.asarray(y_reference)[order].tolist()
    return ExampleExplanation(
        indices=tuple(int(i) for i in order), role="neighbor", scores=distances[order], meta=meta
    )


def contrastive_example(x, X_reference, predictions, *, target_class: int = 1,
                        metric: str = "euclidean") -> ExampleExplanation:
    """Return the closest reference instance predicted as ``target_class``.

    This is the "nearest contrastive explanation" view of counterfactuals
    (Karimi et al. [13]) restricted to observed data points, sometimes called
    a native counterfactual.
    """
    from scipy.spatial.distance import cdist

    x = np.atleast_2d(np.asarray(x, dtype=float))
    X_reference = np.asarray(X_reference, dtype=float)
    predictions = np.asarray(predictions)
    candidates = np.flatnonzero(predictions == target_class)
    if candidates.size == 0:
        raise ValidationError("no reference instance has the target class")
    distances = cdist(x, X_reference[candidates], metric=metric)[0]
    best = candidates[int(np.argmin(distances))]
    return ExampleExplanation(
        indices=(int(best),), role="contrastive", scores=np.array([float(distances.min())])
    )


class ExampleBasedExplainer:
    """Facade bundling prototype / neighbour / contrastive example explanations."""

    info = ExplainerInfo(
        stage="post-hoc",
        access="black-box",
        agnostic=True,
        coverage="both",
        explanation_type="example",
        multiplicity="multiple",
    )

    def __init__(self, X_reference, y_reference=None, predictions=None) -> None:
        self.X_reference = np.asarray(X_reference, dtype=float)
        self.y_reference = None if y_reference is None else np.asarray(y_reference)
        self.predictions = None if predictions is None else np.asarray(predictions)

    def prototypes(self, n_prototypes: int = 5) -> ExampleExplanation:
        """Representative prototypes of the reference data (k-medoids style)."""
        return select_prototypes(self.X_reference, n_prototypes=n_prototypes)

    def neighbors(self, x, n_neighbors: int = 5) -> ExampleExplanation:
        """The reference points closest to ``x`` (with labels when known)."""
        return nearest_neighbor_explanation(
            x, self.X_reference, self.y_reference, n_neighbors=n_neighbors
        )

    def contrastive(self, x, target_class: int = 1) -> ExampleExplanation:
        """The closest reference point predicted as ``target_class``."""
        if self.predictions is None:
            raise ValidationError("predictions are required for contrastive examples")
        return contrastive_example(x, self.X_reference, self.predictions,
                                   target_class=target_class)
