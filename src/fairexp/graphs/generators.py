"""Biased graph generators for GNN fairness experiments.

The structural-bias explanation literature ([89]–[91]) studies graphs whose
*topology* transmits group disadvantage: nodes connect preferentially within
their sensitive group (homophily), so message passing propagates group-typical
features and produces disparate predictions even without the sensitive
attribute as an input feature.  :func:`make_biased_sbm` reproduces exactly
this setting with a two-block stochastic block model, group-shifted node
features and group-dependent labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import ValidationError
from ..utils import check_random_state, sigmoid

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["AttributedGraph", "make_biased_sbm"]


@dataclass
class AttributedGraph:
    """An undirected graph with node features, sensitive groups and binary labels."""

    adjacency: np.ndarray
    features: np.ndarray
    groups: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    #: data modality advertised to ``ExplainerRegistry.is_compatible``
    modality = "graph"

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=float)
        self.features = np.asarray(self.features, dtype=float)
        self.groups = np.asarray(self.groups, dtype=int)
        self.labels = np.asarray(self.labels, dtype=int)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise ValidationError("adjacency must be square")
        if not np.allclose(self.adjacency, self.adjacency.T):
            raise ValidationError("adjacency must be symmetric (undirected graph)")
        for name, array in (("features", self.features), ("groups", self.groups),
                            ("labels", self.labels)):
            if array.shape[0] != n:
                raise ValidationError(f"{name} must have one entry per node")

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the graph."""
        return int(self.adjacency.shape[0])

    def edges(self) -> list[tuple[int, int]]:
        """Return the undirected edge list (i < j)."""
        rows, cols = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(rows.tolist(), cols.tolist()))

    def degree(self) -> np.ndarray:
        """Per-node degree vector."""
        return self.adjacency.sum(axis=1)

    def homophily(self) -> float:
        """Fraction of edges connecting nodes of the same sensitive group."""
        edges = self.edges()
        if not edges:
            return 0.0
        same = sum(1 for i, j in edges if self.groups[i] == self.groups[j])
        return same / len(edges)

    def remove_edges(self, edges: list[tuple[int, int]]) -> "AttributedGraph":
        """Return a copy with the listed undirected edges removed."""
        adjacency = self.adjacency.copy()
        for i, j in edges:
            adjacency[i, j] = 0.0
            adjacency[j, i] = 0.0
        return AttributedGraph(
            adjacency=adjacency,
            features=self.features.copy(),
            groups=self.groups.copy(),
            labels=self.labels.copy(),
            meta=dict(self.meta),
        )

    def to_networkx(self) -> nx.Graph:
        """The graph as a ``networkx.Graph`` with node attributes attached."""
        import networkx as nx

        graph = nx.from_numpy_array(self.adjacency)
        for node in graph.nodes:
            graph.nodes[node]["group"] = int(self.groups[node])
            graph.nodes[node]["label"] = int(self.labels[node])
        return graph


def make_biased_sbm(
    n_nodes: int = 200,
    *,
    protected_fraction: float = 0.4,
    p_within: float = 0.08,
    p_between: float = 0.01,
    n_features: int = 6,
    feature_shift: float = 1.0,
    label_bias: float = 1.0,
    random_state=None,
) -> AttributedGraph:
    """Two-block SBM with homophily, group-shifted features and biased labels.

    Parameters
    ----------
    p_within, p_between:
        Edge probabilities within / across sensitive groups; the gap controls
        the topological bias the structural explainers should discover.
    feature_shift:
        How far the protected group's feature mean is shifted (proxy signal).
    label_bias:
        Log-odds penalty on the favourable label for the protected group.
    """
    rng = check_random_state(random_state)
    groups = (rng.random(n_nodes) < protected_fraction).astype(int)

    same = groups[:, None] == groups[None, :]
    probabilities = np.where(same, p_within, p_between)
    upper = np.triu(rng.random((n_nodes, n_nodes)) < probabilities, k=1)
    adjacency = (upper | upper.T).astype(float)
    np.fill_diagonal(adjacency, 0.0)

    features = rng.normal(0.0, 1.0, (n_nodes, n_features))
    features[:, 0] -= feature_shift * groups
    features[:, 1] += 0.5 * feature_shift * groups

    logits = 0.8 * features[:, 0] + 0.5 * features[:, 2] - label_bias * groups
    labels = (rng.random(n_nodes) < sigmoid(logits)).astype(int)

    return AttributedGraph(
        adjacency=adjacency,
        features=features,
        groups=groups,
        labels=labels,
        meta={
            "p_within": p_within,
            "p_between": p_between,
            "feature_shift": feature_shift,
            "label_bias": label_bias,
        },
    )
