"""Causal DAG utilities: path enumeration and simple linear-SCM estimation.

The fairness-aware causal path decomposition method [82] attributes a model's
disparity to causal paths from the sensitive attribute to the outcome; these
helpers enumerate such paths and estimate linear edge weights from data when
no ground-truth SCM is available.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "CausalGraph",
    "all_causal_paths",
    "fit_linear_scm_weights",
    "path_effect",
]


class CausalGraph:
    """A thin wrapper over :class:`networkx.DiGraph` with validation and helpers."""

    def __init__(self, edges: Sequence[tuple[str, str]]) -> None:
        import networkx as nx

        self.graph = nx.DiGraph()
        self.graph.add_edges_from(edges)
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ValidationError("causal graph must be a DAG")

    @property
    def nodes(self) -> list[str]:
        """The graph's variable names."""
        return list(self.graph.nodes)

    @property
    def edges(self) -> list[tuple[str, str]]:
        """The directed edges as ``(parent, child)`` pairs."""
        return list(self.graph.edges)

    def parents(self, node: str) -> list[str]:
        """Direct parents of ``node``."""
        return list(self.graph.predecessors(node))

    def children(self, node: str) -> list[str]:
        """Direct children of ``node``."""
        return list(self.graph.successors(node))

    def descendants(self, node: str) -> set[str]:
        """Every variable reachable from ``node``."""
        import networkx as nx

        return set(nx.descendants(self.graph, node))

    def ancestors(self, node: str) -> set[str]:
        """Every variable with a directed path into ``node``."""
        import networkx as nx

        return set(nx.ancestors(self.graph, node))

    def topological_order(self) -> list[str]:
        """The variables in one topological order of the DAG."""
        import networkx as nx

        return list(nx.topological_sort(self.graph))


def all_causal_paths(graph: CausalGraph, source: str, target: str) -> list[tuple[str, ...]]:
    """Return every directed path from ``source`` to ``target`` as a tuple of nodes."""
    import networkx as nx

    if source not in graph.graph or target not in graph.graph:
        return []
    return [tuple(path) for path in nx.all_simple_paths(graph.graph, source, target)]


def fit_linear_scm_weights(
    graph: CausalGraph, data: dict[str, np.ndarray]
) -> dict[tuple[str, str], float]:
    """Estimate linear structural coefficients by per-node least squares.

    Each node is regressed on its parents; the returned mapping gives the
    coefficient attached to every edge ``(parent, child)``.
    """
    weights: dict[tuple[str, str], float] = {}
    for node in graph.topological_order():
        parents = graph.parents(node)
        if not parents:
            continue
        X = np.column_stack([np.asarray(data[p], dtype=float) for p in parents])
        y = np.asarray(data[node], dtype=float)
        design = np.column_stack([X, np.ones(X.shape[0])])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        for parent, value in zip(parents, coef[:-1]):
            weights[(parent, node)] = float(value)
    return weights


def path_effect(path: tuple[str, ...], weights: dict[tuple[str, str], float]) -> float:
    """Product of edge coefficients along a path (the path-specific linear effect)."""
    effect = 1.0
    for parent, child in zip(path[:-1], path[1:]):
        effect *= weights.get((parent, child), 0.0)
    return float(effect)
