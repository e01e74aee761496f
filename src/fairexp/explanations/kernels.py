"""The four hot-path kernels of the counterfactual search.

The engine's inner loops — candidate projection, hit-distance scoring, the
sparsifier's prefix-revert trial chains and its greedy feature ranking — are
the wall-time story of a large audit now that predict-call counts are
optimized.  This module concentrates those loops in four vectorized NumPy
kernels:

* :func:`batch_counterfactual_distance` — distances for many ``(x, x')``
  pairs in one call (replaces the per-hit Python list comprehension);
* :func:`project_candidates` — the actionability projection cascade over any
  stacked candidate tensor, one in-place pass per constrained feature
  column instead of a chain of full-tensor passes (optionally into the
  candidate tensor itself);
* :func:`build_prefix_revert_trials` — one greedy round's cumulative
  prefix-revert trials for every active instance at once, stacked in one
  ``np.where`` over a rank-position matrix (replaces the per-feature
  ``trial.copy()`` chain and the per-instance call);
* :func:`rank_changed_features` — the sparsifier's greedy revert order for a
  whole batch at once, as the rank-position matrix the trial kernel takes.

**Bitwise parity is the contract.**  Every kernel reproduces the pre-kernel
loop implementation bit for bit (asserted in
``tests/explanations/test_kernels.py``), so the kernels never reach
``generator_config`` or store fingerprints.

The engine, the sparsifier,
:meth:`~fairexp.explanations.counterfactual.ActionabilityConstraints.project`
and :func:`~fairexp.explanations.counterfactual.counterfactual_distance`
call the kernels through the attributes of the one :class:`KernelSet` that
:func:`resolve_kernels` returns, looked up at call time.  That object is the
seam a profiler patches to time each kernel on its own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "KernelSet",
    "batch_counterfactual_distance",
    "build_prefix_revert_trials",
    "project_candidates",
    "rank_changed_features",
    "resolve_kernels",
]


def batch_counterfactual_distance(X, candidates, *, scale=None,
                                  metric: str = "l1") -> np.ndarray:
    """Distances between rows of ``X`` and ``candidates`` in one call.

    ``X`` is either ``(n, d)`` row-aligned with ``candidates`` or a single
    ``(d,)`` instance broadcast against every candidate; returns shape
    ``(n,)``.  Bitwise-equal to calling the scalar
    :func:`~fairexp.explanations.counterfactual.counterfactual_distance` per
    row: L1/L0 reduce with NumPy's per-row pairwise summation (identical to
    the 1-D sum), L2 uses batched BLAS dot products (identical to the 1-D
    ``np.linalg.norm``).  Zero entries of ``scale`` count as 1.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    delta = candidates - X
    if scale is not None:
        scale = np.asarray(scale, dtype=float).copy()
        scale[scale == 0] = 1.0
        delta = delta / scale
    if metric == "l1":
        return np.sum(np.abs(delta), axis=-1)
    if metric == "l2":
        # matmul's batched 1x1 products route through the same BLAS dot as
        # np.linalg.norm on a 1-D vector — np.sum(delta**2, axis=-1) would
        # NOT be bitwise-equal (pairwise summation vs. BLAS accumulation).
        return np.sqrt(np.matmul(delta[:, None, :], delta[:, :, None])[:, 0, 0])
    if metric == "l0":
        return np.sum(~np.isclose(delta, 0.0), axis=-1).astype(float)
    raise ValidationError(f"unknown metric {metric!r}")


def project_candidates(x_original, candidates, *, immutable, lower, upper,
                       monotone, out=None) -> np.ndarray:
    """Project stacked candidates onto the feasible set (clip → monotone → freeze).

    Accepts any ``(..., d)`` candidate tensor with ``x_original``
    broadcastable to it; the result has ``candidates.shape``.  Same
    semantics (and bitwise-identical output) as the historical clip →
    ``np.where`` cascade, but computed one feature at a time over that
    column's ``(...)`` slice: an immutable column is a copy of the
    original, a column with a finite bound is clipped to it, a monotone
    column is raised/lowered to the original, and a free column is left as
    drawn.  NaN bounds are treated as unbounded.  ``out`` (which may be
    ``candidates`` itself) receives the projection instead of a fresh
    array.
    """
    candidates = np.asarray(candidates, dtype=float)
    if out is None:
        out = candidates.copy()
    elif out is not candidates:
        out[...] = candidates
    originals = np.broadcast_to(np.asarray(x_original, dtype=float), out.shape)
    immutable = np.asarray(immutable, dtype=bool)
    monotone = np.asarray(monotone)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    lower = np.where(np.isnan(lower), -np.inf, lower)
    upper = np.where(np.isnan(upper), np.inf, upper)
    bounded = np.isfinite(lower) | np.isfinite(upper)
    for j in np.flatnonzero(immutable | bounded | (monotone != 0)):
        column = out[..., j]
        if immutable[j]:
            column[...] = originals[..., j]
            continue
        if bounded[j]:
            np.clip(column, lower[j], upper[j], out=column)
        if monotone[j] == 1:
            np.maximum(column, originals[..., j], out=column)
        elif monotone[j] == -1:
            np.minimum(column, originals[..., j], out=column)
    return out


def build_prefix_revert_trials(candidates, X_rows, ranks, lengths) -> np.ndarray:
    """Every instance's cumulative prefix-revert trials for one greedy round.

    ``ranks[k, j]`` is feature ``j``'s position in instance ``k``'s
    remaining revert order; a feature outside that order carries a rank of
    at least ``lengths[k]``, the order's length.  Instance ``k`` gets
    ``lengths[k]`` trial rows, and its row ``t`` is ``candidates[k]`` with
    every feature of rank ``<= t`` reverted to ``X_rows[k]``'s value —
    exactly the chain the per-feature greedy loop builds with one
    ``trial.copy()`` per feature.  The blocks are stacked in instance order
    into one ``(sum(lengths), d)`` matrix, built by a single ``np.where``
    over the gathered rows.
    """
    candidates = np.asarray(candidates, dtype=float)
    X_rows = np.asarray(X_rows, dtype=float)
    lengths = np.asarray(lengths, dtype=np.intp)
    owner = np.repeat(np.arange(lengths.size), lengths)
    step = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    revert = np.asarray(ranks)[owner] <= step[:, None]
    return np.where(revert, X_rows[owner], candidates[owner])


def rank_changed_features(X_rows, candidates, scale) -> np.ndarray:
    """Greedy revert order per instance, as a padded ``(n, d)`` rank matrix.

    ``position[k, j]`` is feature ``j``'s rank in row ``k``'s order — the
    features where candidate and original differ (``~np.isclose``), by
    scaled absolute delta — and ``d`` for a feature outside it.  The
    arithmetic runs once over the whole batch; the per-row ``argsort`` stays
    on each row's few changed features so tie order matches the historical
    per-row loop exactly even though the default sort is unstable.
    """
    X_rows = np.atleast_2d(np.asarray(X_rows, dtype=float))
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    n_rows, n_features = candidates.shape
    changed = ~np.isclose(candidates, X_rows)
    magnitudes = np.abs((candidates - X_rows) / np.asarray(scale, dtype=float))
    position = np.full((n_rows, n_features), n_features, dtype=np.intp)
    for k in range(n_rows):
        columns = np.flatnonzero(changed[k])
        position[k, columns[np.argsort(magnitudes[k, columns])]] = np.arange(columns.size)
    return position


class KernelSet:
    """The four hot-path kernels, held as attributes so call sites look each
    one up at call time.

    Attributes
    ----------
    name:
        ``"numpy"`` — stamped into benchmark records as the kernel path.
    batch_counterfactual_distance, project_candidates,
    build_prefix_revert_trials, rank_changed_features:
        The kernels of the same names in this module.
    """

    __slots__ = ("name", "batch_counterfactual_distance", "project_candidates",
                 "build_prefix_revert_trials", "rank_changed_features")

    def __init__(self, name: str, distance: Callable, project: Callable,
                 prefix_trials: Callable, rank_changed: Callable) -> None:
        self.name = name
        self.batch_counterfactual_distance = distance
        self.project_candidates = project
        self.build_prefix_revert_trials = prefix_trials
        self.rank_changed_features = rank_changed

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        """Short identity, e.g. ``KernelSet('numpy')``."""
        return f"KernelSet({self.name!r})"


_KERNELS = KernelSet("numpy", batch_counterfactual_distance, project_candidates,
                     build_prefix_revert_trials, rank_changed_features)


def resolve_kernels(choice=None) -> KernelSet:
    """The :class:`KernelSet` every search runs on.

    There is one set, so there is nothing to choose: ``choice`` must be
    ``None`` (the form ``resolve_kernels(None)`` stays valid) and anything
    else raises :class:`~fairexp.exceptions.ValidationError`.
    """
    if choice is not None:
        raise ValidationError(
            f"there is one kernel set; resolve_kernels takes no choice, got {choice!r}"
        )
    return _KERNELS
