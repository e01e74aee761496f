"""Hot-path kernels vs. the pre-kernel loop implementations (BENCH_KERNELS.json).

The four kernels of :mod:`fairexp.explanations.kernels` replaced Python
loops that dominated wall time at the 100x E1 scale point: the per-hit
``counterfactual_distance`` list comprehension, the broadcast/``np.where``
projection cascade, ``greedy_sparsify_batch``'s per-feature ``trial.copy()``
chains (one per instance per round), and the per-row greedy feature
ranking.  This module keeps verbatim copies of those pre-kernel
implementations as the baseline, times both
sides on 100x-E1-shaped inputs, asserts the kernels are bitwise-equal to
the loops, and records each kernel's timings and its own speedup
(``<kernel>_speedup`` = legacy / kernel seconds) to ``BENCH_KERNELS.json``.
Speedups are reported per kernel, never as an aggregate: an aggregate lets
one kernel's large win hide another's regression.  ``project_wave`` times a
whole lockstep wave: the broadcast ``originals + table`` build followed by
the in-place projection, against the projection's offsets form, which
builds and projects the wave one feature plane at a time.
"""

import time

import numpy as np
from conftest import record

from fairexp.explanations import resolve_kernels

# The 100x E1 point audits 8000 rows of the 6-feature loan workload; a
# lockstep wave projects a (pending, candidates, d) tensor and scores tens
# of thousands of hit distances.  These shapes mirror that profile.
N_WAVE_ROWS = 2000        # pending instances in one lockstep wave
N_CANDIDATES = 200        # candidate draws per instance per rung
N_FEATURES = 6            # loan workload width
N_HITS = 60000            # hit pairs distance-scored across the run
N_SPARSIFY_ROWS = 4000    # instances entering greedy sparsification


# --------------------------------------------------------------------------
# Verbatim pre-kernel implementations (the baseline being replaced).
# --------------------------------------------------------------------------
def _legacy_distance(x, x_prime, *, scale=None, metric="l1"):
    """Pre-kernel scalar ``counterfactual_distance`` (one pair per call)."""
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    delta = x_prime - x
    if scale is not None:
        scale = np.asarray(scale, dtype=float).copy()
        scale[scale == 0] = 1.0
        delta = delta / scale
    if metric == "l1":
        return float(np.sum(np.abs(delta)))
    if metric == "l2":
        return float(np.linalg.norm(delta))
    return float(np.sum(~np.isclose(delta, 0.0)))


def _legacy_distance_per_hit(X_hits, candidates, *, scale, metric):
    """The per-hit list comprehension from ``lockstep_candidate_search``."""
    return np.array([
        _legacy_distance(x, c, scale=scale, metric=metric)
        for x, c in zip(X_hits, candidates)
    ])


def _legacy_project(x_original, candidate, *, immutable, lower, upper, monotone):
    """Pre-kernel ``ActionabilityConstraints.project`` (np.where cascade)."""
    candidate = np.asarray(candidate, dtype=float)
    x_original = np.asarray(x_original, dtype=float)
    lower = np.where(np.isnan(lower), -np.inf, lower)
    upper = np.where(np.isnan(upper), np.inf, upper)
    projected = np.clip(candidate, lower, upper)
    originals = np.broadcast_to(x_original, projected.shape)
    projected = np.where(monotone == 1, np.maximum(projected, originals), projected)
    projected = np.where(monotone == -1, np.minimum(projected, originals), projected)
    return np.where(immutable, originals, projected)


def _legacy_prefix_trials(candidate, x_row, order):
    """The per-feature ``trial.copy()`` chain from ``greedy_sparsify_batch``."""
    trial = candidate.copy()
    rows = []
    for column in order:
        trial[column] = x_row[column]
        rows.append(trial.copy())
    return np.stack(rows)


def _legacy_rank_changed(X_rows, candidates, scale):
    """The per-row greedy feature ranking from ``greedy_sparsify_batch``."""
    orders = []
    for k in range(candidates.shape[0]):
        delta = candidates[k] - X_rows[k]
        changed = np.flatnonzero(~np.isclose(candidates[k], X_rows[k]))
        ranked = changed[np.argsort(np.abs(delta / scale)[changed])]
        orders.append(ranked)
    return orders


# --------------------------------------------------------------------------
# Workload construction (deterministic; 100x-E1-shaped).
# --------------------------------------------------------------------------
def _workload():
    rng = np.random.default_rng(20260807)
    scale = rng.uniform(0.5, 2.0, size=N_FEATURES)
    X_hits = rng.normal(size=(N_HITS, N_FEATURES))
    hit_candidates = X_hits + rng.normal(size=X_hits.shape)
    x_wave = rng.normal(size=(N_WAVE_ROWS, 1, N_FEATURES))
    wave_candidates = x_wave + rng.normal(size=(N_WAVE_ROWS, N_CANDIDATES, N_FEATURES))
    constraints = {
        "immutable": np.array([True, False, False, False, False, True]),
        "lower": np.array([-np.inf, -1.0, np.nan, 0.0, -np.inf, -np.inf]),
        "upper": np.array([np.inf, 1.0, 2.0, np.nan, np.inf, np.inf]),
        "monotone": np.array([0, 1, -1, 0, 1, 0]),
    }
    X_sparse = rng.normal(size=(N_SPARSIFY_ROWS, N_FEATURES))
    sparse_candidates = X_sparse.copy()
    changed = rng.random(sparse_candidates.shape) < 0.7
    sparse_candidates[changed] += rng.normal(size=sparse_candidates.shape)[changed]
    return scale, X_hits, hit_candidates, x_wave, wave_candidates, constraints, \
        X_sparse, sparse_candidates


def _wave_workload():
    """One lockstep wave of the default geometric schedule: pending rows and
    the one-key offsets table they all share (a separate stream, so the
    other kernels' inputs stay as they were)."""
    rng = np.random.default_rng(20261018)
    x_rows = rng.normal(size=(N_WAVE_ROWS, N_FEATURES))
    table = rng.normal(size=(1, N_CANDIDATES, N_FEATURES))
    return x_rows, table


def _legacy_build_then_project(x_rows, table, immutable, lower, upper, monotone):
    """The wave as the engine built it before the offsets form: the
    broadcast ``originals + table`` tensor, then the column-wise projection
    in place on it."""
    originals = x_rows[:, None, :]
    candidates = originals + table[0]
    lower = np.where(np.isnan(lower), -np.inf, lower)
    upper = np.where(np.isnan(upper), np.inf, upper)
    bounded = np.isfinite(lower) | np.isfinite(upper)
    for j in np.flatnonzero(immutable | bounded | (monotone != 0)):
        column = candidates[..., j]
        if immutable[j]:
            column[...] = originals[..., j]
            continue
        if bounded[j]:
            np.clip(column, lower[j], upper[j], out=column)
        if monotone[j] == 1:
            np.maximum(column, originals[..., j], out=column)
        elif monotone[j] == -1:
            np.minimum(column, originals[..., j], out=column)
    return candidates


def _best_of(runs, fn):
    """Minimum wall time of ``fn`` over ``runs`` calls (returns last result)."""
    best = np.inf
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_kernels_vs_legacy_loops(benchmark):
    """The kernels are bitwise-equal to the pre-kernel loops; record per-kernel
    speedups."""
    kernels = resolve_kernels(None)
    (scale, X_hits, hit_candidates, x_wave, wave_candidates, constraints,
     X_sparse, sparse_candidates) = _workload()

    legacy_times: dict[str, float] = {}
    kernel_times: dict[str, float] = {}

    # 1. Batched hit distances (l1, the burden metric).
    legacy_times["distance"], d_legacy = _best_of(3, lambda: _legacy_distance_per_hit(
        X_hits, hit_candidates, scale=scale, metric="l1"))
    kernel_times["distance"], d_kernel = _best_of(3, lambda: (
        kernels.batch_counterfactual_distance(
            X_hits, hit_candidates, scale=scale, metric="l1")))
    assert np.array_equal(d_legacy, d_kernel)

    # 2. Wave projection of the (pending, candidates, d) tensor.
    legacy_times["project"], p_legacy = _best_of(3, lambda: _legacy_project(
        x_wave, wave_candidates, **constraints))
    kernel_times["project"], p_kernel = _best_of(3, lambda: kernels.project_candidates(
        x_wave, wave_candidates, **constraints))
    assert np.array_equal(p_legacy, p_kernel)
    # The column-wise projection must beat the cascade it replaced.
    assert legacy_times["project"] / kernel_times["project"] > 1.0

    # 2b. The whole wave: build + project against the fused offsets form.
    x_rows, table = _wave_workload()
    legacy_times["project_wave"], w_legacy = _best_of(3, lambda: (
        _legacy_build_then_project(x_rows, table, **constraints)))
    key_of = np.zeros(len(x_rows), dtype=np.intp)
    kernel_times["project_wave"], w_kernel = _best_of(3, lambda: kernels.project_candidates(
        x_rows, offsets=table, key_of=key_of, **constraints))
    assert w_legacy.tobytes() == w_kernel.tobytes()

    # 3 + 4. Greedy ranking and the prefix-revert trial chains.
    legacy_times["rank"], orders_legacy = _best_of(3, lambda: _legacy_rank_changed(
        X_sparse, sparse_candidates, scale))
    kernel_times["rank"], ranks = _best_of(3, lambda: kernels.rank_changed_features(
        X_sparse, sparse_candidates, scale))
    # The kernel returns the rank-position matrix (features outside an
    # order rank N_FEATURES, never reverted); the loop returns the orders.
    expected_ranks = np.full((N_SPARSIFY_ROWS, N_FEATURES), N_FEATURES)
    for k, order in enumerate(orders_legacy):
        expected_ranks[k, order] = np.arange(len(order))
    assert np.array_equal(ranks, expected_ranks)

    orders = [list(map(int, order)) for order in orders_legacy]
    legacy_times["prefix_trials"], t_legacy = _best_of(3, lambda: np.vstack([
        _legacy_prefix_trials(sparse_candidates[k], X_sparse[k], orders[k])
        for k in range(N_SPARSIFY_ROWS) if orders[k]
    ]))

    # The whole round in one call: every instance's chain from the kernel's
    # rank matrix.
    lengths = np.asarray([len(order) for order in orders])

    def _kernel_prefix():
        return kernels.build_prefix_revert_trials(sparse_candidates, X_sparse, ranks, lengths)

    kernel_times["prefix_trials"], t_kernel = _best_of(3, _kernel_prefix)
    assert np.array_equal(t_legacy, t_kernel)
    # The whole-round kernel must beat the per-feature chains it replaced.
    assert legacy_times["prefix_trials"] / kernel_times["prefix_trials"] > 1.0

    # One timed pass through the full kernel side for pytest-benchmark stats.
    benchmark.pedantic(lambda: (
        kernels.batch_counterfactual_distance(X_hits, hit_candidates,
                                              scale=scale, metric="l1"),
        kernels.project_candidates(x_wave, wave_candidates, **constraints),
        kernels.rank_changed_features(X_sparse, sparse_candidates, scale),
        _kernel_prefix(),
    ), rounds=1, iterations=1)

    record(benchmark, {
        **{f"{name}_speedup": legacy_times[name] / kernel_times[name]
           for name in kernel_times},
        **{f"legacy_{name}_seconds": value for name, value in legacy_times.items()},
        **{f"kernel_{name}_seconds": value for name, value in kernel_times.items()},
        "n_hit_pairs": N_HITS,
        "wave_shape": f"{N_WAVE_ROWS}x{N_CANDIDATES}x{N_FEATURES}",
        "n_sparsify_rows": N_SPARSIFY_ROWS,
    }, experiment="KERNELS")
