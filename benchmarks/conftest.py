"""Shared helpers for the benchmark harness.

Every benchmark wraps one experiment runner from :mod:`fairexp.experiments`,
records its headline numbers in ``benchmark.extra_info`` (so they appear in
the pytest-benchmark output next to the timings), and asserts the qualitative
*shape* claims listed in DESIGN.md / EXPERIMENTS.md.

Counterfactual-heavy benchmarks additionally record the number of
``model.predict`` invocations (via
:class:`fairexp.explanations.BatchModelAdapter`), so the BENCH_*.json
trajectory tracks predict-call reduction and not just wall time.

Passing ``experiment="E1_E2"`` (or any display-item id) to :func:`record`
appends one trajectory point — wall time, predict-call counters and the
headline numbers — to ``benchmarks/artifacts/BENCH_<experiment>.json``.
Each run appends, so the file accumulates the per-run trajectory the ROADMAP
asks for; CI uploads the directory as a build artifact.  Set
``FAIREXP_BENCH_DIR`` to redirect the artifact directory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

ARTIFACT_DIR = Path(os.environ.get("FAIREXP_BENCH_DIR",
                                   Path(__file__).resolve().parent / "artifacts"))
MAX_TRAJECTORY_POINTS = 1000


def _scalar(value):
    """Coerce an extra_info value to something JSON-serializable."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float, str)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars (and 0-d arrays)
        try:
            return _scalar(value.item())
        except (TypeError, ValueError):
            pass
    return str(value)


def _wall_time_seconds(benchmark) -> float | None:
    """Mean wall time of the benchmark run, if pytest-benchmark captured one."""
    stats = getattr(benchmark, "stats", None)
    inner = getattr(stats, "stats", None)
    try:
        return float(inner.mean) if inner is not None else None
    except (AttributeError, TypeError, ZeroDivisionError):
        return None


def emit_trajectory(experiment: str, benchmark, payload: dict) -> Path:
    """Append one BENCH_<experiment>.json trajectory point and return its path."""
    safe = experiment.replace("/", "_").replace(" ", "_")
    path = ARTIFACT_DIR / f"BENCH_{safe}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        trajectory = json.loads(path.read_text())
        if not isinstance(trajectory, list):
            trajectory = []
    except (OSError, ValueError):
        trajectory = []
    point = {
        "experiment": experiment,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_seconds": _wall_time_seconds(benchmark),
        **{key: _scalar(value) for key, value in payload.items()},
    }
    trajectory.append(point)
    path.write_text(json.dumps(trajectory[-MAX_TRAJECTORY_POINTS:], indent=2) + "\n")
    return path


def record(benchmark, results: dict, *, adapter=None, experiment: str | None = None) -> dict:
    """Attach experiment results (minus long renders) to the benchmark record.

    When ``adapter`` (a :class:`~fairexp.explanations.BatchModelAdapter` or
    an :class:`~fairexp.explanations.AuditSession`) is given, its
    predict-call counters are recorded alongside the results.  With
    ``experiment`` the record is additionally appended to the experiment's
    ``BENCH_<experiment>.json`` wall-time / predict-call trajectory.
    """
    for key, value in results.items():
        if key == "rendered":
            continue
        benchmark.extra_info[key] = value
    if adapter is not None:
        benchmark.extra_info["predict_call_count"] = adapter.predict_call_count
        benchmark.extra_info["predict_row_count"] = adapter.predict_row_count
        benchmark.extra_info["predict_cache_hits"] = getattr(adapter, "cache_hit_count", 0)
        # Sessions expose richer accounting (schedule steps/draws, store-level
        # bytes read, row hits and entry ages): fold all of it into the
        # trajectory record so the BENCH_*.json curves track the search and
        # store behaviour, not just wall time and predict calls.
        stats = getattr(adapter, "stats", None)
        if callable(stats):
            for key, value in stats().items():
                benchmark.extra_info.setdefault(key, value)
    if experiment is not None:
        emit_trajectory(experiment, benchmark, dict(benchmark.extra_info))
    return results
