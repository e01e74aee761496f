"""Declarative sweep orchestration: factorial experiment designs.

Every experiment in this repository used to be a hand-written ``run_eN``
function.  This module replaces that idiom with a declarative one — an
experiment is a :class:`SweepSpec` that *crosses* independent variables
(:class:`Factor` levels: explainers, schedules, predict backends, model
families, datasets) into an execution tree of
:class:`SweepCell` s, the factorial-``Design`` idiom of experiment
orchestration frameworks.  The spec composes pieces that already exist
elsewhere in the package instead of re-implementing them:

* **Planning** — :meth:`SweepSpec.plan` is the cross product of the
  factors' levels in factor-declaration order, restricted by an optional
  ``where`` filter; it builds no workload.  A ``where`` label a factor
  lacks, a factor given no labels, or a ``where`` factor no selected spec
  declares, raises instead of silently widening or emptying the selection.
* **Execution** — :func:`run_sweep` executes emitted cells sequentially
  or over an :class:`~fairexp.explanations.pool.ExecutorPool` (``jobs >
  1``).
  Cells whose runner takes a ``backend`` factor level of ``"remote"``
  score against a loopback fleet server exactly like ``python -m fairexp
  serve``.  Every :class:`~fairexp.explanations.session.AuditSession` a
  cell builds registers itself with the sweep (see :func:`track_session`),
  so each :class:`CellResult` carries uniform accounting — wall time,
  predict calls, engine predict calls, store row hits, pool gauges —
  regardless of which runner produced it.
* **Resume** — with a persistent
  :class:`~fairexp.explanations.store.CounterfactualStore` attached, a
  :class:`SweepJournal` (one atomic JSON file next to the store) records
  every completed cell.  ``resume`` *replays* completed cells: they
  re-execute against the warm store, which costs **zero engine predict
  calls** (the store serves the counterfactual matrices a previous
  process already paid for), and the replayed metrics are verified
  against the journaled ones — a divergence is surfaced as a
  ``"diverged"`` cell status instead of silently overwritten.

The default specs for the paper's experiments (FIG1/FIG2/TAB1 and
E1–E14) are registered by :mod:`fairexp.experiments`;
:class:`SweepRegistry` imports it lazily, so ``SweepRegistry.ids()`` is
always the complete experiment list — the CLI derives its choices from
it rather than maintaining its own.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .exceptions import ValidationError

__all__ = [
    "Factor",
    "SweepSpec",
    "SweepCell",
    "SweepPlan",
    "CellResult",
    "SweepResult",
    "SweepJournal",
    "SweepRegistry",
    "run_sweep",
    "track_session",
    "active_store_dir",
    "is_accounting_key",
]


# --------------------------------------------------------------------------
# Per-cell context: session tracking + store injection
# --------------------------------------------------------------------------
#: Sessions created while a cell executes register here (one bucket per
#: executing cell, context-local so parallel cells never mix).
_SESSION_BUCKET: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "fairexp_sweep_sessions", default=None
)

#: Store directory the current sweep injects into the workload runners
#: (checked by the runners before ``$FAIREXP_STORE_DIR``), so a sweep can be
#: pointed at a store without mutating process-global environment.
_STORE_DIR: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "fairexp_sweep_store_dir", default=None
)


def track_session(session):
    """Register ``session`` with the sweep cell currently executing (if any).

    The workload runners wrap every :class:`AuditSession` they build with
    this hook; outside a sweep it is a no-op passthrough, inside one it is
    how :func:`run_sweep` aggregates uniform per-cell accounting (predict
    calls, engine predict calls, store row hits, pool gauges) without the
    runners having to report anything themselves.
    """
    bucket = _SESSION_BUCKET.get()
    if bucket is not None:
        bucket.append(session)
    return session


def active_store_dir() -> str | None:
    """The store directory the enclosing sweep injected, or ``None``.

    Workload runners consult this before ``$FAIREXP_STORE_DIR`` so
    ``run_sweep(store=...)`` wins over the environment without mutating it.
    """
    return _STORE_DIR.get()


#: Substrings marking a runner result key as *accounting* (predict-call,
#: schedule, cache and pool counters) rather than a metric.  Accounting
#: legitimately differs between a cold run and a store-warmed replay —
#: metric keys must stay bitwise identical, which is exactly what the
#: journal verifies on resume.
_ACCOUNTING_MARKERS = (
    "predict_call",
    "engine_predict",
    "schedule_step",
    "schedule_draw",
    "cf_reused",
    "store_row",
    "cache_hit",
    "pool_",
)


def is_accounting_key(key: str) -> bool:
    """Whether a runner result key is accounting (run-dependent) rather than
    a metric that must replay bitwise from the persistent store."""
    return any(marker in key for marker in _ACCOUNTING_MARKERS)


def _metric_items(results: Mapping[str, Any]) -> dict[str, Any]:
    """The non-accounting (replay-stable) slice of a runner result dict."""
    return {k: v for k, v in results.items() if not is_accounting_key(k)}


def _same_value(a, b) -> bool:
    """``a == b`` for sanitized result values, except that NaN equals NaN
    at the same position — a journal's JSON round-trip builds a new NaN
    object, and ``==`` on containers equates only NaNs that are one object."""
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(_same_value(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_value, a, b))
    return a == b


def _sanitize(value):
    """Coerce a runner result value to a JSON-serializable equivalent."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalars / 0-d arrays
        try:
            return _sanitize(value.item())
        except (TypeError, ValueError):
            pass
    if isinstance(value, Mapping):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return str(value)


# --------------------------------------------------------------------------
# Factors and specs
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Factor:
    """One independent variable of a factorial design.

    Parameters
    ----------
    name:
        The runner keyword argument this factor assigns.
    levels:
        The factor's levels: either a sequence of ``(label, value)`` pairs
        or a mapping ``label -> value``.  The *label* addresses the level in
        cell ids and ``--where`` filters; the *value* is what the runner
        receives.  The first level is the factor's default (used by
        :meth:`SweepSpec.cell` and the legacy-compatible single-cell path),
        so it must reproduce the pre-sweep behaviour.
    """

    name: str
    levels: tuple[tuple[str, Any], ...]

    def __post_init__(self) -> None:
        levels = self.levels
        if isinstance(levels, Mapping):
            levels = tuple(levels.items())
        else:
            levels = tuple(
                pair if isinstance(pair, tuple) else (str(pair), pair)
                for pair in levels
            )
        if not levels:
            raise ValidationError(f"factor {self.name!r} needs at least one level")
        labels = [label for label, _ in levels]
        if len(set(labels)) != len(labels):
            raise ValidationError(
                f"factor {self.name!r} has duplicate level labels: {labels}"
            )
        object.__setattr__(self, "levels", levels)

    @property
    def labels(self) -> tuple[str, ...]:
        """The level labels, in declaration order (first = default)."""
        return tuple(label for label, _ in self.levels)

    def value(self, label: str) -> Any:
        """The runner value behind ``label`` (raises on unknown labels)."""
        for name, value in self.levels:
            if name == label:
                return value
        raise KeyError(
            f"factor {self.name!r} has no level {label!r}; known: {list(self.labels)}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """A declarative factorial experiment: factors crossed into cells.

    Parameters
    ----------
    experiment:
        Stable experiment id (``"E1/E2"``, ``"FIG1"``, ...).
    runner:
        The parameterized workload callable; each cell calls it with
        ``{**fixed, **overrides, **factor_assignments}`` and expects a flat
        result dict back.
    factors:
        The crossed independent variables.  A spec with no factors is a
        single-cell design (the display items FIG1/FIG2/TAB1, e.g.).
    fixed:
        Constant runner kwargs (workload sizes); per-run ``overrides``
        (e.g. CLI ``--set n_samples=250``) replace them for every cell.
    description:
        One line for ``fairexp sweep plan`` listings.
    """

    experiment: str
    runner: Callable[..., dict]
    factors: tuple[Factor, ...] = ()
    fixed: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        names = [factor.name for factor in self.factors]
        if len(set(names)) != len(names):
            raise ValidationError(
                f"spec {self.experiment!r} has duplicate factor names: {names}"
            )

    def factor(self, name: str) -> Factor | None:
        """The factor named ``name``, or ``None`` when the spec lacks it."""
        for factor in self.factors:
            if factor.name == name:
                return factor
        return None

    # -------------------------------------------------------------- planning
    def _where_labels(self, factor: Factor,
                      where: Mapping[str, set[str]]) -> tuple[str, ...]:
        if factor.name not in where:
            return factor.labels
        wanted = where[factor.name]
        unknown = wanted - set(factor.labels)
        if unknown or not wanted:
            problem = f"unknown level(s) {sorted(unknown)}" if unknown else "no level"
            raise ValidationError(
                f"{problem} for factor {factor.name!r} of {self.experiment}; "
                f"known: {list(factor.labels)}"
            )
        return tuple(label for label in factor.labels if label in wanted)

    def plan(self, where: Mapping[str, Iterable[str]] | None = None,
             overrides: Mapping[str, Any] | None = None) -> "SweepPlan":
        """Cross the factors into cells, in factor-declaration order.

        ``where`` restricts factors to subsets of their levels (factors the
        spec lacks are ignored, so one filter can apply across many specs;
        :func:`sweep_plan` rejects a factor no selected spec declares);
        ``overrides`` replace ``fixed`` runner kwargs for every cell.  Every
        assignment of the restricted cross product appears exactly once.
        """
        where = {name: set(labels) for name, labels in (where or {}).items()}
        assignments: list[tuple[tuple[str, str], ...]] = [()]
        for factor in self.factors:
            labels = self._where_labels(factor, where)
            assignments = [
                (*prefix, (factor.name, label))
                for prefix in assignments for label in labels
            ]
        return SweepPlan(emitted=[
            SweepCell(spec=self, assignment=assignment,
                      overrides=dict(overrides or {}))
            for assignment in assignments
        ])

    def cell(self, where: Mapping[str, Iterable[str]] | None = None,
             overrides: Mapping[str, Any] | None = None) -> "SweepCell":
        """The design's *default* cell: the first selected level of each factor.

        This is the cell that reproduces the legacy ``run_eN`` call —
        factor defaults are defined to match the old hard-coded behaviour.
        ``where`` can pin factors first (e.g. ``{"backend": ["onnx"]}``).
        """
        return self.plan(where=where, overrides=overrides).emitted[0]


@dataclass(frozen=True)
class SweepCell:
    """One point of a spec's cross product (an executable cell)."""

    spec: SweepSpec
    assignment: tuple[tuple[str, str], ...]
    overrides: Mapping[str, Any] = field(default_factory=dict)

    @property
    def experiment(self) -> str:
        """The owning spec's experiment id."""
        return self.spec.experiment

    @property
    def cell_id(self) -> str:
        """Stable address of the cell: experiment id + factor assignment."""
        return format_cell_id(self.experiment, self.assignment)

    def params(self) -> dict[str, Any]:
        """The runner kwargs this cell executes with."""
        params = {**self.spec.fixed, **self.overrides}
        for name, label in self.assignment:
            params[name] = self.spec.factor(name).value(label)
        return params

    def digest(self) -> str:
        """Content digest of the cell's full parameterization.

        Folded into the journal so a resume with different overrides (a
        different ``--set n_samples``) re-runs the cell instead of replaying
        results computed under other parameters.
        """
        payload = json.dumps(
            {"experiment": self.experiment,
             "assignment": list(self.assignment),
             "params": _sanitize(self.params())},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def format_cell_id(experiment: str,
                   assignment: Sequence[tuple[str, str]]) -> str:
    """``"E1/E2[backend=onnx,schedule=adaptive]"`` (bare id for 0 factors)."""
    if not assignment:
        return experiment
    inner = ",".join(f"{name}={label}" for name, label in assignment)
    return f"{experiment}[{inner}]"


@dataclass
class SweepPlan:
    """The cells of one or more specs' cross products, in execution order."""

    emitted: list[SweepCell]

    def summary(self) -> dict[str, int]:
        """The planned cell count."""
        return {"emitted_cells": len(self.emitted)}


# --------------------------------------------------------------------------
# Registry of experiment specs
# --------------------------------------------------------------------------
class SweepRegistry:
    """Process-wide registry of experiment :class:`SweepSpec` s.

    The default specs (FIG1/FIG2/TAB1, E1–E14) register when
    :mod:`fairexp.experiments` imports; the accessors trigger that import
    lazily, so :meth:`ids` is always the complete experiment list.  The CLI
    derives its ``run`` choices from here — an experiment that exists
    without being registered is unreachable, which is the point: there is
    no second, hand-maintained list to forget to update.
    """

    _specs: dict[str, SweepSpec] = {}
    _loading = False

    @classmethod
    def register(cls, spec: SweepSpec) -> SweepSpec:
        """Add ``spec`` under its experiment id (re-registration must be identical)."""
        existing = cls._specs.get(spec.experiment)
        if existing is not None and existing.runner is not spec.runner:
            raise ValidationError(
                f"experiment {spec.experiment!r} already registered"
            )
        cls._specs[spec.experiment] = spec
        return spec

    @classmethod
    def _ensure_loaded(cls) -> None:
        if not cls._specs and not cls._loading:
            cls._loading = True
            try:
                from . import experiments  # noqa: F401  (registers default specs)
            finally:
                cls._loading = False

    @classmethod
    def ids(cls) -> list[str]:
        """Every registered experiment id, in registration order."""
        cls._ensure_loaded()
        return list(cls._specs)

    @classmethod
    def specs(cls) -> list[SweepSpec]:
        """Every registered spec, in registration order."""
        cls._ensure_loaded()
        return list(cls._specs.values())

    @classmethod
    def get(cls, experiment: str) -> SweepSpec:
        """The spec registered for ``experiment`` (raises ``KeyError``)."""
        cls._ensure_loaded()
        if experiment not in cls._specs:
            raise KeyError(
                f"no experiment registered as {experiment!r}; "
                f"known: {list(cls._specs)}"
            )
        return cls._specs[experiment]


# --------------------------------------------------------------------------
# Execution results
# --------------------------------------------------------------------------
@dataclass
class CellResult:
    """Outcome of executing one cell: results + uniform accounting."""

    cell_id: str
    experiment: str
    assignment: tuple[tuple[str, str], ...]
    results: dict[str, Any]
    wall_time_seconds: float
    stats: dict[str, Any]
    replayed: bool = False
    status: str = "completed"

    def to_json(self) -> dict[str, Any]:
        """JSON-ready representation (what the journal and ``--json`` emit)."""
        return {
            "cell_id": self.cell_id,
            "experiment": self.experiment,
            "assignment": [list(pair) for pair in self.assignment],
            "status": self.status,
            "replayed": self.replayed,
            "wall_time_seconds": self.wall_time_seconds,
            "stats": self.stats,
            "results": self.results,
        }


@dataclass
class SweepResult:
    """Outcome of a whole sweep: per-cell results plus wall time."""

    cells: list[CellResult]
    wall_time_seconds: float
    store_dir: str | None = None

    def summary(self) -> dict[str, Any]:
        """Aggregate counts and accounting totals across all executed cells."""
        totals: dict[str, float] = {}
        for cell in self.cells:
            for key in ("predict_call_count", "engine_predict_calls",
                        "store_row_hits", "n_results_reused"):
                totals[key] = totals.get(key, 0) + cell.stats.get(key, 0)
        return {
            "emitted_cells": len(self.cells),
            "replayed_cells": sum(1 for c in self.cells if c.replayed),
            "diverged_cells": sum(1 for c in self.cells if c.status == "diverged"),
            "wall_time_seconds": self.wall_time_seconds,
            **{key: int(value) for key, value in totals.items()},
        }

    def to_json(self) -> dict[str, Any]:
        """JSON-ready representation of the full sweep outcome."""
        return {
            "summary": self.summary(),
            "store_dir": self.store_dir,
            "cells": [cell.to_json() for cell in self.cells],
        }

    def bench_point(self) -> dict[str, Any]:
        """Flat record for the ``BENCH_SWEEP.json`` trajectory."""
        point = {"store_dir": self.store_dir, **self.summary()}
        for cell in self.cells:
            prefix = cell.cell_id
            point[f"{prefix}:wall_time_seconds"] = cell.wall_time_seconds
            point[f"{prefix}:engine_predict_calls"] = cell.stats.get(
                "engine_predict_calls", 0)
            point[f"{prefix}:store_row_hits"] = cell.stats.get("store_row_hits", 0)
        return point


# --------------------------------------------------------------------------
# Journal (crash-safe resume bookkeeping)
# --------------------------------------------------------------------------
class SweepJournal:
    """Atomic JSON journal of completed cells, for mid-sweep crash resume.

    One file, rewritten atomically (`tmp` + ``os.replace``) after every
    completed cell, so a killed sweep leaves a readable journal of exactly
    the cells that finished.  Each record carries the cell's parameter
    :meth:`~SweepCell.digest` (a resume with different overrides re-runs
    instead of replaying), its accounting stats, and its sanitized results
    (so a replay can verify the warm re-execution reproduced the journaled
    metrics bitwise).
    """

    VERSION = 1

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: dict[str, dict] = self._read()

    def _read(self) -> dict[str, dict]:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict) or payload.get("version") != self.VERSION:
            return {}
        cells = payload.get("cells")
        return dict(cells) if isinstance(cells, dict) else {}

    def __len__(self) -> int:
        return len(self._records)

    def completed(self, cell: SweepCell) -> dict | None:
        """The journaled record for ``cell`` (same digest), else ``None``."""
        record = self._records.get(cell.cell_id)
        if record is None or record.get("digest") != cell.digest():
            return None
        if record.get("status") != "completed":
            return None
        return record

    def record(self, cell: SweepCell, result: CellResult) -> None:
        """Journal a finished cell (atomic write; thread-safe)."""
        entry = {
            "digest": cell.digest(),
            "status": result.status,
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "wall_time_seconds": result.wall_time_seconds,
            "stats": result.stats,
            "results": result.results,
        }
        with self._lock:
            self._records[cell.cell_id] = entry
            payload = {"version": self.VERSION, "cells": self._records}
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text(json.dumps(payload, indent=2) + "\n")
            os.replace(tmp, self.path)

    def reset(self) -> None:
        """Drop every record (a fresh ``run`` starts a fresh journal)."""
        with self._lock:
            self._records = {}
            if self.path.exists():
                self.path.unlink()

    @staticmethod
    def default_path(store_dir) -> Path:
        """Where a sweep journals next to a persistent store directory."""
        return Path(store_dir) / "SWEEP_JOURNAL.json"


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------
def _fold_session_stats(sessions: list) -> dict[str, Any]:
    """Aggregate the tracked sessions' accounting into one flat dict.

    Numeric stats sum across sessions (predict calls, store hits, pool
    gauges); non-numeric ones keep the last session's value.  Cells that build no session (display items, mitigation) report
    zeros, which keeps the :class:`CellResult` schema uniform.
    """
    stats: dict[str, Any] = {
        "n_sessions": len(sessions),
        "predict_call_count": 0,
        "engine_predict_calls": 0,
        "store_row_hits": 0,
        "n_results_reused": 0,
    }
    for session in sessions:
        for key, value in session.stats().items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                stats[key] = stats.get(key, 0) + value
            else:
                stats[key] = value
    return stats


def _execute_cell(cell: SweepCell, store_dir: str | None) -> CellResult:
    """Run one cell in its own tracking context and fold its accounting."""
    bucket: list = []
    bucket_token = _SESSION_BUCKET.set(bucket)
    store_token = _STORE_DIR.set(store_dir)
    start = time.perf_counter()
    try:
        results = cell.spec.runner(**cell.params())
    finally:
        _SESSION_BUCKET.reset(bucket_token)
        _STORE_DIR.reset(store_token)
    wall = time.perf_counter() - start
    return CellResult(
        cell_id=cell.cell_id,
        experiment=cell.experiment,
        assignment=cell.assignment,
        results={key: _sanitize(value) for key, value in results.items()},
        wall_time_seconds=wall,
        stats=_sanitize(_fold_session_stats(bucket)),
    )


def _resolve_specs(specs) -> list[SweepSpec]:
    if specs is None:
        return SweepRegistry.specs()
    resolved: list[SweepSpec] = []
    for spec in specs:
        if isinstance(spec, SweepSpec):
            resolved.append(spec)
        else:
            try:
                resolved.append(SweepRegistry.get(spec))
            except KeyError as error:
                raise ValidationError(str(error)) from None
    return resolved


def sweep_plan(specs=None, *, where=None, overrides=None) -> SweepPlan:
    """Plan (but do not execute) a sweep over ``specs``.

    ``specs`` is a list of experiment ids and/or :class:`SweepSpec` objects
    (``None`` = every registered spec); ``where``/``overrides`` as in
    :meth:`SweepSpec.plan`, except that a ``where`` factor none of the
    selected specs declares raises :class:`ValidationError`.
    """
    resolved = _resolve_specs(specs)
    declared = {factor.name for spec in resolved for factor in spec.factors}
    unknown = set(where or ()) - declared
    if unknown:
        raise ValidationError(
            f"unknown factor(s) {sorted(unknown)} in where; the selected "
            f"specs have: {sorted(declared)}"
        )
    return SweepPlan(emitted=[
        cell for spec in resolved
        for cell in spec.plan(where=where, overrides=overrides).emitted
    ])


def run_sweep(specs=None, *, where=None, overrides=None, store=None,
              journal=None, resume: bool = False, jobs: int = 1,
              on_cell: Callable[[CellResult, int, int], None] | None = None
              ) -> SweepResult:
    """Plan and execute a sweep; returns the full :class:`SweepResult`.

    Parameters
    ----------
    specs, where, overrides:
        As in :func:`sweep_plan`.
    store:
        Directory of a persistent
        :class:`~fairexp.explanations.store.CounterfactualStore` injected
        into every cell's sessions (``None`` falls back to
        ``$FAIREXP_STORE_DIR``, matching the standalone runners).
    journal:
        Path of the :class:`SweepJournal`; defaults to
        ``SWEEP_JOURNAL.json`` inside ``store`` when one is given.  A fresh
        run resets the journal; a ``resume=True`` run requires it.
    resume:
        Resume semantics: cells already journaled (same digest) are
        *replayed* — re-executed against the warm store, which costs zero
        engine predict calls — and their metric (non-accounting) results
        are verified against the journal; a mismatch marks the cell
        ``"diverged"``.  Cells not journaled run normally.
    jobs:
        ``jobs > 1`` distributes cells over the thread executor of an
        :class:`~fairexp.explanations.pool.ExecutorPool` the sweep owns.
    on_cell:
        Callback ``(cell_result, n_done, n_total)`` after every completed
        cell — progress reporting, or crash-injection in tests.
    """
    from .explanations.pool import ExecutorPool

    plan = sweep_plan(specs, where=where, overrides=overrides)
    store_dir = str(store) if store is not None else \
        (os.environ.get("FAIREXP_STORE_DIR", "").strip() or None)
    journal_path = journal
    if journal_path is None and store_dir is not None:
        journal_path = SweepJournal.default_path(store_dir)
    book = SweepJournal(journal_path) if journal_path is not None else None
    if resume:
        if book is None:
            raise ValidationError(
                "resume needs a journal: pass journal= or store= (the journal "
                "lives next to the store)"
            )
    elif book is not None:
        book.reset()
    if store_dir is not None:
        Path(store_dir).mkdir(parents=True, exist_ok=True)

    replay_records = {
        cell.cell_id: book.completed(cell)
        for cell in plan.emitted
    } if book is not None else {}
    total = len(plan.emitted)
    done_lock = threading.Lock()
    done = 0
    start = time.perf_counter()

    def run_one(cell: SweepCell) -> CellResult:
        nonlocal done
        journaled = replay_records.get(cell.cell_id)
        result = _execute_cell(cell, store_dir)
        if journaled is not None:
            result.replayed = True
            if not _same_value(_metric_items(result.results),
                               _metric_items(journaled["results"])):
                result.status = "diverged"
        if book is not None:
            book.record(cell, result)
        with done_lock:
            done += 1
            n_done = done
        if on_cell is not None:
            on_cell(result, n_done, total)
        return result

    if jobs > 1 and total > 1:
        with ExecutorPool(max_workers=jobs) as executor_pool:
            cells = executor_pool.map("thread", run_one, plan.emitted)
    else:
        cells = [run_one(cell) for cell in plan.emitted]

    return SweepResult(
        cells=list(cells),
        wall_time_seconds=time.perf_counter() - start,
        store_dir=store_dir,
    )
