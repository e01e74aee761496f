"""One generated invariance matrix: an audit's numbers never depend on how
they were computed.

The cases are built from :class:`~fairexp.sweep.SweepRegistry`, so a new
spec or a new factor level adds cases without editing this module.  Every
cell of every registered spec is grouped by all of its factors except
``backend``; a group's runs vary only the invariant axes, declared here and
nowhere else:

* **backend** — every level of the spec's ``backend`` factor (``numpy``,
  ``onnx``, ``remote``);
* **store** — every run executes twice against a fresh store: cold, then
  warm (served from what the cold run published);
* **shard count** — groups whose runner takes ``n_jobs`` repeat every
  backend at ``n_jobs=2`` (thread shards over the shared backend), and run
  once more under a GIL-holding ``CallablePredictBackend``, which takes the
  process path.

Across the runs of a group every result key must be bitwise-equal, except
the accounting keys in :data:`ACCOUNTING_PREFIXES`.  For cells that publish
to the store, the sorted digests of the payload files must be equal too:
fingerprints differ by backend, payloads must not.  :data:`ULP_SHARDED`
names the one known exception.  A worker process killed in the middle of a
process-sharded map is a fault, generated by ``tests/test_faults.py``.
"""

import functools
import hashlib
import inspect
import json
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest

from fairexp import workloads
from fairexp.explanations import CallablePredictBackend, session as session_module
from fairexp.explanations.pool import ExecutorPool
from fairexp.sweep import (
    CellResult,
    SweepRegistry,
    SweepSpec,
    format_cell_id,
    run_sweep,
)

#: The factor whose levels must not change a result.
BACKEND = "backend"

#: Result keys that count the work a run did (or name its backend) rather
#: than measure fairness: they differ across the axes by design.
ACCOUNTING_PREFIXES = ("predict_calls", "engine_predict_calls", "schedule_steps",
                       "schedule_draws", "cf_reused", "predict_backend")

#: Factor levels whose stored counterfactuals move by an ulp with the shard
#: count: ``gradient`` steps along the model's ``gradient_input``, whose
#: ``X @ coef_`` BLAS sums differently as the batch grows (the counterfactuals
#: agree to ~1e-13).  Their shard cases compare every metric bitwise, but not
#: the payloads.
ULP_SHARDED = {("explainer", "gradient")}

#: Every integer fixed runner argument (workload sizes) is divided by this.
SHRINK = 2


@dataclass(frozen=True)
class Group:
    """The cells of one spec that differ only in their backend level."""

    spec: SweepSpec
    assignment: tuple[tuple[str, str], ...]

    @property
    def id(self) -> str:
        return format_cell_id(self.spec.experiment, self.assignment)

    @property
    def backends(self) -> tuple[str | None, ...]:
        factor = self.spec.factor(BACKEND)
        return factor.labels if factor is not None else (None,)

    @property
    def shards(self) -> bool:
        return "n_jobs" in inspect.signature(self.spec.runner).parameters


@dataclass(frozen=True)
class Run:
    """One configuration, executed cold and then warm against one store."""

    cold: CellResult
    warm: CellResult
    payloads: list[str]
    fingerprints: frozenset[str]


def _groups() -> list[Group]:
    groups = {}
    for spec in SweepRegistry.specs():
        for cell in spec.plan().emitted:
            rest = tuple(pair for pair in cell.assignment if pair[0] != BACKEND)
            groups.setdefault((spec.experiment, rest), Group(spec, rest))
    return list(groups.values())


GROUPS = _groups()
SHARDED = [group for group in GROUPS if group.shards]


def _run(group: Group, backend: str | None, **overrides) -> Run:
    where = {name: [label] for name, label in group.assignment}
    if backend is not None:
        where[BACKEND] = [backend]
    overrides = {**{name: value // SHRINK for name, value in group.spec.fixed.items()
                    if isinstance(value, int)}, **overrides}
    with tempfile.TemporaryDirectory() as store:
        cold, warm = (run_sweep([group.spec], where=where, overrides=overrides,
                                store=store).cells[0] for _ in range(2))
        manifests = [json.loads(path.read_text()) for path in Path(store).glob("*.json")
                     if path.name != "SWEEP_JOURNAL.json"]
        # The manifests' checksums fold the fingerprint in; the bytes do not.
        payloads = sorted(hashlib.sha256((Path(store) / m["payload"]).read_bytes())
                          .hexdigest() for m in manifests)
    if manifests:
        # The warm run is served from what the cold run published.
        assert warm.stats["engine_predict_calls"] == 0
        assert warm.stats["store_row_hits"] == sum(m["n_rows"] for m in manifests)
    return Run(cold=cold, warm=warm, payloads=payloads,
               fingerprints=frozenset(m["fingerprint"] for m in manifests))


@functools.lru_cache(maxsize=None)
def _reference(group_id: str) -> Run:
    """The group's first backend level, ``n_jobs`` at its default."""
    group = next(group for group in GROUPS if group.id == group_id)
    return _run(group, group.backends[0])


def _bits(value):
    """``value`` with every float spelled exactly, so ``==`` is bitwise."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_bits(item) for item in value]
    return value


def _metrics(results: dict) -> dict:
    return _bits({key: value for key, value in results.items()
                  if not key.startswith(ACCOUNTING_PREFIXES)})


def _assert_invariant(run: Run, reference: Run, payloads: bool = True) -> None:
    expected = _metrics(reference.cold.results)
    assert _metrics(run.cold.results) == expected
    assert _metrics(run.warm.results) == expected
    if payloads:
        assert run.payloads == reference.payloads


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """No ambient store, and no session starts more than two workers of
    either kind."""
    monkeypatch.delenv("FAIREXP_STORE_DIR", raising=False)
    monkeypatch.setattr(session_module, "ExecutorPool",
                        functools.partial(ExecutorPool, max_workers=2))


@contextmanager
def _predicting_with(fn):
    """Every model a runner serves predicts through ``fn(model)`` instead."""
    @contextmanager
    def fleet(models, backend):
        yield [CallablePredictBackend(fn(model)) for model in models]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workloads, "_serving_fleet", fleet)
        yield


def _bitwise_shards(group: Group) -> bool:
    return ULP_SHARDED.isdisjoint(group.assignment)


def _ids(groups):
    return [group.id for group in groups]


@pytest.mark.parametrize("group", GROUPS, ids=_ids(GROUPS))
def test_backends_and_store(group):
    reference = _reference(group.id)
    assert _metrics(reference.warm.results) == _metrics(reference.cold.results)
    for backend in group.backends[1:]:
        run = _run(group, backend)
        _assert_invariant(run, reference)
        # Same rows scored wherever they are scored; keyed apart in the store.
        assert run.cold.stats.get("predict_row_count") == \
            reference.cold.stats.get("predict_row_count")
        assert run.fingerprints.isdisjoint(reference.fingerprints)


@pytest.mark.parametrize("group", SHARDED, ids=_ids(SHARDED))
def test_thread_shards(group):
    reference = _reference(group.id)
    for backend in group.backends:
        run = _run(group, backend, n_jobs=2)
        _assert_invariant(run, reference, payloads=_bitwise_shards(group))
        stats = run.cold.stats
        assert stats["pool_thread_executors_created"] > 0
        assert stats["pool_process_executors_created"] == 0
        if backend == group.backends[0]:
            assert run.fingerprints == reference.fingerprints


@pytest.mark.parametrize("group", SHARDED, ids=_ids(SHARDED))
def test_process_shards(group):
    with _predicting_with(lambda model: model.predict):
        run = _run(group, group.backends[0], n_jobs=2)
    _assert_invariant(run, _reference(group.id), payloads=_bitwise_shards(group))
    stats = run.cold.stats
    assert stats["pool_process_executors_created"] > 0
    assert stats["pool_thread_executors_created"] == 0


def test_accounting_prefixes_name_real_keys():
    """Each excluded prefix names a key some runner returns today; a stale
    entry could otherwise swallow a future metric sharing its prefix."""
    keys = {key for group in GROUPS for key in _reference(group.id).cold.results}
    for prefix in ACCOUNTING_PREFIXES:
        assert any(key.startswith(prefix) for key in keys), prefix
