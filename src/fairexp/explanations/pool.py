"""Persistent executor pools for sharded search, one per session.

Before this module existed, every sharded
:meth:`~fairexp.explanations.engine.CounterfactualEngine.generate_aligned`
call constructed (and tore down) its own ``ThreadPoolExecutor`` or
``ProcessPoolExecutor``.  Thread pools make that merely wasteful; process
pools make it expensive — each call re-spawned workers, re-imported numpy
and re-unpickled the model, easily dwarfing the shard work itself on the
multi-audit sweeps an :class:`~fairexp.explanations.session.AuditSession`
runs.

:class:`ExecutorPool` amortizes that: one pool object owns at most one live
executor per kind (``"thread"`` / ``"process"``), created lazily on first
use and reused by every subsequent sharded pass — an
:class:`~fairexp.explanations.session.AuditSession` builds one pool and
threads it into every engine call, so a whole sweep over a GIL-holding
backend constructs exactly **one** ``ProcessPoolExecutor`` (asserted via a
counting factory double in ``tests/explanations/test_pool.py``).  Shard
*results* are unaffected: shards are deterministic and an instance's
candidate offsets depend only on the seed and its own (draws consumed,
rung) — never on which shard or batch it lands in — so pooled and per-call
execution are bitwise-identical.

Every executor lives in a generation record that counts in-flight
:meth:`~ExecutorPool.map` passes.  ``reset()`` retires the record (the next
request builds a fresh executor) but defers the actual ``shutdown`` until
the last in-flight pass drains, so a reset can never shut an executor out
from under a running ``map``.

Shutdown is deterministic: pools are context managers, and the session's
own context-manager exit closes the pool it created.  A broken process pool
(e.g. a worker killed mid-sweep) is :meth:`~ExecutorPool.reset` by the
engine, which then falls back to thread sharding for that call; the next
process-sharded call lazily builds a fresh pool.
:meth:`~ExecutorPool.stats` exposes utilization — busy workers and queue
depth per kind — which sessions fold into their own ``stats()``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from ..exceptions import ValidationError
from ..lint.tsan import guard_counters, make_lock

__all__ = ["ExecutorPool"]

_KINDS = ("thread", "process")


@guard_counters("inflight", "pending", "peak_pending", lock_attr="_tsan_lock")
class _ExecutorRecord:
    """One executor generation: the live executor plus its usage counters.

    ``inflight`` counts :meth:`ExecutorPool.map` passes currently running on
    this executor; ``pending`` counts submitted-but-unfinished tasks (the
    busy-worker/queue-depth observable).  A retired record (its pool called
    ``reset``) shuts its executor down only once ``inflight`` drains to
    zero, so resets never yank an executor from under a running pass.
    """

    __slots__ = ("executor", "kind", "generation", "workers", "inflight",
                 "pending", "peak_pending", "retired", "_tsan_lock",
                 "__weakref__")

    def __init__(self, executor, kind: str, generation: int, workers: int,
                 lock=None) -> None:
        # The owning pool's lock, exposed so the FAIREXP_TSAN counter guard
        # can verify mutations happen under it (None outside tsan runs).
        self._tsan_lock = lock
        self.executor = executor
        self.kind = kind
        self.generation = generation
        self.workers = workers
        self.inflight = 0
        self.pending = 0
        self.peak_pending = 0
        self.retired = False


class ExecutorPool:
    """Lazy, reusable thread/process executor pair with deterministic shutdown.

    Parameters
    ----------
    max_workers:
        Worker count for each executor this pool creates.  ``None`` (the
        default) sizes executors to the machine: ``os.cpu_count()``.
        Sizing is fixed at creation — a later request needing more shards
        than workers simply queues them, which cannot change results
        (shards are deterministic and independent).
    thread_factory, process_factory:
        Executor constructors, injectable so tests can count constructions
        or substitute doubles.  Defaults are the ``concurrent.futures``
        classes.

    Attributes
    ----------
    created_counts:
        Mapping ``kind -> number of executors constructed`` over the pool's
        lifetime — the observable the "exactly one ProcessPoolExecutor per
        session sweep" acceptance test asserts on.
    """

    def __init__(self, *, max_workers: int | None = None,
                 thread_factory=ThreadPoolExecutor,
                 process_factory=ProcessPoolExecutor) -> None:
        self.max_workers = max_workers
        self._factories = {"thread": thread_factory, "process": process_factory}
        self._records: dict[str, _ExecutorRecord] = {}
        self.created_counts: dict[str, int] = {kind: 0 for kind in _KINDS}
        self._generation = 0
        self._lock = make_lock()
        self._closed = False

    # ------------------------------------------------------------ executors
    def _record(self, kind: str, *, lease: bool = False) -> _ExecutorRecord:
        """The live record of ``kind``, created lazily (caller holds no lock).

        With ``lease=True`` the in-flight count is taken under the same
        lock acquisition that resolved the record, so a concurrent
        :meth:`reset` can never observe the record lease-free and shut its
        executor down between resolution and the lease being taken.
        """
        if kind not in _KINDS:
            raise ValidationError(f"executor kind must be one of {_KINDS}, got {kind!r}")
        with self._lock:
            if self._closed:
                raise ValidationError("ExecutorPool is closed")
            record = self._records.get(kind)
            if record is None:
                workers = self.max_workers or os.cpu_count() or 1
                self._generation += 1
                record = _ExecutorRecord(self._factories[kind](max_workers=workers),
                                         kind, self._generation, workers,
                                         lock=self._lock)
                self._records[kind] = record
                self.created_counts[kind] += 1
            if lease:
                record.inflight += 1
            return record

    def executor(self, kind: str):
        """The live executor of ``kind`` (``"thread"`` / ``"process"``),
        created lazily on first request and reused afterwards.

        Prefer :meth:`map` for sharded passes: direct executor access is
        not generation-tracked, so a concurrent ``reset`` may shut the
        returned executor down mid-use.
        """
        return self._record(kind).executor

    def map(self, kind: str, fn, *iterables) -> list:
        """Run ``fn`` over ``zip(*iterables)`` on the ``kind`` executor.

        Equivalent to ``list(executor.map(fn, *iterables))`` — results in
        input order, the first raising task re-raising here — but
        generation-safe and instrumented: the pass holds an in-flight lease
        on its executor (a concurrent :meth:`reset` defers the shutdown
        until the pass drains) and per-task completion feeds the
        busy-worker / queue-depth numbers :meth:`stats` reports.
        """
        record = self._record(kind, lease=True)
        try:
            def task_done(_future, record=record):
                with self._lock:
                    record.pending -= 1

            futures = []
            for args in zip(*iterables):
                with self._lock:
                    record.pending += 1
                    record.peak_pending = max(record.peak_pending, record.pending)
                try:
                    future = record.executor.submit(fn, *args)
                except RuntimeError as error:
                    # A concurrent shutdown() closed this executor between
                    # our lease and the submit; surface it as the pool-level
                    # error every other closed-pool path raises.  (A reset()
                    # can never trigger this — retired executors drain their
                    # leases before shutting down.)
                    with self._lock:
                        record.pending -= 1
                        closed = self._closed
                    for submitted in futures:
                        submitted.cancel()
                    if closed:
                        raise ValidationError("ExecutorPool is closed") from error
                    raise
                future.add_done_callback(task_done)
                futures.append(future)
            return [future.result() for future in futures]
        finally:
            self._release_lease(record)

    def _release_lease(self, record: _ExecutorRecord) -> None:
        with self._lock:
            record.inflight -= 1
            shutdown_now = record.retired and record.inflight == 0
        if shutdown_now:
            record.executor.shutdown(wait=False, cancel_futures=True)

    def active_kinds(self) -> list[str]:
        """Kinds whose executor is currently alive (constructed, not reset)."""
        with self._lock:
            return sorted(self._records)

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-kind pool utilization: executors created over the pool's
        lifetime, configured workers, busy workers and queue depth.

        ``busy_workers`` is the number of workers currently executing a
        task (pending tasks capped at the worker count); ``queue_depth`` is
        how many submitted tasks are waiting for a free worker; both are
        ``0`` for kinds without a live executor.  ``peak_pending`` is the
        high-water mark of submitted-but-unfinished tasks over the live
        executor's lifetime — the saturation observable the sustained-load
        serving benchmark records.
        """
        with self._lock:
            stats: dict[str, dict[str, int]] = {}
            for kind in _KINDS:
                record = self._records.get(kind)
                pending = record.pending if record is not None else 0
                workers = record.workers if record is not None else 0
                stats[kind] = {
                    "executors_created": self.created_counts[kind],
                    "workers": workers,
                    "busy_workers": min(pending, workers),
                    "queue_depth": max(0, pending - workers),
                    "peak_pending": record.peak_pending if record is not None else 0,
                }
            return stats

    # ------------------------------------------------------------- lifecycle
    def reset(self, kind: str) -> None:
        """Retire one executor so the next request builds a fresh one.

        This is the engine's escape hatch for a broken process pool: the
        record is forgotten immediately (new requests get a new generation)
        but the dead executor is only shut down once every in-flight
        :meth:`map` pass on it has drained — a reset can never yank an
        executor out from under another thread's running pass.
        """
        with self._lock:
            record = self._records.pop(kind, None)
            if record is None:
                return
            record.retired = True
            shutdown_now = record.inflight == 0
        if shutdown_now:
            record.executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Shut down every live executor; the pool refuses further use."""
        with self._lock:
            records = list(self._records.values())
            self._records.clear()
            self._closed = True
        for record in records:
            record.executor.shutdown(wait=wait)

    def __del__(self):
        # Best-effort backstop for callers that never reach close()/__exit__:
        # when the last reference to the pool (typically its owning
        # AuditSession) is collected, live workers are shut down instead of
        # lingering until interpreter exit.  Deterministic teardown still
        # belongs to the context manager / shutdown().
        try:
            self.shutdown(wait=False)
        except Exception:  # fairexp: noqa[FX004] - __del__ must never raise
            pass

    def __enter__(self) -> "ExecutorPool":
        """Enter a ``with`` block; the pool shuts down on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Deterministically shut down all executors on block exit."""
        self.shutdown()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ",".join(self.active_kinds()) or "idle"
        return f"ExecutorPool(max_workers={self.max_workers}, {state})"

