"""Shared workload for the persistent-store benchmarks — importable and runnable.

Not a test module.  It serves three callers with one definition of "the
sweep", so cold and warm runs are guaranteed to fingerprint identically:

* ``benchmarks/test_bench_store.py`` imports :func:`build_session` /
  :func:`run_sweep` for the in-process cold pass;
* the same benchmark launches ``python store_workload.py <store_dir>`` as the
  *fresh-process* warm pass (the acceptance criterion is about new
  processes, so the warm sweep must not share this interpreter);
* CI runs the script twice against a cached store directory to demonstrate
  the warm path across builds (see ``.github/workflows/ci.yml``).

As a script it prints one JSON object: the audit numbers, the sweep wall
time, and the session's store/engine accounting.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from fairexp.core import BurdenExplainer, NAWBExplainer, PreCoFExplainer
from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    GrowingSpheresCounterfactual,
)
from fairexp.models import LogisticRegression


def build_workload(n_samples: int = 500, audit_size: int = 80):
    """The fixed loan workload every store benchmark audits."""
    dataset = make_loan_dataset(n_samples, direct_bias=1.2, recourse_gap=1.0,
                                random_state=0)
    train, test = dataset.split(test_size=0.3, random_state=1)
    model = LogisticRegression(n_iter=1000, random_state=0).fit(train.X, train.y)
    subset = test.subset(np.arange(min(audit_size, test.n_samples)))
    return dataset, train, subset, model


def build_session(store_dir, *, n_samples: int = 500, audit_size: int = 80,
                  n_jobs: int = 1):
    """A store-backed :class:`AuditSession` over the fixed workload."""
    dataset, train, subset, model = build_workload(n_samples, audit_size)
    constraints = ActionabilityConstraints.from_feature_specs(dataset.features)
    generator = GrowingSpheresCounterfactual(model, train.X, constraints=constraints,
                                             random_state=0)
    session = AuditSession(generator, store=store_dir, n_jobs=n_jobs)
    return session, dataset, subset


def run_sweep(session, dataset, subset) -> dict:
    """Burden + NAWB + PreCoF through one session; headline gaps returned."""
    burden = BurdenExplainer(session=session).explain(subset.X, subset.sensitive_values)
    nawb = NAWBExplainer(session=session).explain(subset.X, subset.y,
                                                  subset.sensitive_values)
    precof = PreCoFExplainer(feature_names=dataset.feature_names,
                             sensitive_feature=dataset.sensitive,
                             session=session).explain(subset.X, subset.sensitive_values)
    return {
        "burden_gap": burden.gap,
        "nawb_gap": nawb.gap,
        "precof_sensitive_change_rate": precof.sensitive_change_rate,
    }


def timed_sweep(store_dir, **session_kwargs) -> dict:
    """One full sweep against ``store_dir``: audit numbers + accounting."""
    session, dataset, subset = build_session(store_dir, **session_kwargs)
    start = time.perf_counter()
    numbers = run_sweep(session, dataset, subset)
    elapsed = time.perf_counter() - start
    stats = session.stats()
    return {
        **numbers,
        "sweep_wall_time_seconds": elapsed,
        "engine_predict_calls": stats["engine_predict_calls"],
        "predict_call_count": stats["predict_call_count"],
        "store_row_hits": stats["store_row_hits"],
        "store_entries": stats.get("store_entries", 0),
        "store_hits": stats.get("store_hits", 0),
        "store_misses": stats.get("store_misses", 0),
        "store_bytes_read": stats.get("store_bytes_read", 0),
        "schedule_steps": stats.get("schedule_steps", 0),
        "schedule_draws": stats.get("schedule_draws", 0),
    }


def main(argv: list[str]) -> int:
    store_dir = argv[1] if len(argv) > 1 else os.environ.get("FAIREXP_STORE_DIR", "")
    if not store_dir:
        print("usage: store_workload.py <store_dir>  (or set FAIREXP_STORE_DIR)",
              file=sys.stderr)
        return 2
    print(json.dumps(timed_sweep(store_dir)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
