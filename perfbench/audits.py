"""The three audit workloads and the checks run on their outputs.

Every workload is built from the public API the way
``fairexp.workloads.run_e1_e2_burden_nawb`` builds experiment E1: a loan
dataset, a logistic model and a ``growing_spheres`` generator in an
:class:`~fairexp.explanations.AuditSession`, then a
:class:`~fairexp.core.BurdenExplainer` and a
:class:`~fairexp.core.NAWBExplainer` on the same session, default geometric
schedule, ``n_jobs=1``.  Inputs depend only on the seed.

A workload object does its set-up in ``__init__``; ``run_pass`` is one timed
audit pass (session construction to explainer results); ``tidy`` removes a
pass's leftovers outside the timed region; ``check`` verifies the last
pass's outputs and returns a list of failures.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from fairexp.core import BurdenExplainer, NAWBExplainer
from fairexp.datasets import make_loan_dataset
from fairexp.exceptions import InfeasibleRecourseError
from fairexp.explanations import (
    ActionabilityConstraints,
    AuditSession,
    CoalescingScoringClient,
    CounterfactualStore,
    ExplainerRegistry,
    RemoteScoringBackend,
    ScoringServer,
    batch_counterfactual_distance,
    export_model,
)
from fairexp.models import LogisticRegression

#: (label, direct_bias, recourse_gap) of E1's two populations.
POPULATIONS = (("biased", 1.2, 1.0), ("fair", 0.0, 0.0))

#: Rows per population pushed through the sequential ``generate`` reference.
SEQUENTIAL_SAMPLE = 8


@dataclass
class Population:
    """One audited population: its data, fitted model and audited rows."""

    label: str
    dataset: object
    train: object
    audited: object
    model: object
    seed: int

    def generator(self):
        """A fresh ``growing_spheres`` generator over this population."""
        constraints = ActionabilityConstraints.from_feature_specs(self.dataset.features)
        return ExplainerRegistry.get("growing_spheres")(
            self.model, self.train.X, constraints=constraints, random_state=self.seed,
        )


@dataclass
class Audit:
    """Burden and NAWB results of one session, plus its predict accounting."""

    burden: object
    nawb: object
    predict_calls: int
    predict_rows: int
    engine_predict_calls: int


def build_population(label, direct_bias, recourse_gap, *, n_samples, audit_size,
                     seed) -> Population:
    """Data generation and model fit, exactly as E1 does them."""
    dataset = make_loan_dataset(n_samples, direct_bias=direct_bias,
                                recourse_gap=recourse_gap, random_state=seed)
    train, test = dataset.split(test_size=0.3, random_state=seed + 1)
    model = LogisticRegression(n_iter=1200, random_state=0).fit(train.X, train.y)
    audited = test.subset(np.arange(min(audit_size, test.n_samples)))
    return Population(label, dataset, train, audited, model, seed)


def run_audit(session: AuditSession, rows) -> Audit:
    """Burden then NAWB through one shared session."""
    burden = BurdenExplainer(session=session).explain(rows.X, rows.sensitive_values)
    nawb = NAWBExplainer(session=session).explain(rows.X, rows.y, rows.sensitive_values)
    stats = session.stats()
    return Audit(burden, nawb, stats["predict_call_count"], stats["predict_row_count"],
                 stats["engine_predict_calls"])


# ------------------------------------------------------------------ checks
def counterfactuals_of(audit: Audit) -> list:
    """Every counterfactual the burden audit returned, protected group first."""
    return audit.burden.counterfactuals[1] + audit.burden.counterfactuals[0]


def same_results(a: Audit, b: Audit) -> bool:
    """Bitwise equality of two audits' counterfactuals and metrics."""
    cfs_a, cfs_b = counterfactuals_of(a), counterfactuals_of(b)
    if len(cfs_a) != len(cfs_b):
        return False
    for x, y in zip(cfs_a, cfs_b):
        if not (np.array_equal(x.original, y.original)
                and np.array_equal(x.counterfactual, y.counterfactual)
                and x.distance == y.distance):
            return False
    return (a.burden.as_dict() == b.burden.as_dict()
            and a.nawb.as_dict() == b.nawb.as_dict())


def check_counterfactuals(population: Population, audit: Audit) -> list[str]:
    """Re-verify every returned counterfactual against the bare model, and a
    seeded sample of them against the sequential ``generate`` reference."""
    label = population.label
    cfs = counterfactuals_of(audit)
    if not cfs:
        return [f"{label}: the audit returned no counterfactuals"]
    reference = population.generator()
    originals = np.stack([cf.original for cf in cfs])
    counterfactuals = np.stack([cf.counterfactual for cf in cfs])
    reported = np.asarray([cf.distance for cf in cfs])
    failures = []
    predictions = population.model.predict(counterfactuals)
    if not np.all(predictions == reference.target_class):
        failures.append(f"{label}: {int(np.sum(predictions != reference.target_class))} "
                        "counterfactuals miss the target class")
    feasible = reference.constraints.is_feasible(originals, counterfactuals)
    if not np.all(feasible):
        failures.append(f"{label}: {int(np.sum(~feasible))} counterfactuals are infeasible")
    recomputed = batch_counterfactual_distance(originals, counterfactuals,
                                               scale=reference.scale_,
                                               metric=reference.metric)
    if not np.array_equal(recomputed, reported):
        failures.append(f"{label}: recomputed distances differ from the reported ones")
    rng = np.random.default_rng(population.seed)
    for k in rng.choice(len(cfs), size=min(SEQUENTIAL_SAMPLE, len(cfs)), replace=False):
        cf = cfs[int(k)]
        try:
            expected = reference.generate(cf.original)
        except InfeasibleRecourseError:
            failures.append(f"{label}: the sequential search found nothing for "
                            f"counterfactual {int(k)}")
            continue
        if not (np.array_equal(expected.counterfactual, cf.counterfactual)
                and expected.distance == cf.distance):
            failures.append(f"{label}: counterfactual {int(k)} differs from the "
                            "sequential reference")
    return failures


def check_gaps(biased_gap: float, fair_gap: float | None) -> list[str]:
    """The paper's shape claim: a clear burden gap on the biased population,
    and under half of it on the fair one."""
    failures = []
    if not biased_gap > 0.5:
        failures.append(f"biased burden gap {biased_gap:.4f} is not above 0.5")
    if fair_gap is not None and not abs(fair_gap) < biased_gap / 2:
        failures.append(f"fair burden gap {fair_gap:.4f} is not below half of "
                        f"the biased gap {biased_gap:.4f}")
    return failures


# --------------------------------------------------------------- workloads
class _LocalAudits:
    """Shared body of the cold and warm workloads: both E1 populations."""

    def __init__(self, seed: int, scratch, *, n_samples: int, audit_size: int) -> None:
        self.scratch = scratch
        self.populations = [
            build_population(label, bias, gap, n_samples=n_samples,
                             audit_size=audit_size, seed=seed)
            for label, bias, gap in POPULATIONS
        ]
        self.violations: list[str] = []
        self.last: list[Audit] = []
        self.serving_counters = {"shed": 0, "retries": 0}

    def _audit(self, population: Population, store) -> Audit:
        with AuditSession(population.generator(), store=store) as session:
            return run_audit(session, population.audited)

    def run_pass(self) -> int:
        """One audit of both populations; returns the predict calls made."""
        self.last = [self._audit(population, self._store())
                     for population in self.populations]
        return sum(audit.predict_calls for audit in self.last)

    def check(self) -> list[str]:
        """Output checks on the last pass, plus every pass's invariants."""
        failures = list(self.violations)
        for population, audit in zip(self.populations, self.last):
            failures += check_counterfactuals(population, audit)
        biased, fair = self.last
        return failures + check_gaps(biased.burden.gap, fair.burden.gap)

    def close(self) -> None:
        """Release set-up state (nothing beyond the scratch files)."""


class ColdAudit(_LocalAudits):
    """``audit-cold``: every session writes to a fresh, empty store."""

    def _store(self) -> CounterfactualStore:
        return CounterfactualStore(tempfile.mkdtemp(dir=self.scratch))

    def tidy(self) -> None:
        """Remove the pass's stores."""
        for path in self.scratch.iterdir():
            shutil.rmtree(path)


class WarmAudit(_LocalAudits):
    """``audit-warm``: set-up publishes both populations to one store; every
    pass opens a new store object on it, so no engine pass runs."""

    def __init__(self, seed: int, scratch, **sizes) -> None:
        super().__init__(seed, scratch, **sizes)
        self.directory = tempfile.mkdtemp(dir=scratch)
        self.cold = [self._audit(population, self._store())
                     for population in self.populations]

    def _store(self) -> CounterfactualStore:
        return CounterfactualStore(self.directory)

    def tidy(self) -> None:
        """Check the pass's invariants: no engine work, cold-equal results."""
        for population, audit, cold in zip(self.populations, self.last, self.cold):
            if audit.engine_predict_calls:
                self.violations.append(f"{population.label}: warm pass made "
                                       f"{audit.engine_predict_calls} engine predict calls")
            if not same_results(audit, cold):
                self.violations.append(f"{population.label}: warm results differ "
                                       "from the cold pass")

    def close(self) -> None:
        """Remove the published store."""
        shutil.rmtree(self.directory)


class RemoteAudit:
    """``audit-remote``: the biased population split into two halves, each
    audited by its own caller thread through a remote scoring backend; both
    backends share one coalescing client on one graph lane of an in-process
    scoring server.  Every pass gets a new client."""

    CALLERS = 2

    def __init__(self, seed: int, scratch, *, n_samples: int, audit_size: int) -> None:
        label, bias, gap = POPULATIONS[0]
        self.population = build_population(label, bias, gap, n_samples=n_samples,
                                           audit_size=audit_size, seed=seed)
        n_rows = self.population.audited.n_samples
        self.halves = [self.population.audited.subset(part)
                       for part in np.array_split(np.arange(n_rows), self.CALLERS)]
        self.graph = export_model(self.population.model)
        self.server = ScoringServer([self.graph])
        self.violations: list[str] = []
        self.last: list[Audit] = []
        self.client = None
        self.serving_counters = {"shed": 0, "retries": 0}

    def _caller(self, backend, rows, out: list, slot: int) -> None:
        try:
            with AuditSession(self.population.generator(), backend=backend) as session:
                out[slot] = run_audit(session, rows)
        except Exception as error:  # noqa: BLE001 - re-raised by run_pass
            out[slot] = error
        finally:
            backend.close()

    def run_pass(self) -> int:
        """One concurrent audit of both halves; returns the score calls made."""
        self.client = None
        client = CoalescingScoringClient(self.server.url, window="auto")
        backends = [RemoteScoringBackend(client, graph=self.graph)
                    for _ in range(self.CALLERS)]
        out: list = [None] * self.CALLERS
        threads = [threading.Thread(target=self._caller, args=(backend, rows, out, k),
                                    daemon=True)
                   for k, (backend, rows) in enumerate(zip(backends, self.halves))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError("a caller thread did not finish within 120 s")
        for item in out:
            if isinstance(item, Exception):
                raise item
        self.last, self.client = out, client
        return sum(audit.predict_calls for audit in out)

    def tidy(self) -> None:
        """Fold the pass's shed and retry counts in and check that the
        sessions' scored rows add up to the rows the client sent."""
        client = self.client
        if client is None:  # the pass failed
            return
        self.serving_counters["shed"] += client.shed_count
        self.serving_counters["retries"] += client.retry_count
        session_rows = sum(audit.predict_rows for audit in self.last)
        if session_rows != client.wire_row_count:
            self.violations.append(f"sessions scored {session_rows} rows but the "
                                   f"client sent {client.wire_row_count}")

    def check(self) -> list[str]:
        """Output checks and bitwise parity with the in-process audit."""
        failures = list(self.violations)
        for half, audit in zip(self.halves, self.last):
            with AuditSession(self.population.generator()) as session:
                local = run_audit(session, half)
            if not same_results(audit, local):
                failures.append("remote results differ from the in-process audit")
            failures += check_counterfactuals(self.population, audit)
        # Burden of the whole audited population: mean distance per group
        # over both halves' counterfactuals.
        distances = {group: [cf.distance for audit in self.last
                             for cf in audit.burden.counterfactuals[group]]
                     for group in (0, 1)}
        gap = float(np.mean(distances[1]) - np.mean(distances[0]))
        return failures + check_gaps(gap, None)

    def close(self) -> None:
        """Stop the scoring server."""
        self.server.close()


WORKLOADS = {
    "audit-cold": ColdAudit,
    "audit-warm": WarmAudit,
    "audit-remote": RemoteAudit,
}
