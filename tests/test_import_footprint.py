"""The audit path imports NumPy only: no scipy, no networkx.

Each case runs in a fresh interpreter, so modules the rest of the suite has
imported cannot mask a module-level import.  The script imports ``fairexp``
and runs a small E1 audit — burden and NAWB over one store-backed
``AuditSession`` — once on the NumPy backend and once through a remote
scoring backend over a loopback ``ScoringServer``, then prints the scipy and
networkx modules it finds loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_AUDIT_SCRIPT = """
import sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = sys.modules["networkx"] = None

import numpy as np
import fairexp
from fairexp.core import BurdenExplainer, NAWBExplainer
from fairexp.datasets import make_loan_dataset
from fairexp.explanations import (
    ActionabilityConstraints, AuditSession, CoalescingScoringClient,
    CounterfactualStore, ExplainerRegistry, RemoteScoringBackend,
    ScoringServer, export_model,
)
from fairexp.models import LogisticRegression

dataset = make_loan_dataset(200, direct_bias=1.2, recourse_gap=1.0, random_state=0)
train, test = dataset.split(test_size=0.3, random_state=1)
model = LogisticRegression(n_iter=300, random_state=0).fit(train.X, train.y)
rows = test.subset(np.arange(12))
constraints = ActionabilityConstraints.from_feature_specs(dataset.features)


def audit(**session_options):
    generator = ExplainerRegistry.get("growing_spheres")(
        model, train.X, constraints=constraints, random_state=0)
    with AuditSession(generator, **session_options) as session:
        burden = BurdenExplainer(session=session).explain(rows.X, rows.sensitive_values)
        nawb = NAWBExplainer(session=session).explain(rows.X, rows.y,
                                                      rows.sensitive_values)
    return burden.as_dict(), nawb.as_dict()


local = audit(store=CounterfactualStore(sys.argv[1]))
graph = export_model(model)
with ScoringServer([graph]) as server:
    client = CoalescingScoringClient(server.url)
    backend = RemoteScoringBackend(client, graph=graph)
    remote = audit(backend=backend)
    backend.close()
    client.close()
# repr is exact for every float and equates NaNs (this audit's protected rows
# have no positive label, so their NAWB is NaN).
assert repr(remote) == repr(local), (remote, local)
loaded = sorted(name for name, module in sys.modules.items()
                if module is not None and name.split(".")[0] in ("scipy", "networkx"))
print(" ".join(loaded))
"""


@pytest.mark.parametrize("mode", ["installed", "blocked"])
def test_audit_loads_no_scipy_or_networkx(tmp_path, mode):
    """``installed``: the packages are importable but nothing imports them.
    ``blocked``: importing either raises, and the audit still runs."""
    env = {**os.environ,
           "PYTHONPATH": SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", "")}
    completed = subprocess.run(
        [sys.executable, "-c", _AUDIT_SCRIPT, str(tmp_path / "store"), mode],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == ""
