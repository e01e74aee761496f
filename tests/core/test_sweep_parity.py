"""The sweep layer's compatibility contract with the ``run_*`` functions.

The sweep layer replaced the hand-written experiment runners with declarative
factorial designs, under a hard compatibility contract: **each factor's first
level plus the spec's fixed arguments reproduce the historical hard-coded run
bit for bit**.  ``experiments.run_eN`` *is* ``spec.runner``, so this suite
checks the contract without running anything twice:

1. *Default-cell arguments* — for every registered spec, each runner kwarg
   of ``spec.cell()`` equals that runner's signature default.
2. *Store parity* — a legacy run against ``$FAIREXP_STORE_DIR`` and a sweep
   run against ``run_sweep(store=...)`` persist byte-identical counterfactual
   matrices: same store fingerprints, same ``entry_sha256`` manifests.

That a cell's results do not depend on its backend, shard count or a
warm store is checked by the generated matrix in ``tests/test_invariance.py``.
"""

import inspect
import json

import pytest

from fairexp import experiments as legacy
from fairexp.sweep import SweepRegistry, run_sweep

REDUCED = {"n_samples": 300, "audit_size": 24}


@pytest.fixture(autouse=True)
def _no_env_store(monkeypatch):
    monkeypatch.delenv("FAIREXP_STORE_DIR", raising=False)


class TestDefaultCellParity:
    """``spec.cell()`` passes each runner exactly its signature defaults, so
    ``run_eN()`` and the default cell are one call."""

    @pytest.mark.parametrize("experiment", SweepRegistry.ids(),
                             ids=lambda e: e.replace("/", "_"))
    def test_default_cell_params_are_runner_defaults(self, experiment):
        spec = SweepRegistry.get(experiment)
        defaults = inspect.signature(spec.runner).parameters
        for name, value in spec.cell().params().items():
            assert value == defaults[name].default, name

    def test_registry_covers_every_legacy_runner(self):
        runners = {getattr(legacy, name) for name in legacy.__all__
                   if name.startswith("run_")}
        assert {spec.runner for spec in SweepRegistry.specs()} == runners


def _store_checksums(store_dir):
    """fingerprint -> entry_sha256, straight from the store's manifests."""
    checksums = {}
    for manifest in sorted(store_dir.glob("*.json")):
        if manifest.name == "SWEEP_JOURNAL.json":
            continue
        payload = json.loads(manifest.read_text())
        checksums[manifest.stem] = payload["entry_sha256"]
    return checksums


class TestStoreParity:
    """Legacy-run and sweep-run counterfactual matrices are byte-identical.

    The persistent store records an ``entry_sha256`` over the fingerprint
    and the exact matrix bytes it writes, so comparing the manifests of the
    same fingerprints across two independent store directories is a bitwise
    comparison of the generated counterfactuals —
    the strongest form of the parity claim, covering the matrices themselves
    rather than the scalar metrics derived from them.
    """

    def test_cf_matrices_bitwise_identical(self, tmp_path, monkeypatch):
        legacy_store = tmp_path / "legacy"
        sweep_store = tmp_path / "sweep"

        monkeypatch.setenv("FAIREXP_STORE_DIR", str(legacy_store))
        legacy.run_e1_e2_burden_nawb(**REDUCED)
        monkeypatch.delenv("FAIREXP_STORE_DIR")

        result = run_sweep(
            ["E1/E2"],
            where={"explainer": ["growing_spheres"], "schedule": ["geometric"],
                   "backend": ["numpy"]},
            overrides=REDUCED, store=sweep_store,
        )
        assert len(result.cells) == 1
        assert result.cells[0].status == "completed"

        legacy_sums = _store_checksums(legacy_store)
        sweep_sums = _store_checksums(sweep_store)
        assert legacy_sums, "legacy run persisted no counterfactual matrices"
        assert legacy_sums == sweep_sums

    def test_sweep_replay_serves_stored_matrices(self, tmp_path):
        """The replayed cell's metrics replay bitwise out of the warm store,
        at zero engine predict calls."""
        selection = dict(
            where={"explainer": ["growing_spheres"], "schedule": ["geometric"],
                   "backend": ["numpy"]},
            overrides=REDUCED, store=tmp_path / "store",
        )
        cold = run_sweep(["E1/E2"], **selection)
        warm = run_sweep(["E1/E2"], resume=True, **selection)
        assert cold.cells[0].stats["engine_predict_calls"] > 0
        assert warm.cells[0].replayed
        assert warm.cells[0].status == "completed"  # metrics verified vs journal
        assert warm.cells[0].stats["engine_predict_calls"] == 0
        assert warm.cells[0].stats["store_row_hits"] > 0
