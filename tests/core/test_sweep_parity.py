"""Bitwise parity: every legacy ``run_*`` call ≡ its SweepSpec default cell.

The sweep layer replaced the hand-written experiment runners with declarative
factorial designs, under a hard compatibility contract: **each factor's first
level plus the spec's fixed arguments reproduce the historical hard-coded run
bit for bit**.  This suite enforces that contract three ways:

1. *Default-cell parity* — for all 16 experiments, ``run_eN(**reduced)``
   equals executing ``SweepRegistry.get(id).cell(overrides=reduced)`` exactly
   (NaN-aware recursive compare, no tolerances).
2. *Non-default-level parity* — pinning a factor through the spec
   (``where={"backend": ["onnx"]}``, a non-default model family, the adaptive
   schedule) equals passing the same keyword to the legacy function.
3. *Store parity* — a legacy run against ``$FAIREXP_STORE_DIR`` and a sweep
   run against ``run_sweep(store=...)`` persist byte-identical counterfactual
   matrices: same store fingerprints, same ``payload_sha256`` manifests.
"""

import json
import math

import pytest

from fairexp import experiments as legacy
from fairexp.sweep import SweepRegistry, run_sweep

# Reduced workload sizes: enough structure for every metric to be non-trivial,
# small enough that running each experiment twice stays cheap.
REDUCED = {
    "FIG1": {},
    "FIG2": {},
    "TAB1": {},
    "E1/E2": {"n_samples": 300, "audit_size": 24},
    "E3": {"n_samples": 300, "audit_size": 24},
    "E4": {"n_samples": 300},
    "E5": {"n_samples": 300},
    "E6": {"n_samples": 300, "audit_size": 6},
    "E7": {"n_samples": 300},
    "E8": {"n_samples": 300, "audit_size": 40},
    "E9": {"n_samples": 300},
    "E10": {"n_users": 40, "n_items": 25},
    "E11": {"n_candidates": 120},
    "E12": {"n_nodes": 60},
    "E13": {"n_samples": 300},
    "E14": {"n_samples": 400},
}

LEGACY = {
    "FIG1": legacy.run_fig1_taxonomy,
    "FIG2": legacy.run_fig2_taxonomy,
    "TAB1": legacy.run_table1,
    "E1/E2": legacy.run_e1_e2_burden_nawb,
    "E3": legacy.run_e3_precof,
    "E4": legacy.run_e4_facts,
    "E5": legacy.run_e5_group_counterfactuals,
    "E6": legacy.run_e6_causal_recourse,
    "E7": legacy.run_e7_fair_recourse,
    "E8": legacy.run_e8_fairness_shap,
    "E9": legacy.run_e9_data_explanations,
    "E10": legacy.run_e10_recsys,
    "E11": legacy.run_e11_ranking,
    "E12": legacy.run_e12_graphs,
    "E13": legacy.run_e13_contrastive,
    "E14": legacy.run_e14_mitigation,
}


@pytest.fixture(autouse=True)
def _no_env_store(monkeypatch):
    monkeypatch.delenv("FAIREXP_STORE_DIR", raising=False)


def assert_identical(a, b, path="result"):
    """Recursive bitwise equality; NaN == NaN (still a bit pattern match)."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: key sets differ"
        for key in a:
            assert_identical(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths differ"
        for index, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{path}[{index}]")
    elif isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), f"{path}: NaN vs {b!r}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def run_cell(experiment, where=None, overrides=None):
    spec = SweepRegistry.get(experiment)
    cell = spec.cell(where=where, overrides=overrides)
    return spec.runner(**cell.params())


class TestDefaultCellParity:
    """spec.cell(overrides=reduced) ≡ run_eN(**reduced) for all 16 experiments.

    The legacy call leaves every non-reduced argument at the function's
    signature default; the cell fills them from the spec's fixed args and the
    factors' first levels — parity means those two sources agree exactly.
    """

    @pytest.mark.parametrize("experiment", sorted(REDUCED),
                             ids=lambda e: e.replace("/", "_"))
    def test_parity(self, experiment):
        reduced = REDUCED[experiment]
        expected = LEGACY[experiment](**reduced)
        actual = run_cell(experiment, overrides=reduced)
        assert_identical(expected, actual)

    def test_registry_covers_exactly_these_experiments(self):
        assert set(SweepRegistry.ids()) == set(REDUCED)


class TestNonDefaultLevelParity:
    """Pinning a non-default factor level ≡ the same legacy keyword."""

    @pytest.mark.parametrize("experiment", ["E1/E2", "E4"])
    def test_onnx_backend(self, experiment):
        reduced = REDUCED[experiment]
        expected = LEGACY[experiment](backend="onnx", **reduced)
        actual = run_cell(experiment, where={"backend": ["onnx"]},
                          overrides=reduced)
        assert_identical(expected, actual)

    def test_adaptive_schedule(self):
        reduced = REDUCED["E1/E2"]
        expected = legacy.run_e1_e2_burden_nawb(schedule="adaptive", **reduced)
        actual = run_cell("E1/E2", where={"schedule": ["adaptive"]},
                          overrides=reduced)
        assert_identical(expected, actual)

    def test_explainer_level(self):
        reduced = REDUCED["E1/E2"]
        expected = legacy.run_e1_e2_burden_nawb(explainer="random_search",
                                                **reduced)
        actual = run_cell("E1/E2", where={"explainer": ["random_search"]},
                          overrides=reduced)
        assert_identical(expected, actual)

    def test_model_family(self):
        reduced = REDUCED["E4"]
        expected = legacy.run_e4_facts(model="tree", **reduced)
        actual = run_cell("E4", where={"model": ["tree"]}, overrides=reduced)
        assert_identical(expected, actual)

    def test_e14_dataset_level(self):
        reduced = REDUCED["E14"]
        expected = legacy.run_e14_mitigation(dataset="loan", **reduced)
        actual = run_cell("E14", where={"dataset": ["loan"]}, overrides=reduced)
        assert_identical(expected, actual)


def _store_checksums(store_dir):
    """fingerprint -> payload_sha256, straight from the store's manifests."""
    checksums = {}
    for manifest in sorted(store_dir.glob("*.json")):
        if manifest.name == "SWEEP_JOURNAL.json":
            continue
        payload = json.loads(manifest.read_text())
        checksums[manifest.stem] = payload["payload_sha256"]
    return checksums


class TestStoreParity:
    """Legacy-run and sweep-run counterfactual matrices are byte-identical.

    The persistent store records a ``payload_sha256`` over the exact matrix
    bytes it writes, so comparing manifests across two independent store
    directories is a bitwise comparison of the generated counterfactuals —
    the strongest form of the parity claim, covering the matrices themselves
    rather than the scalar metrics derived from them.
    """

    def test_cf_matrices_bitwise_identical(self, tmp_path, monkeypatch):
        reduced = REDUCED["E1/E2"]
        legacy_store = tmp_path / "legacy"
        sweep_store = tmp_path / "sweep"

        monkeypatch.setenv("FAIREXP_STORE_DIR", str(legacy_store))
        legacy.run_e1_e2_burden_nawb(**reduced)
        monkeypatch.delenv("FAIREXP_STORE_DIR")

        result = run_sweep(
            ["E1/E2"],
            where={"explainer": ["growing_spheres"], "schedule": ["geometric"],
                   "backend": ["numpy"]},
            overrides=reduced, store=sweep_store,
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
        reduced = REDUCED["E1/E2"]
        selection = dict(
            where={"explainer": ["growing_spheres"], "schedule": ["geometric"],
                   "backend": ["numpy"]},
            overrides=reduced, store=tmp_path / "store",
        )
        cold = run_sweep(["E1/E2"], **selection)
        warm = run_sweep(["E1/E2"], resume=True, **selection)
        assert cold.cells[0].stats["engine_predict_calls"] > 0
        assert warm.cells[0].replayed
        assert warm.cells[0].status == "completed"  # metrics verified vs journal
        assert warm.cells[0].stats["engine_predict_calls"] == 0
        assert warm.cells[0].stats["store_row_hits"] > 0
