"""Sweep orchestration: factors, planning/pruning, journal, registry, CLI.

The pruning property tests verify the planner's contract *independently*:
every cell a spec emits must satisfy the explainer registry's structured
compatibility check plus the declared resource requirements, every cell it
prunes must violate at least one, and the emitted/pruned partition must be
exhaustive over the raw cross product — re-derived here with the test's
own proxy objects, not the planner's.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairexp.exceptions import ValidationError
from fairexp.explanations.base import ExplainerRegistry
from fairexp.sweep import (
    CellResult,
    Factor,
    SweepCell,
    SweepJournal,
    SweepRegistry,
    SweepSpec,
    active_store_dir,
    is_accounting_key,
    run_sweep,
    sweep_plan,
    track_session,
)


@pytest.fixture(autouse=True)
def _no_env_store(monkeypatch):
    """Keep ambient $FAIREXP_STORE_DIR from redirecting journal-less sweeps."""
    monkeypatch.delenv("FAIREXP_STORE_DIR", raising=False)


def _noop_runner(**kwargs):
    return {"ok": 1, **{k: str(v) for k, v in kwargs.items()}}


class TestFactor:
    def test_levels_normalize_from_mapping(self):
        factor = Factor("backend", levels={"numpy": "numpy", "onnx": "onnx"})
        assert factor.labels == ("numpy", "onnx")
        assert factor.value("onnx") == "onnx"

    def test_levels_normalize_from_bare_values(self):
        factor = Factor("n", levels=("a", "b"))
        assert factor.labels == ("a", "b")
        assert factor.value("a") == "a"

    def test_label_value_pairs_can_differ(self):
        factor = Factor("schedule", levels=(("geometric", None), ("adaptive", "adaptive")))
        assert factor.value("geometric") is None
        assert factor.value("adaptive") == "adaptive"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            Factor("x", levels=(("a", 1), ("a", 2)))

    def test_empty_levels_rejected(self):
        with pytest.raises(ValidationError):
            Factor("x", levels=())

    def test_unknown_label_raises(self):
        factor = Factor("x", levels=(("a", 1),))
        with pytest.raises(KeyError):
            factor.value("b")


class TestSpecPlanning:
    def _spec(self, **kwargs):
        defaults = dict(experiment="T", runner=_noop_runner)
        defaults.update(kwargs)
        return SweepSpec(**defaults)

    def test_zero_factor_spec_is_single_cell(self):
        plan = self._spec().plan()
        assert plan.raw_size == 1
        assert len(plan.emitted) == 1
        assert plan.emitted[0].cell_id == "T"

    def test_partition_is_exhaustive(self):
        spec = self._spec(
            factors=(Factor("a", levels=("x", "y")),
                     Factor("b", levels={"p": 1, "q": 2}, requires={"q": ("gpu",)})),
        )
        plan = spec.plan()
        assert plan.raw_size == 4
        assert len(plan.emitted) + len(plan.pruned) == 4
        pruned_ids = {cell.cell_id for cell in plan.pruned}
        assert pruned_ids == {"T[a=x,b=q]", "T[a=y,b=q]"}
        for cell in plan.pruned:
            assert any("gpu" in reason for reason in cell.reasons)

    def test_resources_satisfy_requires(self):
        spec = self._spec(
            factors=(Factor("b", levels={"q": 1}, requires={"q": ("gpu",)}),),
            resources=frozenset({"gpu"}),
        )
        plan = spec.plan()
        assert len(plan.emitted) == 1 and not plan.pruned

    def test_where_restricts_and_ignores_missing_factors(self):
        spec = self._spec(factors=(Factor("a", levels=("x", "y")),))
        plan = spec.plan(where={"a": ["y"], "unrelated": ["z"]})
        assert [cell.cell_id for cell in plan.emitted] == ["T[a=y]"]

    def test_where_unknown_level_raises(self):
        spec = self._spec(factors=(Factor("a", levels=("x",)),))
        with pytest.raises(ValidationError):
            spec.plan(where={"a": ["nope"]})

    def test_registry_factor_prunes_capability_and_compat(self):
        spec = self._spec(
            factors=(Factor("explainer",
                            levels=(("growing_spheres", "growing_spheres"),
                                    ("gradient", "gradient"),
                                    ("burden", "burden")),
                            registry=True, capability="counterfactual-generator"),),
            model_provides=("predict",),  # no gradient_input
            data_provides=("labels", "feature-specs"),
        )
        plan = spec.plan()
        emitted = {cell.assignment[0][1] for cell in plan.emitted}
        assert emitted == {"growing_spheres"}
        reasons = {cell.assignment[0][1]: cell.reasons for cell in plan.pruned}
        assert any("gradient" in r for r in reasons["gradient"])  # missing gradients
        assert any("capability" in r for r in reasons["burden"])  # not a generator

    def test_default_cell_uses_first_levels(self):
        spec = self._spec(factors=(Factor("a", levels=("x", "y")),), fixed={"n": 3})
        cell = spec.cell()
        assert cell.params() == {"n": 3, "a": "x"}

    def test_cell_overrides_replace_fixed(self):
        spec = self._spec(fixed={"n": 3})
        assert spec.cell(overrides={"n": 7}).params() == {"n": 7}

    def test_digest_tracks_overrides(self):
        spec = self._spec(fixed={"n": 3})
        assert spec.cell().digest() != spec.cell(overrides={"n": 7}).digest()
        assert spec.cell(overrides={"n": 7}).digest() == \
            spec.cell(overrides={"n": 7}).digest()

    def test_infeasible_default_cell_raises(self):
        spec = self._spec(
            factors=(Factor("b", levels={"q": 1}, requires={"q": ("gpu",)}),),
        )
        with pytest.raises(ValidationError):
            spec.cell()


# Registry names usable as levels of a randomized registry factor, plus a
# few unregistered ones so pruning covers the unknown-name path.
_GENERATOR_POOL = ("growing_spheres", "random_search", "gradient",
                   "burden", "nawb", "causal_recourse", "dexer", "cef",
                   "not_a_registered_name")
_MODEL_ATTRS = ("predict", "predict_proba", "gradient_input", "recommend_all", "rank")
_DATA_PROVIDES = ("labels", "scm", "feature-specs")
_RESOURCE_POOL = ("servable", "gpu", "disk")


class _Model:
    def __init__(self, attrs):
        for attr in attrs:
            setattr(self, attr, True)


class _Dataset:
    def __init__(self, modality, provides):
        self.modality = modality
        if "labels" in provides:
            self.y = (1,)
        if "scm" in provides:
            self.scm = object()
        if "feature-specs" in provides:
            self.features = (object(),)


class TestPruningProperties:
    """Emitted ⟺ feasible, pruned ⟺ violated, partition exhaustive —
    over randomized factor subsets and workload declarations."""

    @settings(max_examples=60, deadline=None)
    @given(
        levels=st.lists(st.sampled_from(_GENERATOR_POOL), min_size=1, max_size=5,
                        unique=True),
        model_attrs=st.sets(st.sampled_from(_MODEL_ATTRS)),
        data_provides=st.sets(st.sampled_from(_DATA_PROVIDES)),
        modality=st.sampled_from(("tabular", "graph", "recsys")),
        resources=st.sets(st.sampled_from(_RESOURCE_POOL)),
        required=st.dictionaries(st.sampled_from(("fast", "slow")),
                                 st.sets(st.sampled_from(_RESOURCE_POOL), max_size=2)),
        capability=st.sampled_from((None, "counterfactual-generator",
                                    "fairness-explainer")),
    )
    def test_partition_matches_independent_check(self, levels, model_attrs,
                                                 data_provides, modality, resources,
                                                 required, capability):
        model_attrs = {"predict"} | model_attrs
        factors = [
            Factor("explainer", levels=tuple(levels), registry=True,
                   capability=capability),
            Factor("speed", levels=(("fast", 1), ("slow", 2)),
                   requires={k: tuple(v) for k, v in required.items()}),
        ]
        spec = SweepSpec(
            experiment="PROP", runner=_noop_runner, factors=tuple(factors),
            modality=modality, model_provides=tuple(sorted(model_attrs)),
            data_provides=tuple(sorted(data_provides)),
            resources=frozenset(resources),
        )
        plan = spec.plan()

        # Exhaustive: every raw-product point appears exactly once.
        assert plan.raw_size == len(levels) * 2
        assert len(plan.emitted) + len(plan.pruned) == plan.raw_size
        all_ids = [c.cell_id for c in plan.emitted] + [c.cell_id for c in plan.pruned]
        assert len(set(all_ids)) == plan.raw_size

        # Re-derive feasibility with the test's own proxies.
        model = _Model(model_attrs)
        dataset = _Dataset(modality, data_provides)

        def feasible(assignment):
            for name, label in assignment:
                if name == "explainer":
                    try:
                        entry = ExplainerRegistry.entry(label)
                    except KeyError:
                        return False
                    if capability is not None and capability not in entry.capabilities:
                        return False
                    if not entry.is_compatible(model, dataset):
                        return False
                else:
                    if not set(required.get(label, ())) <= resources:
                        return False
            return True

        for cell in plan.emitted:
            assert feasible(cell.assignment), cell.cell_id
        for cell in plan.pruned:
            assert not feasible(cell.assignment), cell.cell_id
            assert cell.reasons  # nothing is pruned silently


class TestDefaultSpecsPruning:
    """The registered experiment specs' own partitions hold the same contract."""

    @pytest.mark.parametrize("experiment", ["E1/E2", "E3", "E4", "E5"])
    def test_emitted_cells_are_feasible(self, experiment):
        spec = SweepRegistry.get(experiment)
        plan = spec.plan()
        assert plan.raw_size == spec.raw_size()
        assert len(plan.emitted) + len(plan.pruned) == plan.raw_size
        for cell in plan.emitted:
            for name, label in cell.assignment:
                factor = spec.factor(name)
                assert set(factor.requires.get(label, ())) <= spec.resources
                if factor.registry:
                    entry = ExplainerRegistry.entry(label)
                    if factor.capability:
                        assert factor.capability in entry.capabilities
        for cell in plan.pruned:
            assert cell.reasons


class TestJournal:
    def _cell(self):
        spec = SweepSpec(experiment="J", runner=_noop_runner, fixed={"n": 1})
        return spec.cell()

    def _result(self, cell, value=1.0):
        return CellResult(cell_id=cell.cell_id, experiment=cell.experiment,
                          assignment=cell.assignment,
                          results={"metric": value, "engine_predict_calls": 9},
                          wall_time_seconds=0.1, stats={"predict_call_count": 9})

    def test_roundtrip(self, tmp_path):
        cell = self._cell()
        journal = SweepJournal(tmp_path / "j.json")
        assert journal.completed(cell) is None
        journal.record(cell, self._result(cell))
        reloaded = SweepJournal(tmp_path / "j.json")
        record = reloaded.completed(cell)
        assert record is not None and record["results"]["metric"] == 1.0

    def test_digest_mismatch_is_not_completed(self, tmp_path):
        spec = SweepSpec(experiment="J", runner=_noop_runner, fixed={"n": 1})
        journal = SweepJournal(tmp_path / "j.json")
        cell = spec.cell()
        journal.record(cell, self._result(cell))
        other = spec.cell(overrides={"n": 2})
        assert journal.completed(other) is None

    def test_corrupt_file_tolerated(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text("{not json")
        journal = SweepJournal(path)
        assert len(journal) == 0

    def test_reset_drops_records(self, tmp_path):
        cell = self._cell()
        journal = SweepJournal(tmp_path / "j.json")
        journal.record(cell, self._result(cell))
        journal.reset()
        assert journal.completed(cell) is None
        assert not (tmp_path / "j.json").exists()


class TestAccountingKeys:
    @pytest.mark.parametrize("key", [
        "predict_calls_biased", "engine_predict_calls_fair", "schedule_steps_biased",
        "schedule_draws_fair", "cf_reused_biased", "store_row_hits",
        "cache_hits", "pool_thread_created",
    ])
    def test_accounting(self, key):
        assert is_accounting_key(key)

    @pytest.mark.parametrize("key", [
        "burden_gap_biased", "nawb_gap_fair", "spd_baseline", "accuracy_base",
        "predict_backend",
    ])
    def test_metric(self, key):
        assert not is_accounting_key(key)


class TestExecution:
    def test_sweep_result_shape(self, tmp_path):
        spec = SweepSpec(experiment="X", runner=_noop_runner,
                         factors=(Factor("a", levels=("x", "y")),))
        result = run_sweep([spec], store=tmp_path / "store")
        assert [cell.cell_id for cell in result.cells] == ["X[a=x]", "X[a=y]"]
        assert result.summary()["emitted_cells"] == 2
        assert not any(cell.replayed for cell in result.cells)
        # journal published next to the store
        assert (tmp_path / "store" / "SWEEP_JOURNAL.json").exists()

    def test_jobs_parallel_matches_sequential(self):
        spec = SweepSpec(experiment="X", runner=_noop_runner,
                         factors=(Factor("a", levels=("x", "y", "z")),))
        sequential = run_sweep([spec])
        parallel = run_sweep([spec], jobs=3)
        assert {(c.cell_id, tuple(sorted(c.results))) for c in sequential.cells} \
            == {(c.cell_id, tuple(sorted(c.results))) for c in parallel.cells}

    def test_resume_requires_journal(self):
        spec = SweepSpec(experiment="X", runner=_noop_runner)
        with pytest.raises(ValidationError):
            run_sweep([spec], resume=True)

    def test_resume_flags_divergence(self, tmp_path):
        calls = []

        def flaky(**kwargs):
            calls.append(1)
            return {"metric": float(len(calls))}  # changes between runs

        spec = SweepSpec(experiment="X", runner=flaky)
        journal = tmp_path / "j.json"
        run_sweep([spec], journal=journal)
        resumed = run_sweep([spec], journal=journal, resume=True)
        assert resumed.cells[0].replayed
        assert resumed.cells[0].status == "diverged"
        assert resumed.summary()["diverged_cells"] == 1

    def test_on_cell_hook_sees_progress(self):
        spec = SweepSpec(experiment="X", runner=_noop_runner,
                         factors=(Factor("a", levels=("x", "y")),))
        seen = []
        run_sweep([spec], on_cell=lambda result, done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_store_injection_is_scoped(self, tmp_path):
        observed = {}

        def probe(**kwargs):
            observed["dir"] = active_store_dir()
            return {}

        spec = SweepSpec(experiment="X", runner=probe)
        run_sweep([spec], store=tmp_path / "s")
        assert observed["dir"] == str(tmp_path / "s")
        assert active_store_dir() is None  # reset after the cell

    def test_track_session_is_noop_outside_sweep(self):
        sentinel = object()
        assert track_session(sentinel) is sentinel


class TestRegistryAndCli:
    def test_all_experiments_derived_from_registry(self):
        from fairexp.experiments import ALL_EXPERIMENTS

        assert list(ALL_EXPERIMENTS) == SweepRegistry.ids()
        for experiment, runner in ALL_EXPERIMENTS.items():
            assert SweepRegistry.get(experiment).runner is runner

    def test_cli_run_choices_equal_registry(self, capsys):
        """`python -m fairexp run` derives its experiment list from the spec
        registry — the unknown-experiment error must enumerate exactly the
        registered ids (there is no second hand-maintained list to drift)."""
        from fairexp.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "definitely-not-an-experiment"])
        message = str(excinfo.value)
        for experiment in SweepRegistry.ids():
            assert experiment in message

    def test_every_registered_spec_has_a_feasible_default_cell(self):
        for spec in SweepRegistry.specs():
            cell = spec.cell()
            assert cell.experiment == spec.experiment

    def test_get_unknown_raises_with_known_ids(self):
        with pytest.raises(KeyError, match="E1/E2"):
            SweepRegistry.get("nope")

    def test_duplicate_registration_rejected(self):
        spec = SweepSpec(experiment="FIG1", runner=_noop_runner)
        with pytest.raises(ValidationError):
            SweepRegistry.register(spec)

    def test_cli_sweep_plan_json_covers_registry(self, capsys):
        from fairexp.cli import main

        assert main(["sweep", "plan", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        planned = {cell_id.split("[")[0] for cell_id in payload["emitted"]}
        assert planned == set(SweepRegistry.ids())
        assert payload["summary"]["raw_cells"] == \
            payload["summary"]["emitted_cells"] + payload["summary"]["pruned_cells"]

    def test_cli_sweep_run_executes_and_journals(self, tmp_path, capsys):
        from fairexp.cli import main

        args = ["sweep", "run", "--spec", "FIG1", "--spec", "TAB1",
                "--store", str(tmp_path / "store"), "--json",
                "--bench", str(tmp_path / "bench.json")]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [cell["cell_id"] for cell in payload["cells"]] == ["FIG1", "TAB1"]
        bench = json.loads((tmp_path / "bench.json").read_text())
        assert len(bench) == 1 and bench[0]["emitted_cells"] == 2
        # resume replays both display cells and verifies their metrics
        resume_args = ["sweep", "resume", "--spec", "FIG1", "--spec", "TAB1",
                       "--store", str(tmp_path / "store"), "--json"]
        assert main(resume_args) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert all(cell["replayed"] for cell in resumed["cells"])
        assert all(cell["status"] == "completed" for cell in resumed["cells"])

    def test_sweep_plan_helper_combines_specs(self):
        plan = sweep_plan(["FIG1", "FIG2"])
        assert plan.raw_size == 2 and len(plan.emitted) == 2

    def test_unknown_spec_id_raises(self):
        with pytest.raises(ValidationError):
            sweep_plan(["nope"])
