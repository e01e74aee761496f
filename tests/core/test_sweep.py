"""Sweep orchestration: factors, planning, journal, registry, CLI.

The planning property test re-derives the planner's contract with
``itertools.product``: ``plan(where=...)`` is the ``where``-restricted cross
product in factor-declaration order, each assignment exactly once, and
``cell()`` is its first cell; an unknown ``where`` level or factor raises.
"""

import itertools
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
        assert [cell.cell_id for cell in plan.emitted] == ["T"]
        assert plan.summary() == {"emitted_cells": 1}

    def test_where_restricts_and_ignores_missing_factors(self):
        spec = self._spec(factors=(Factor("a", levels=("x", "y")),))
        plan = spec.plan(where={"a": ["y"], "unrelated": ["z"]})
        assert [cell.cell_id for cell in plan.emitted] == ["T[a=y]"]

    @pytest.mark.parametrize("labels", [["nope"], []], ids=["unknown", "empty"])
    def test_where_unknown_level_raises(self, labels):
        spec = self._spec(factors=(Factor("a", levels=("x",)),))
        with pytest.raises(ValidationError, match="'a'"):
            spec.plan(where={"a": labels})
        with pytest.raises(ValidationError, match="'a'"):
            sweep_plan([spec], where={"a": labels})

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

    def test_empty_selection_has_no_default_cell(self):
        spec = self._spec(factors=(Factor("a", levels=("x",)),))
        with pytest.raises(ValidationError):
            spec.cell(where={"a": []})

    def test_sweep_plan_rejects_a_factor_no_selected_spec_declares(self):
        with pytest.raises(ValidationError) as excinfo:
            sweep_plan(["E1/E2"], where={"backnd": ["onnx"]})
        message = str(excinfo.value)
        assert "backnd" in message
        for factor in ("backend", "explainer", "schedule"):
            assert factor in message

    def test_sweep_plan_factor_of_one_spec_restricts_only_that_spec(self):
        plan = sweep_plan(["FIG1", "E6"], where={"backend": ["onnx"]})
        assert [cell.cell_id for cell in plan.emitted] == ["FIG1", "E6[backend=onnx]"]


@st.composite
def _design(draw):
    """Random factors (unique names and labels) plus a ``where`` selection
    holding a non-empty level subset for some of them."""
    names = draw(st.lists(st.sampled_from("abcd"), max_size=3, unique=True))
    factors = tuple(
        Factor(name, levels=tuple(
            (label, f"{name}:{label}")
            for label in draw(st.lists(st.sampled_from("pqrs"), min_size=1,
                                       max_size=3, unique=True))))
        for name in names
    )
    where = {}
    for factor in factors:
        if draw(st.booleans()):
            where[factor.name] = draw(st.lists(st.sampled_from(factor.labels),
                                               min_size=1, unique=True))
    return factors, where


class TestPlanProperties:
    """The planner against an ``itertools.product`` oracle over random designs."""

    @settings(max_examples=60, deadline=None)
    @given(design=_design())
    def test_plan_is_the_restricted_cross_product(self, design):
        factors, where = design
        spec = SweepSpec(experiment="PROP", runner=_noop_runner, factors=factors,
                         fixed={"n": 1})
        selected = [
            [label for label in factor.labels
             if factor.name not in where or label in where[factor.name]]
            for factor in factors
        ]
        expected = [
            tuple(zip([factor.name for factor in factors], labels))
            for labels in itertools.product(*selected)
        ]

        plan = spec.plan(where=where)
        assert [cell.assignment for cell in plan.emitted] == expected
        assert len({cell.cell_id for cell in plan.emitted}) == len(expected)

        cell = spec.cell(where=where)
        assert cell.assignment == tuple(
            (factor.name, labels[0]) for factor, labels in zip(factors, selected))
        assert cell.params() == {"n": 1, **{
            factor.name: f"{factor.name}:{labels[0]}"
            for factor, labels in zip(factors, selected)}}

    @settings(max_examples=30, deadline=None)
    @given(design=_design(), data=st.data())
    def test_unknown_level_or_factor_raises(self, design, data):
        factors, where = design
        spec = SweepSpec(experiment="PROP", runner=_noop_runner, factors=factors)
        if factors:
            factor = data.draw(st.sampled_from(factors))
            bad_level = {**where, factor.name: [*where.get(factor.name, ()), "zz"]}
            with pytest.raises(ValidationError, match="zz"):
                spec.plan(where=bad_level)
        with pytest.raises(ValidationError, match="zz"):
            sweep_plan([spec], where={**where, "zz": ["p"]})


class TestDefaultSpecs:
    def test_e1_e2_explainer_levels_are_registered_generators(self):
        import fairexp.core  # noqa: F401  (populates the explainer registry)

        for label in SweepRegistry.get("E1/E2").factor("explainer").labels:
            entry = ExplainerRegistry.entry(label)
            assert "counterfactual-generator" in entry.capabilities, label

    def test_every_spec_plans_its_full_cross_product(self):
        for spec in SweepRegistry.specs():
            size = 1
            for factor in spec.factors:
                size *= len(factor.levels)
            assert len(spec.plan().emitted) == size, spec.experiment


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
        assert payload["summary"] == {"emitted_cells": len(payload["emitted"])}

    @pytest.mark.parametrize("action", ["plan", "run"])
    @pytest.mark.parametrize("where, named", [("backnd=onnx", "backnd"),
                                              ("backend=", "no level")])
    def test_cli_sweep_unknown_factor_exits_nonzero(self, action, where, named,
                                                    tmp_path):
        from fairexp.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", action, "--spec", "E1/E2", "--where", where,
                  *(["--store", str(tmp_path / "store")] if action == "run" else [])])
        message = str(excinfo.value)
        assert named in message and "backend" in message
        assert not (tmp_path / "store").exists()

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
        assert [cell.cell_id for cell in plan.emitted] == ["FIG1", "FIG2"]

    def test_unknown_spec_id_raises(self):
        with pytest.raises(ValidationError):
            sweep_plan(["nope"])
