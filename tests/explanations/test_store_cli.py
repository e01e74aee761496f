"""Tests for the ``python -m fairexp store`` operational CLI."""

import json
import os
import subprocess
import sys

import pytest

from fairexp.cli import main
from fairexp.explanations import CounterfactualBatch, CounterfactualStore

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _results(indices):
    """Rows ``indices``; the first moves (0, 0, 0) to (1, 1, 1), the rest are
    remembered infeasible."""
    batch = CounterfactualBatch.unsolved(indices, 3)
    batch.has_result[0] = True
    batch.originals[0] = 0.0
    batch.counterfactuals[0] = 1.0
    batch.counterfactual_predictions[0] = 1
    batch.distances[0] = 3.0
    batch.constraint_feasible[0] = True
    batch.changed_masks[0] = True
    return batch


def _populate(directory, fingerprints=("a", "b")):
    store = CounterfactualStore(directory)
    for letter in fingerprints:
        store.save(letter * 64, _results([0, 1]))
    return store


class TestInspect:
    def test_lists_fingerprints_ages_and_sizes(self, tmp_path, capsys):
        _populate(tmp_path)
        assert main(["store", "inspect", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "a" * 16 in out and "b" * 16 in out
        assert "FINGERPRINT" in out and "AGE" in out and "BYTES" in out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        _populate(tmp_path)
        assert main(["store", "inspect", "--dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["directory"] == str(tmp_path)
        assert {entry["fingerprint"] for entry in payload["entries"]} \
            == {"a" * 64, "b" * 64}
        for entry in payload["entries"]:
            assert entry["bytes"] > 0
            assert entry["age_seconds"] >= 0
            assert entry["n_rows"] == 2

    def test_empty_store(self, tmp_path, capsys):
        assert main(["store", "inspect", "--dir", str(tmp_path)]) == 0
        assert "empty store" in capsys.readouterr().out

    def test_dir_falls_back_to_env(self, tmp_path, capsys, monkeypatch):
        _populate(tmp_path)
        monkeypatch.setenv("FAIREXP_STORE_DIR", str(tmp_path))
        assert main(["store", "inspect"]) == 0
        assert "2 entries" in capsys.readouterr().out

    def test_missing_dir_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("FAIREXP_STORE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["store", "inspect"])

    def test_nonexistent_dir_is_an_error_not_an_empty_store(self, tmp_path):
        """A typo'd --dir must error, not be silently created and reported
        as an empty store."""
        typo = tmp_path / "stroe"
        with pytest.raises(SystemExit, match="does not exist"):
            main(["store", "inspect", "--dir", str(typo)])
        assert not typo.exists()  # read-only command left no side effects


class TestEvictAndClear:
    def test_evict_by_fingerprint_prefix(self, tmp_path, capsys):
        store = _populate(tmp_path)
        assert main(["store", "evict", "--dir", str(tmp_path),
                     "--fingerprint", "a"]) == 0
        assert "evicted 1 entries" in capsys.readouterr().out
        assert store.entries() == ["b" * 64]

    def test_evict_to_bounds(self, tmp_path, capsys):
        store = _populate(tmp_path, fingerprints=("a", "b", "c"))
        assert main(["store", "evict", "--dir", str(tmp_path),
                     "--max-entries", "1"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert len(store.entries()) == 1

    def test_evict_without_criteria_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "evict", "--dir", str(tmp_path)])

    def test_evict_ambiguous_prefix_is_an_error(self, tmp_path):
        store = _populate(tmp_path, fingerprints=())
        store.save("ab" + "0" * 62, _results([0]))
        store.save("ac" + "0" * 62, _results([0]))
        with pytest.raises(SystemExit, match="ambiguous"):
            main(["store", "evict", "--dir", str(tmp_path), "--fingerprint", "a"])
        assert len(store.entries()) == 2

    def test_clear_removes_everything(self, tmp_path, capsys):
        store = _populate(tmp_path)
        assert main(["store", "clear", "--dir", str(tmp_path)]) == 0
        assert "cleared 2 entries" in capsys.readouterr().out
        assert store.entries() == []


#: Manifests that parse as JSON but describe no entry: no object at all, or
#: an object whose counts are no numbers.
_DAMAGED_MANIFESTS = {
    "list": [],
    "string": "x",
    "null-rows": {"format_version": 4, "fingerprint": "d" * 64, "payload": "",
                  "n_rows": None, "n_features": 3},
    "list-features": {"format_version": 4, "fingerprint": "d" * 64, "payload": "",
                      "n_rows": 2, "n_features": [3]},
}


@pytest.mark.parametrize("manifest", list(_DAMAGED_MANIFESTS.values()),
                         ids=list(_DAMAGED_MANIFESTS))
class TestDamagedManifest:
    """A parsable but damaged manifest is skipped by inspection and
    discarded by eviction: it must crash neither inspection nor eviction nor
    a save past the bounds (which would abort the audit that saves)."""

    def _populate_with_damage(self, directory, manifest):
        store = _populate(directory, fingerprints=("a",))
        (directory / ("d" * 64 + ".json")).write_text(json.dumps(manifest))
        return store

    def test_inspect_lists_only_the_good_entry(self, tmp_path, capsys, manifest):
        self._populate_with_damage(tmp_path, manifest)
        assert main(["store", "inspect", "--dir", str(tmp_path), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert [entry["fingerprint"] for entry in entries] == ["a" * 64]

    def test_load_discards_the_damage(self, tmp_path, manifest):
        store = self._populate_with_damage(tmp_path, manifest)
        assert store.load("d" * 64) is None
        assert store.entries() == ["a" * 64]

    def test_evict_succeeds(self, tmp_path, capsys, manifest):
        store = self._populate_with_damage(tmp_path, manifest)
        assert main(["store", "evict", "--dir", str(tmp_path),
                     "--max-entries", "0"]) == 0
        assert "evicted 1 entries" in capsys.readouterr().out
        assert store.entries() == []  # the damaged manifest went too

    def test_evict_within_bounds_discards_only_the_damage(self, tmp_path, manifest):
        store = self._populate_with_damage(tmp_path, manifest)
        assert store.evict(max_entries=10) == 0
        assert store.entries() == ["a" * 64]
        assert store.load("a" * 64) is not None

    def test_evict_spares_an_entry_republished_after_the_scan(self, tmp_path, manifest):
        store = self._populate_with_damage(tmp_path, manifest)
        stale_scan = store._scan()
        store.save("d" * 64, _results([0, 1]))  # a concurrent writer's republish
        store._scan = lambda: stale_scan
        store.evict(max_entries=10)
        assert store.load("d" * 64) is not None

    @pytest.mark.parametrize("bound", ["max_entries", "max_bytes"])
    def test_save_past_the_bounds_succeeds(self, tmp_path, manifest, bound):
        store = self._populate_with_damage(tmp_path, manifest)
        setattr(store, bound, 1)
        store.save("b" * 64, _results([0, 1]))
        assert store.load("b" * 64) is not None
        assert "d" * 64 not in store.entries()


class TestModuleEntryPoint:
    def test_python_dash_m_fairexp(self, tmp_path):
        """The documented invocation shape works end to end."""
        _populate(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "fairexp", "store", "inspect",
             "--dir", str(tmp_path), "--json"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert len(json.loads(completed.stdout)["entries"]) == 2
