"""Crash/resume: a sweep killed mid-run completes on resume, replaying the
already-journaled cells out of the persistent store at zero engine predict
calls.

The crash is a real one — a child process running ``run_sweep`` SIGKILLs
itself from the ``on_cell`` hook after its first completed cell, so neither
``finally`` blocks nor atexit hooks get to tidy anything up.  The resume is
the real entry point too — ``python -m fairexp sweep resume --json`` in a
fresh process, discovering the store through ``$FAIREXP_STORE_DIR`` exactly
as a user would after a crashed overnight sweep.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

# 2 explainers x 2 schedules = 4 cells with 4 distinct store fingerprints
# (the schedule and the generator config are both part of the fingerprint).
SELECTION = {
    "where": {"explainer": ["growing_spheres", "random_search"],
              "schedule": ["geometric", "adaptive"],
              "backend": ["numpy"]},
    "overrides": {"n_samples": 300, "audit_size": 24},
}

CRASH_SCRIPT = textwrap.dedent("""\
    import os, signal, sys
    from fairexp.sweep import run_sweep

    def crash_after_first(result, done, total):
        print(f"completed {result.cell_id} ({done}/{total})", flush=True)
        if done == 1:
            os.kill(os.getpid(), signal.SIGKILL)

    run_sweep(
        ["E1/E2"],
        where={"explainer": ["growing_spheres", "random_search"],
               "schedule": ["geometric", "adaptive"],
               "backend": ["numpy"]},
        overrides={"n_samples": 300, "audit_size": 24},
        on_cell=crash_after_first,
    )
    sys.exit(3)  # unreachable: the hook killed us first
""")


def _env(store_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["FAIREXP_STORE_DIR"] = str(store_dir)
    return env


def _resume_cli_args():
    args = [sys.executable, "-m", "fairexp", "sweep", "resume",
            "--spec", "E1/E2", "--json"]
    for factor, labels in SELECTION["where"].items():
        args += ["--where", f"{factor}={','.join(labels)}"]
    for key, value in SELECTION["overrides"].items():
        args += ["--set", f"{key}={value}"]
    return args


class TestCrashResume:
    def test_killed_sweep_resumes_with_zero_redundant_predicts(self, tmp_path):
        store = tmp_path / "store"
        script = tmp_path / "crash_sweep.py"
        script.write_text(CRASH_SCRIPT)

        crashed = subprocess.run(
            [sys.executable, str(script)], env=_env(store),
            capture_output=True, text=True, timeout=300,
        )
        # SIGKILL from inside on_cell: no exit-code-3 fallthrough, no cleanup.
        assert crashed.returncode == -signal.SIGKILL, crashed.stderr
        assert "completed E1/E2[explainer=growing_spheres,schedule=geometric" \
            in crashed.stdout

        journal_path = store / "SWEEP_JOURNAL.json"
        assert journal_path.exists(), "crash left no journal"
        journal = json.loads(journal_path.read_text())
        assert len(journal["cells"]) == 1  # exactly the one completed cell
        (crashed_cell_id,) = journal["cells"]
        assert journal["cells"][crashed_cell_id]["status"] == "completed"
        journaled_stats = journal["cells"][crashed_cell_id]["stats"]
        assert journaled_stats["engine_predict_calls"] > 0  # cold first pass

        resumed = subprocess.run(
            _resume_cli_args(), env=_env(store),
            capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(resumed.stdout)

        assert payload["summary"]["emitted_cells"] == 4
        assert payload["summary"]["replayed_cells"] == 1
        assert payload["summary"]["diverged_cells"] == 0

        cells = {cell["cell_id"]: cell for cell in payload["cells"]}
        assert len(cells) == 4

        # The journaled cell replays warm: its counterfactual matrices come
        # back out of the persistent store, costing zero engine predict
        # calls, and its metrics verified bitwise against the journal
        # (status would be "diverged" otherwise).
        replayed = cells.pop(crashed_cell_id)
        assert replayed["replayed"] is True
        assert replayed["status"] == "completed"
        assert replayed["stats"]["engine_predict_calls"] == 0
        assert replayed["stats"]["store_row_hits"] > 0

        # The three cells the crash never reached run fresh (distinct store
        # fingerprints — nothing to reuse), paying real engine predicts.
        for cell in cells.values():
            assert cell["replayed"] is False
            assert cell["status"] == "completed"
            assert cell["stats"]["engine_predict_calls"] > 0

        # Accounting is exact: the summary totals are the per-cell sums.
        for key in ("engine_predict_calls", "store_row_hits",
                    "predict_call_count"):
            total = sum(cell["stats"].get(key, 0)
                        for cell in payload["cells"])
            assert payload["summary"][key] == total

        # A second resume replays everything at zero engine predict calls.
        final = subprocess.run(
            _resume_cli_args(), env=_env(store),
            capture_output=True, text=True, timeout=600,
        )
        assert final.returncode == 0, final.stderr
        final_payload = json.loads(final.stdout)
        assert final_payload["summary"]["replayed_cells"] == 4
        assert final_payload["summary"]["diverged_cells"] == 0
        assert final_payload["summary"]["engine_predict_calls"] == 0
        assert final_payload["summary"]["store_row_hits"] > 0


class TestReplayComparison:
    """A replayed cell's metrics are compared with the journal's JSON copy."""

    @staticmethod
    def _resume(tmp_path, runs):
        from fairexp.sweep import SweepSpec, run_sweep

        spec = SweepSpec(experiment="N", runner=lambda: runs.pop(0))
        journal = tmp_path / "journal.json"
        run_sweep([spec], journal=journal)
        return run_sweep([spec], journal=journal, resume=True).cells[0]

    def test_nan_metric_replays_as_completed(self, tmp_path):
        nan = float("nan")
        cell = self._resume(tmp_path, [{"gap": nan, "curve": [1.0, nan]},
                                       {"gap": nan, "curve": [1.0, nan]}])
        assert cell.replayed
        assert cell.status == "completed"

    @pytest.mark.parametrize("second", [
        {"gap": 0.5, "curve": [1.0, float("nan")]},
        {"gap": float("nan"), "curve": [float("nan"), float("nan")]},
        {"gap": float("nan"), "curve": [1.0, float("nan")], "extra": 1},
    ], ids=["value", "nan-position", "key"])
    def test_any_other_difference_still_diverges(self, tmp_path, second):
        nan = float("nan")
        cell = self._resume(tmp_path, [{"gap": nan, "curve": [1.0, nan]}, second])
        assert cell.replayed
        assert cell.status == "diverged"
