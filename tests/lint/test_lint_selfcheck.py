"""The self-check: the shipped tree passes its own linter.

``fairexp lint src/`` with the committed (empty-entries) baseline must
produce zero fresh findings — the acceptance criterion that every
violation surfaced while building the rule set was *fixed*, not
baselined.  The suppressions in the tree (the ``__del__`` backstop in
``pool.py`` and the two real zeros FX009 would otherwise flag) are
asserted explicitly so new noqa comments cannot slip in unnoticed.
"""

from pathlib import Path

from fairexp.lint import Baseline, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_tree_is_lint_clean():
    report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    baseline = Baseline.load(REPO_ROOT / "LINT_BASELINE.json")
    fresh = baseline.fresh(report.findings)
    assert fresh == [], "\n".join(f.render() for f in fresh)
    assert report.parse_errors == []
    assert report.files > 50  # the walk actually covered the package


def test_committed_baseline_is_empty():
    baseline = Baseline.load(REPO_ROOT / "LINT_BASELINE.json")
    assert len(baseline) == 0, (
        "the baseline must stay empty: fix findings, do not grandfather them"
    )


#: Each sanctioned suppression: (module, the scoped noqa it carries).
SUPPRESSIONS = (
    ("explanations/pool.py", "fairexp: noqa[FX004]"),
    ("core/globe_ce.py", "fairexp: noqa[FX009] - ranks directions over the whole affected set"),
    ("core/precof.py", "fairexp: noqa[FX009] - a feature no counterfactual changed moved by 0.0"),
)


def test_suppression_budget_is_the_justified_noqas():
    report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
    assert report.suppressed == len(SUPPRESSIONS), (
        "a new '# fairexp: noqa' appeared; every suppression needs review "
        "and a justification comment (current budget: SUPPRESSIONS)"
    )
    for module, noqa in SUPPRESSIONS:
        source = (REPO_ROOT / "src/fairexp" / module).read_text()
        assert source.count(noqa) == 1, (module, noqa)
