"""Static analysis for fairexp's own correctness contracts.

Nine PRs of growth left the package with conventions that were only
enforced by review: executors come from :class:`~fairexp.explanations.pool.
ExecutorPool`, randomness flows through injected ``numpy.random.Generator``
objects, shared counters are mutated under locks, and store fingerprints
cover every output-affecting constructor parameter.  This package turns
those conventions into machine-checked rules:

* :mod:`fairexp.lint.engine` — an AST-walking rule engine with per-file
  visitor dispatch, ``# fairexp: noqa[RULE]`` suppressions and a
  JSON-serializable baseline for grandfathered findings.
* :mod:`fairexp.lint.rules` — the FX001–FX009 rule set (one module per
  rule; see ``docs/api/lint.md`` for the table).
* :mod:`fairexp.lint.tsan` — the dynamic half: ``FAIREXP_TSAN=1`` swaps
  the lock primitives in ``backends.py``/``pool.py``/``serving.py`` for
  instrumented wrappers that raise on unlocked cross-thread counter
  mutation.

Run it via ``fairexp lint [paths]`` or programmatically::

    from fairexp.lint import lint_source
    findings = lint_source("def f(xs=[]):\\n    return xs\\n", path="ex.py")
    assert findings[0].rule == "FX003"
"""

from .engine import (
    Baseline,
    Finding,
    LintEngine,
    LintReport,
    lint_paths,
    lint_source,
)
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintEngine",
    "LintReport",
    "lint_paths",
    "lint_source",
]
