"""FX009 — no hand-written ``0.0`` fallback for an empty mean in core/fairness.

``float(values.mean()) if values.size else 0.0`` makes "nobody to measure"
read as "nothing measured was large", so an empty group reports no burden,
full parity or zero cost.  Group metrics take their empty-selection rule
from ``fairness/groups.py`` (``group_mean``/``group_rate``/``group_ratio``),
where an empty selection is NaN.  A zero that is a real value, such as the
change magnitude of a feature no counterfactual moved, is suppressed on its
line with the reason.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from ..engine import Rule
from .common import is_test_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from ..engine import FileContext, Finding

_SCOPED_PACKAGES = ("core", "fairness")


def _in_scope(path: str) -> bool:
    """True for modules under a ``core/`` or ``fairness/`` package."""
    parts = path.replace("\\", "/").split("/")[:-1]
    return any(part in _SCOPED_PACKAGES for part in parts)


def _is_zero(node: ast.AST) -> bool:
    """True for the literal ``0`` or ``0.0`` (not ``False``)."""
    return (
        isinstance(node, ast.Constant)
        and type(node.value) in (int, float)
        and node.value == 0
    )


def _calls_mean(node: ast.AST) -> bool:
    """True when ``node`` contains a ``<expr>.mean(...)``/``np.mean(...)`` call."""
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "mean"
        for sub in ast.walk(node)
    )


class ZeroFallbackRule(Rule):
    """Flag ``<mean> if <cond> else 0`` in core/ and fairness/ modules."""

    code = "FX009"
    summary = "empty-selection mean falls back to 0 instead of fairness.groups' NaN rule"
    node_types = (ast.IfExp,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Flag a conditional whose body is a mean and whose fallback is 0."""
        assert isinstance(node, ast.IfExp)
        if is_test_path(ctx.path) or not _in_scope(ctx.path):
            return
        if not (_is_zero(node.orelse) and _calls_mean(node.body)):
            return
        yield self.finding(
            ctx,
            node,
            f"'{ast.unparse(node)}' reads an empty selection as 0; use "
            "fairness.groups.group_mean (NaN when there is nothing to measure)",
        )
