"""FX004 — no silently swallowed exceptions.

Flags (a) bare ``except:`` that does not re-raise and (b) ``except
Exception``/``BaseException`` handlers whose body is nothing but
``pass``/``continue``/``...``.  Handlers that return a fallback, log, or
re-raise are deliberate degradation paths (``_process_shard_spec`` in
``engine.py`` returns ``None`` when a spec refuses to pickle) and stay
legal — the rule targets the handlers that erase the error entirely.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from ..engine import Rule
from .common import is_test_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from ..engine import FileContext, Finding

_OVERBROAD = frozenset({"Exception", "BaseException"})


def _catches_overbroad(handler_type: ast.AST) -> bool:
    """True when the handler catches Exception/BaseException (incl. tuples)."""
    if isinstance(handler_type, ast.Name):
        return handler_type.id in _OVERBROAD
    if isinstance(handler_type, ast.Tuple):
        return any(_catches_overbroad(element) for element in handler_type.elts)
    return False


def _body_is_noop(body: list[ast.stmt]) -> bool:
    """True when the handler body only passes/continues/ellipses."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare ``...``
        return False
    return True


def _body_reraises(body: list[ast.stmt]) -> bool:
    """True when any statement in the handler body raises."""
    return any(
        isinstance(inner, ast.Raise)
        for stmt in body
        for inner in ast.walk(stmt)
    )


class SwallowedExceptRule(Rule):
    """Flag handlers that erase errors without re-raise or fallback."""

    code = "FX004"
    summary = "bare/overbroad except that swallows without re-raise"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Flag bare excepts without re-raise and pass-only broad handlers."""
        assert isinstance(node, ast.ExceptHandler)
        if is_test_path(ctx.path):
            return
        if node.type is None:
            if not _body_reraises(node.body):
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' swallows every error (including "
                    "KeyboardInterrupt); catch specific exceptions or "
                    "re-raise",
                )
        elif _catches_overbroad(node.type) and _body_is_noop(node.body):
            yield self.finding(
                ctx,
                node,
                "except Exception with a pass-only body erases the error; "
                "return a fallback, log, or narrow the exception type",
            )
