"""FX001 — executors are constructed only inside ``explanations/pool.py``.

:class:`ExecutorPool` owns every executor's lifecycle (lazy reuse,
generation-tagged leases, the broken-pool reset, utilization stats); ad-hoc
``ThreadPoolExecutor``/``ProcessPoolExecutor``/``multiprocessing.Pool``
construction elsewhere silently bypasses that bookkeeping.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from ..engine import Rule
from .common import dotted_name, is_pool_module, is_test_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable

    from ..engine import FileContext, Finding

_EXECUTOR_NAMES = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})
_MULTIPROCESSING_MODULES = frozenset({"multiprocessing", "mp"})


class ExecutorConstructionRule(Rule):
    """Flag executor construction outside the sanctioned pool module."""

    code = "FX001"
    summary = (
        "ThreadPoolExecutor/ProcessPoolExecutor/multiprocessing.Pool may "
        "only be constructed in explanations/pool.py (use ExecutorPool)"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        """Flag executor constructor calls and multiprocessing.Pool imports."""
        if is_pool_module(ctx.path) or is_test_path(ctx.path):
            return
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "multiprocessing" and any(
                alias.name == "Pool" for alias in node.names
            ):
                yield self.finding(
                    ctx,
                    node,
                    "multiprocessing.Pool imported outside explanations/"
                    "pool.py; route work through ExecutorPool",
                )
            return
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None:
            return
        leaf = name.rsplit(".", 1)[-1]
        if leaf in _EXECUTOR_NAMES:
            yield self.finding(
                ctx,
                node,
                f"{leaf}() constructed outside explanations/pool.py; "
                "route work through ExecutorPool",
            )
        elif leaf == "Pool" and "." in name:
            head = name.split(".", 1)[0]
            if head in _MULTIPROCESSING_MODULES or "multiprocessing" in name:
                yield self.finding(
                    ctx,
                    node,
                    "multiprocessing.Pool() constructed outside explanations/"
                    "pool.py; route work through ExecutorPool",
                )
