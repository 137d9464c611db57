"""``unbounded-growth``: streaming accumulators must stay O(1) per pool.

The streaming serve's contract is that memory is independent of stream
length: per-query state is freed at finish and everything that survives
folds into bounded accumulators (exact sums, ``QuantileSketch`` bucket
histograms, ``SkylineTracker`` scalars).  The contract dies one innocent
line at a time — an ``append`` to a debug list inside ``observe()`` is
invisible until the million-query bench trips the RSS ceiling hours
later.  This rule guards the fold path itself: inside the configured
streaming accumulator classes
(:attr:`~repro.analysis.config.AnalysisConfig.streaming_classes`), any
container-growth call reachable from ``self`` — ``append``, ``extend``,
``insert``, ``appendleft``, ``extendleft``, ``add``, ``put`` — any
subscript store ``self.x[k] = v`` (how a dict cache grows), and any
``self.x += [...]`` is a finding, unless the grown attribute is declared
bounded in
:attr:`~repro.analysis.config.AnalysisConfig.streaming_bounded_attrs`
(the sketch attributes, whose ``add`` is a histogram fold, not growth;
an LRU whose ``put`` evicts).

Growth on locals is fine (temporaries die with the frame); only state
that survives the call can leak.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.base import Checker
from repro.analysis.core import Finding, ModuleContext

__all__ = ["StreamingRetentionChecker"]

_GROWTH_METHODS = frozenset(
    {"append", "extend", "insert", "appendleft", "extendleft", "add", "put"}
)


def _self_root_attr(node: ast.AST) -> str | None:
    """First attribute name on a ``self.…`` receiver chain, else None.

    Handles nesting through attributes, subscripts, and calls:
    ``self._counts.setdefault(k, []).append`` roots at ``_counts``.
    """
    last_attr: str | None = None
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            last_attr = current.attr
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            return last_attr if current.id == "self" else None
        else:
            return None


def _grows_a_list(value: ast.AST) -> bool:
    """Whether an ``+=`` right-hand side syntactically appends elements."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "list"
    )


class StreamingRetentionChecker(Checker):
    name = "unbounded-growth"
    description = (
        "no unbounded per-query container growth inside the streaming "
        "accumulator classes (the O(1)-memory serve contract)"
    )

    def _scoped_classes(self, module: str) -> frozenset[str]:
        names = set()
        for spec in self.config.streaming_classes:
            mod, _, cls = spec.partition(":")
            if cls and mod == module:
                names.add(cls)
        return frozenset(names)

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        classes = self._scoped_classes(ctx.module)
        if not classes:
            return []
        bounded = frozenset(self.config.streaming_bounded_attrs)
        findings: list[Finding] = []
        for node in ctx.walk():
            attr: str | None
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _GROWTH_METHODS
            ):
                attr = _self_root_attr(node.func.value)
                verb = f".{node.func.attr}()"
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                attr = _self_root_attr(node.value)
                verb = "[...] = ..."
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Add
            ):
                if not _grows_a_list(node.value):
                    continue
                attr = _self_root_attr(node.target)
                verb = "+= [...]"
            else:
                continue
            if attr is None or attr in bounded:
                continue
            enclosing = ctx.enclosing_class(node)
            if enclosing is None or enclosing.name not in classes:
                continue
            item = self.finding(
                ctx,
                node,
                f"container growth {verb} on self.{attr} inside streaming "
                f"accumulator {enclosing.name}: per-query state must fold "
                "into bounded accumulators (O(1)-memory contract); if "
                f"self.{attr} is provably bounded, declare it in "
                "streaming_bounded_attrs",
            )
            if item is not None:
                findings.append(item)
        return findings
