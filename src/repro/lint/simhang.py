"""Sim-hang lint: loops in process bodies that never yield.

Simulated programs are generator coroutines driven by the discrete-
event engine (:mod:`repro.sim.process`): the engine only regains
control when the generator yields.  A ``while`` loop that contains no
``yield`` therefore freezes the entire simulation — not just the one
process — reproducing the paper's "hang" outcome at the tooling level,
where no campaign timeout can save the run.

The key property that makes this statically decidable: in a
cooperative coroutine, *nothing outside the loop body can run while
the loop spins*.  A yield-less loop's condition can only change if the
body itself changes it.  So a ``while`` inside a generator function is
flagged unless its body (nested scopes excluded):

- yields (control returns to the engine each iteration) — where a
  ``yield from`` only counts if its delegate can actually suspend:
  ``yield from ()`` runs to completion synchronously, and so does
  delegation to a helper generator that itself never reaches a bare
  ``yield`` (:meth:`repro.lint.engine.ModuleIndex.yield_from_suspends`
  follows same-module delegation chains; out-of-module targets like
  the servers' ``yield from k32.Sleep(...)`` idiom are assumed to
  suspend), or
- can leave the loop structurally (``break`` / ``return`` / ``raise``),
  or
- assigns a name or attribute that appears in the loop condition
  (an ordinary terminating computation), or
- has a condition involving a call (whose effects we cannot see).

``for`` loops are not flagged: their iterator is finite or is itself a
generator being driven.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from typing import Optional

from .core import Finding, ParsedModule, Rule, walk_in_scope
from .engine import ModuleIndex

RULE = "sim-hang"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _subnodes(node: ast.AST) -> Iterator[ast.AST]:
    """All nodes of a While body, excluding nested scopes."""
    for stmt in node.body + node.orelse:
        yield stmt
        if not isinstance(stmt, _SCOPES):
            yield from walk_in_scope(stmt)


def _loop_can_progress(loop: ast.While, index: ModuleIndex,
                       class_name: Optional[str]) -> bool:
    body = list(_subnodes(loop))
    for node in body:
        if isinstance(node, ast.Yield):
            return True
        if isinstance(node, ast.YieldFrom):
            # Delegation is only progress if the delegate can suspend:
            # `yield from ()` (and helper chains that never reach a
            # bare yield) run synchronously and the loop still spins.
            if index.yield_from_suspends(node, class_name):
                return True
        if isinstance(node, (ast.Break, ast.Return, ast.Raise)):
            return True
        # `continue` alone does not help: the loop still spins.

    test_names = {n.id for n in ast.walk(loop.test)
                  if isinstance(n, ast.Name)}
    test_attrs = {n.attr for n in ast.walk(loop.test)
                  if isinstance(n, ast.Attribute)}
    if any(isinstance(n, ast.Call) for n in ast.walk(loop.test)):
        return True  # a call in the condition: effects unknowable

    for node in body:
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.For):
            targets = [node.target]
        elif isinstance(node, ast.NamedExpr):
            targets = [node.target]
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and sub.id in test_names:
                    return True
                if isinstance(sub, ast.Attribute) and sub.attr in test_attrs:
                    return True
    return False


class SimHangRule(Rule):
    name = RULE
    description = ("loops in generator process bodies must yield to the "
                   "discrete-event engine or provably terminate")

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        index = module.index
        for info in index.defs:
            if not info.is_generator:
                continue
            for node in walk_in_scope(info.node):
                if isinstance(node, ast.While) and \
                        not _loop_can_progress(node, index, info.class_name):
                    findings.append(Finding(
                        RULE, module.path, node.lineno,
                        "while-loop in a generator process body neither "
                        "yields nor can terminate: the discrete-event "
                        "engine would wedge (the paper's hang outcome)",
                        symbol=info.qualname))
        return findings
