"""Error-propagation rule — failures detected but never acted on.

The paper's "robust API, fragile application" pattern: kernel32
faithfully reports the injected fault (NULL handle, FALSE status), the
application even *notices* — and then the news dies.  A helper returns
``None`` on failure and its caller throws the result away; a HANDLE is
bound but used without ever being examined; an ``if not ok:`` branch
contains nothing but ``pass``.  Each of those breaks the propagation
chain at a different link, so the rule reports three finding shapes:

**dropped result** — a call to an error-signalling project function
(one that returns ``None``/``False``/``0`` under a failure guard, or
transitively passes such a result through) whose result is discarded.
The callee did its job; no caller can ever act::

    self._load_data_file(ctx, name)        # flagged: returns None on failure
    ok = self._load_data_file(ctx, name)   # fine (if ok is examined)

**unexamined result** — a must-check API or error-signalling helper
result is bound to a name that is *never* examined in the function, yet
is dereferenced or passed onward to another API call — the exact
corrupted-parameter hand-off the injector exercises::

    h = yield from k32.CreateFileA(...)
    yield from k32.ReadFile(h, ...)        # flagged: h never tested

Returning the name is not flagged: that *is* propagation (the caller
inherits the obligation, and the pass-through closure tracks it).
Binding to ``_`` stays the documented deliberate-discard opt-out.

**swallowed failure** — a recognised failure test on a must-check
result whose failure branch does nothing at all (``pass`` / docstring
only).  The error was detected and then deliberately ignored.

All three are interprocedural: what counts as "error-signalling" comes
from the whole-program :class:`~repro.lint.callgraph.CallGraph`, so a
producer three modules away still marks its droppers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .callgraph import CallGraph, FunctionSummary, callgraph_for
from .core import Finding, ParsedModule, Rule
from .returns import _return_class

RULE = "error-propagation"

_DELIBERATE_DISCARD = frozenset({"_"})


def _module_path(graph: CallGraph, module_name: str) -> str:
    index = graph.project.modules.get(module_name)
    return index.path if index is not None else module_name


def _must_check_origins(summary: FunctionSummary,
                        producers: dict) -> dict:
    """name -> (bind line, origin description) for every local bound
    from a must-check API call or an error-signalling project call."""
    origins: dict[str, tuple] = {}
    for call in summary.api_calls:
        rclass = _return_class(call.api, call.name)
        if rclass is None:
            continue
        for name in call.bound:
            if name not in _DELIBERATE_DISCARD:
                origins.setdefault(
                    name,
                    (call.line, f"{call.api}.{call.name} ({rclass})"))
    for site in summary.calls:
        if site.via_reference or site.callee not in producers:
            continue
        for name in site.bound:
            if name not in _DELIBERATE_DISCARD:
                origins.setdefault(
                    name, (site.line, f"{site.callee[1]}() which "
                                      f"{producers[site.callee]}"))
    return origins


class ErrorPropagationRule(Rule):
    name = RULE
    description = ("detected kernel32 failures must propagate to a "
                   "caller that can act")

    def check_project(self,
                      modules: Sequence[ParsedModule]) -> Iterable[Finding]:
        graph = callgraph_for(modules)
        producers = graph.error_producers()
        findings: list[Finding] = []
        for key in sorted(graph.summaries):
            summary = graph.summaries[key]
            path = _module_path(graph, summary.module_name)
            findings.extend(self._dropped_results(
                summary, path, producers))
            findings.extend(self._unexamined_results(
                summary, path, producers))
            findings.extend(self._swallowed_failures(
                summary, path, producers))
        return findings

    # ------------------------------------------------------------------
    def _dropped_results(self, summary: FunctionSummary, path: str,
                         producers: dict) -> Iterable[Finding]:
        for site in summary.calls:
            if site.via_reference or site.callee not in producers:
                continue
            if not site.discarded:
                continue
            yield Finding(
                RULE, path, site.line,
                f"result of {site.callee[1]}() is discarded, but it "
                f"{producers[site.callee]} — the detected failure can "
                "never reach a caller that can act",
                symbol=summary.qualname,
                suggestion="bind the result and test it (return or "
                           "escalate the failure), or assign to '_' to "
                           "discard deliberately")

    def _unexamined_results(self, summary: FunctionSummary, path: str,
                            producers: dict) -> Iterable[Finding]:
        origins = _must_check_origins(summary, producers)
        if not origins:
            return
        returned = set()
        for info in summary.returns:
            returned.update(info.names)
        uses: dict[str, int] = {}
        for name, _api, _export, line in summary.api_arg_uses:
            if name in origins and line > origins[name][0]:
                uses.setdefault(name, line)
                uses[name] = min(uses[name], line)
        for name, line in summary.subscript_uses:
            if name in origins and line > origins[name][0]:
                uses.setdefault(name, line)
                uses[name] = min(uses[name], line)
        for name in sorted(uses):
            if name in summary.checked_names or name in returned:
                continue
            bind_line, origin = origins[name]
            # The bind line goes in the suggestion, which the baseline
            # key leaves out, so a line drift keeps the key.
            yield Finding(
                RULE, path, uses[name],
                f"'{name}' holds the result of {origin} but is used "
                "without ever being examined — a failed call propagates "
                "as a corrupted parameter",
                symbol=summary.qualname,
                suggestion=f"test '{name}' (bound at line {bind_line}) "
                           "against the failure value before using it")

    def _swallowed_failures(self, summary: FunctionSummary, path: str,
                            producers: dict) -> Iterable[Finding]:
        origins = _must_check_origins(summary, producers)
        for line, name in summary.swallowed_branches:
            origin = origins.get(name)
            if origin is None or line <= origin[0]:
                continue
            yield Finding(
                RULE, path, line,
                f"failure of {origin[1]} is detected here, but the "
                "failure branch does nothing — the error is swallowed "
                "on the spot",
                symbol=summary.qualname,
                suggestion="escalate inside the branch: return the "
                           "failure, retry, or log and abort")
