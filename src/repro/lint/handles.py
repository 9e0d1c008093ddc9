"""Handle-leak detector.

DTS's long-running campaigns made handle exhaustion a first-class
failure mode: a server that opens its configuration file on every
request and never calls ``CloseHandle`` degrades for hours before it
finally fails, which the paper's availability model charges as
downtime nobody noticed starting.  This pass finds the pattern at its
root: a ``CreateFile``/``CreateEvent``-style acquisition bound to a
local name that is neither released nor handed to anything that could
release it before the function ends.

The analysis is function-local and name-based:

- *acquired*: ``h = yield from k32.CreateFileA(...)`` (or any export in
  :data:`ACQUIRE_CLOSERS`), and likewise
  ``conn = yield from transport.connect(...)`` / ``transport.accept``
  for simulated network connections;
- *released*: ``h`` appears as an argument to the acquisition's
  closing export (``CloseHandle``, ``FindClose``, ``FreeLibrary``,
  ``_lclose``, libc ``close``/``free``, ``transport.close``);
- *escaped*: ``h`` is returned, yielded, stored into an attribute,
  subscript or alias, or passed to any call that is not a simulated
  k32/libc/transport call — whoever received it owns the close now.
  ``transport.handoff`` transfers connection ownership explicitly and
  counts as an escape.

The transport half of the rule exists because of a real bug: the load
clients' retry loops reconnected after a timeout without closing the
timed-out connection, so every retry leaked a half-open socket the
end-of-run hygiene check then reported.  A missing ``close`` on any
retry path is exactly the name-based pattern this pass catches.

A handle that is acquired but neither released nor escaped on *any*
path is reported.  (The analysis is deliberately path-insensitive: a
close reachable on only one branch counts as released; the
unchecked-return rule covers the failure-propagation half of that
story.)
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from .core import (
    Finding,
    ParsedModule,
    Rule,
    sim_api_call,
    unwrap_yield,
    walk_in_scope,
)

RULE = "handle-leak"

# acquisition export -> the exports that release its result
_K32_CLOSERS = ("CloseHandle",)
ACQUIRE_CLOSERS: dict[str, tuple[str, ...]] = {
    **{name: _K32_CLOSERS for name in (
        "CreateFileA", "CreateFileW", "CreateEventA", "CreateEventW",
        "CreateMutexA", "CreateMutexW", "CreateSemaphoreA",
        "CreateSemaphoreW", "CreateWaitableTimerA", "CreateWaitableTimerW",
        "OpenEventA", "OpenEventW", "OpenMutexA", "OpenMutexW",
        "OpenSemaphoreA", "OpenSemaphoreW", "OpenWaitableTimerA",
        "OpenWaitableTimerW", "OpenProcess", "OpenFileMappingA",
        "OpenFileMappingW", "CreateFileMappingA", "CreateFileMappingW",
        "CreateNamedPipeA", "CreateNamedPipeW", "CreateMailslotA",
        "CreateMailslotW", "CreateIoCompletionPort", "CreateThread",
        "CreateRemoteThread",
    )},
    "FindFirstFileA": ("FindClose",),
    "FindFirstFileW": ("FindClose",),
    "LoadLibraryA": ("FreeLibrary",),
    "LoadLibraryW": ("FreeLibrary",),
    "LoadLibraryExA": ("FreeLibrary",),
    "LoadLibraryExW": ("FreeLibrary",),
    "_lopen": ("_lclose",),
    "_lcreat": ("_lclose",),
}
LIBC_ACQUIRE_CLOSERS: dict[str, tuple[str, ...]] = {
    "open": ("close",),
    "malloc": ("free", "realloc"),
    "calloc": ("free", "realloc"),
}
# Simulated network connections: both ends of the connect/accept pair
# own a close.  ``handoff`` is handled separately as an ownership
# transfer, not a closer.
TRANSPORT_ACQUIRE_CLOSERS: dict[str, tuple[str, ...]] = {
    "connect": ("close",),
    "accept": ("close",),
}
_TRANSPORT_ESCAPES = ("handoff",)


def _transport_call(node: ast.AST) -> Optional[tuple[str, ast.Call]]:
    """Recognise ``transport.name(...)`` / ``ctx.machine.transport.name(...)``
    — any call whose receiver chain ends in ``transport``.  Returns
    ``(method, call)`` or None."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    receiver = node.func.value
    if isinstance(receiver, ast.Name):
        api = receiver.id
    elif isinstance(receiver, ast.Attribute):
        api = receiver.attr
    else:
        return None
    if api != "transport":
        return None
    return node.func.attr, node


class _Acquisition:
    __slots__ = ("name", "export", "line", "closers", "closed", "escaped")

    def __init__(self, name: str, export: str, line: int,
                 closers: tuple[str, ...]):
        self.name = name
        self.export = export
        self.line = line
        self.closers = closers
        self.closed = False
        self.escaped = False


def _names_in(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


class HandleLeakRule(Rule):
    name = RULE
    description = ("handle acquisitions must be closed or handed off "
                   "before the function ends")

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        for info in module.index.defs:
            findings.extend(self._check_function(module, info.qualname,
                                                 info.node))
        return findings

    # ------------------------------------------------------------------
    def _check_function(self, module: ParsedModule, qualname: str,
                        fn: ast.AST) -> Iterator[Finding]:
        acquisitions = self._find_acquisitions(fn)
        if not acquisitions:
            return
        by_name: dict[str, list[_Acquisition]] = {}
        for acq in acquisitions:
            by_name.setdefault(acq.name, []).append(acq)

        for node in walk_in_scope(fn):
            self._classify(node, by_name)

        for acq in acquisitions:
            if not acq.closed and not acq.escaped:
                yield Finding(
                    RULE, module.path, acq.line,
                    f"handle {acq.name!r} from {acq.export} is never "
                    f"released ({' / '.join(acq.closers)}) or handed off",
                    symbol=qualname)

    # ------------------------------------------------------------------
    def _find_acquisitions(self, fn: ast.AST) -> list[_Acquisition]:
        found = []
        for node in walk_in_scope(fn):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            value = unwrap_yield(node.value)
            matched = sim_api_call(value)
            if matched is not None:
                api, export, _ = matched
                table = (ACQUIRE_CLOSERS if api == "k32"
                         else LIBC_ACQUIRE_CLOSERS)
                closers = table.get(export)
            else:
                transport_matched = _transport_call(value)
                if transport_matched is None:
                    continue
                export, _ = transport_matched
                closers = TRANSPORT_ACQUIRE_CLOSERS.get(export)
            if closers is None:
                continue
            target = node.targets[0].id
            if target == "_":
                continue  # deliberate discard; unchecked-return territory
            found.append(_Acquisition(target, export, node.lineno, closers))
        return found

    # ------------------------------------------------------------------
    def _classify(self, node: ast.AST,
                  by_name: dict[str, list[_Acquisition]]) -> None:
        matched = sim_api_call(node)
        if matched is None:
            transport_matched = _transport_call(node)
            if transport_matched is not None:
                export, call = transport_matched
                matched = ("transport", export, call)
        if matched is not None:
            _, export, call = matched
            arg_names = set()
            for arg in call.args:
                arg_names |= _names_in(arg)
            for keyword in call.keywords:
                arg_names |= _names_in(keyword.value)
            if export in _TRANSPORT_ESCAPES:
                self._mark_escaped(arg_names, by_name)
                return
            for name in sorted(arg_names & by_name.keys()):
                for acq in by_name[name]:
                    if export in acq.closers:
                        acq.closed = True
            return

        if isinstance(node, ast.Call):
            # Not a simulated library call: passing the handle transfers
            # ownership (the callee may close it).
            escaped = set()
            for arg in node.args:
                escaped |= _names_in(arg)
            for keyword in node.keywords:
                escaped |= _names_in(keyword.value)
            self._mark_escaped(escaped, by_name)
        elif isinstance(node, ast.Return) and node.value is not None:
            self._mark_escaped(_names_in(node.value), by_name)
        elif isinstance(node, ast.Yield) and node.value is not None:
            self._mark_escaped(_names_in(node.value), by_name)
        elif isinstance(node, ast.YieldFrom):
            if (sim_api_call(node.value) is None
                    and _transport_call(node.value) is None):
                self._mark_escaped(_names_in(node.value), by_name)
        elif isinstance(node, ast.Assign):
            # `size = yield from k32.GetFileSize(handle, ...)` or
            # `reply = yield from transport.recv(conn, ...)` is a
            # neutral use; `self.h = handle` or `alias = handle` is an
            # escape — the handle now outlives this name's analysis.
            value = unwrap_yield(node.value)
            if sim_api_call(value) is None and _transport_call(value) is None:
                self._mark_escaped(_names_in(node.value), by_name)

    @staticmethod
    def _mark_escaped(names: set[str],
                      by_name: dict[str, list[_Acquisition]]) -> None:
        for name in sorted(names & by_name.keys()):
            for acq in by_name[name]:
                acq.escaped = True
