"""Unchecked-return detector — the paper's error-propagation hazard.

Section 4.3's diagnosis of the worst failures is not exotic corruption
but ordinary sloppiness: *the return value of a failed library call was
never examined*, so a NULL handle or FALSE status flowed on until the
process crashed or, worse, kept serving wrong answers.  This pass flags
simulated kernel32/libc call sites whose HANDLE or BOOL result is
discarded outright::

    yield from k32.CreateEventA(None, True, False, name)   # flagged
    handle = yield from k32.CreateFileA(...)               # checked (ok)
    _ = yield from k32.WriteFile(...)                      # explicit discard

Assigning to ``_`` is the documented opt-out for genuinely fire-and-
forget calls; everything else that discards a must-check result is a
finding.  Only result-bearing acquisition and I/O functions are
must-check — discarding ``CloseHandle``'s BOOL, for instance, is
idiomatic and stays silent.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import (
    Finding,
    ParsedModule,
    Rule,
    sim_api_call,
    unwrap_yield,
    walk_in_scope,
)

RULE = "unchecked-return"

# Exports whose result is a HANDLE (or handle-like fd/pointer): losing
# the value both hides failure and leaks the object.
HANDLE_RETURNING = frozenset({
    "CreateFileA", "CreateFileW", "CreateEventA", "CreateEventW",
    "CreateMutexA", "CreateMutexW", "CreateSemaphoreA", "CreateSemaphoreW",
    "CreateWaitableTimerA", "CreateWaitableTimerW",
    "OpenEventA", "OpenEventW", "OpenMutexA", "OpenMutexW",
    "OpenSemaphoreA", "OpenSemaphoreW", "OpenWaitableTimerA",
    "OpenWaitableTimerW", "OpenProcess", "OpenFileMappingA",
    "OpenFileMappingW", "CreateFileMappingA", "CreateFileMappingW",
    "CreateNamedPipeA", "CreateNamedPipeW", "CreateMailslotA",
    "CreateMailslotW", "CreateIoCompletionPort", "CreateThread",
    "CreateRemoteThread", "FindFirstFileA", "FindFirstFileW",
    "LoadLibraryA", "LoadLibraryW", "LoadLibraryExA", "LoadLibraryExW",
    "HeapCreate", "HeapAlloc", "GlobalAlloc", "LocalAlloc", "VirtualAlloc",
    "VirtualAllocEx", "MapViewOfFile", "MapViewOfFileEx",
    "_lopen", "_lcreat",
})

# BOOL/status I/O whose FALSE return is precisely the failure the paper
# watched applications ignore.
BOOL_MUST_CHECK = frozenset({
    "ReadFile", "ReadFileEx", "WriteFile", "WriteFileEx",
    "CreateProcessA", "CreateProcessW", "CreatePipe",
    "DeleteFileA", "DeleteFileW", "MoveFileA", "MoveFileW",
    "MoveFileExA", "MoveFileExW", "CopyFileA", "CopyFileW",
    "CreateDirectoryA", "CreateDirectoryW", "RemoveDirectoryA",
    "RemoveDirectoryW", "WaitForSingleObject", "WaitForMultipleObjects",
    "DuplicateHandle",
})

LIBC_MUST_CHECK = frozenset({
    "open", "read", "write", "fork", "waitpid", "execve",
    "malloc", "realloc", "calloc", "pipe",
})


def _return_class(api: str, name: str):
    if api == "k32":
        if name in HANDLE_RETURNING:
            return "HANDLE"
        if name in BOOL_MUST_CHECK:
            return "BOOL"
    elif api == "libc" and name in LIBC_MUST_CHECK:
        return "int"
    return None


class UncheckedReturnRule(Rule):
    name = RULE
    description = ("simulated library calls with a HANDLE/BOOL result "
                   "must not discard it")

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        for info in module.index.defs:
            findings.extend(self._check_function(module, info.qualname,
                                                 info.node))
        return findings

    def _check_function(self, module: ParsedModule, qualname: str,
                        fn: ast.AST) -> Iterator[Finding]:
        for node in walk_in_scope(fn):
            if not isinstance(node, ast.Expr):
                continue
            call = unwrap_yield(node.value)
            matched = sim_api_call(call)
            if matched is None:
                continue
            api, name, _ = matched
            rclass = _return_class(api, name)
            if rclass is None:
                continue
            receiver = api if api == "k32" else "libc"
            yield Finding(
                RULE, module.path, node.lineno,
                f"result of {receiver}.{name} ({rclass}) is discarded — "
                "a failed call goes unnoticed (assign to a name, or to "
                "'_' to discard deliberately)",
                symbol=qualname)
