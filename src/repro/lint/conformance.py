"""Signature conformance: implementations and call sites vs the registry.

The fault space *is* the export table — the campaign enumerates
``REGISTRY`` exactly the way DTS enumerated ``KERNEL32.dll``.  Any code
that registers an implementation for a name the table does not export,
reads a parameter index the signature does not declare, or calls an
export that does not exist has silently drifted out of the fault space:
the injector can never corrupt what the signature does not describe.
This rule pins all three down statically:

- every ``@k32impl("Name")`` / ``@libcimpl("name")`` registration must
  name a registry export;
- inside an implementation, ``frame.<accessor>(i)`` with a literal
  index must stay below the export's declared arity;
- every ``k32.Name(...)`` / ``libc.name(...)`` call site must name a
  registry export and pass exactly the declared number of arguments;
- nothing outside the kernel32 package may import ``impl_*`` modules
  or call ``IMPLEMENTATIONS[...]`` directly — every simulated call must
  dispatch through the interception layer (``ctx.k32``), or the fault
  injector never sees it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..nt.kernel32.signatures import REGISTRY
from ..posix.libc import LIBC_REGISTRY
from .core import (
    Finding,
    ParsedModule,
    Rule,
    sim_api_call,
    suggest,
    walk_in_scope,
)

RULE = "signature-conformance"

# Frame methods whose first argument is a parameter index (runtime.Frame).
FRAME_INDEX_ACCESSORS = frozenset({
    "arg", "uint", "boolean", "timeout_seconds", "pointer", "opt_pointer",
    "string", "opt_string", "buffer", "opt_buffer", "out_cell",
    "opt_out_cell", "out_sink", "handle_value", "handle_object",
    "process_handle",
})

_IMPL_DECORATORS = {"k32impl": REGISTRY, "libcimpl": LIBC_REGISTRY}
_API_REGISTRIES = {"k32": REGISTRY, "libc": LIBC_REGISTRY}


def _impl_registration(fn: ast.FunctionDef):
    """The ``(decorator_name, export_name, line)`` of an impl function."""
    for decorator in fn.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name in _IMPL_DECORATORS and decorator.args:
            arg = decorator.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return name, arg.value, decorator.lineno
    return None


def _in_kernel32_package(path: str) -> bool:
    return "nt/kernel32/" in path


def _in_libc_module(path: str) -> bool:
    return path.endswith("posix/libc.py")


class SignatureConformanceRule(Rule):
    name = RULE
    description = ("implementations and call sites must match the export "
                   "registry and dispatch through the interception layer")

    # ------------------------------------------------------------------
    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        for info in module.index.defs:
            registration = _impl_registration(info.node)
            if registration is not None:
                findings.extend(self._check_impl(module, info.qualname,
                                                 info.node, registration))
            findings.extend(self._check_call_sites(module, info.qualname,
                                                   info.node))
        findings.extend(self._check_dispatch_bypass(module))
        return findings

    # ------------------------------------------------------------------
    # Implementation registrations
    # ------------------------------------------------------------------
    def _check_impl(self, module: ParsedModule, qualname: str,
                    fn: ast.FunctionDef, registration) -> Iterator[Finding]:
        decorator, export, line = registration
        registry = _IMPL_DECORATORS[decorator]
        sig = registry.get(export)
        if sig is None:
            yield Finding(
                RULE, module.path, line,
                f"@{decorator} registers implementation for unknown export "
                f"{export!r}{suggest(export, registry)}",
                symbol=qualname)
            return
        if not fn.args.args:
            return
        frame_param = fn.args.args[0].arg
        for node in walk_in_scope(fn):
            index = self._frame_index_access(node, frame_param)
            if index is not None and index >= sig.param_count:
                yield Finding(
                    RULE, module.path, node.lineno,
                    f"implementation of {export} reads parameter index "
                    f"{index} but the signature declares only "
                    f"{sig.param_count} parameter(s)",
                    symbol=qualname)

    @staticmethod
    def _frame_index_access(node: ast.AST, frame_param: str):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == frame_param
                and node.func.attr in FRAME_INDEX_ACCESSORS
                and node.args):
            return None
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, int):
            return first.value
        return None

    # ------------------------------------------------------------------
    # Call sites
    # ------------------------------------------------------------------
    def _check_call_sites(self, module: ParsedModule, qualname: str,
                          fn: ast.FunctionDef) -> Iterator[Finding]:
        for node in walk_in_scope(fn):
            matched = sim_api_call(node)
            if matched is None:
                continue
            api, name, call = matched
            registry = _API_REGISTRIES[api]
            sig = registry.get(name)
            if sig is None:
                yield Finding(
                    RULE, module.path, call.lineno,
                    f"call to unknown {api} export {name!r}"
                    f"{suggest(name, registry)}",
                    symbol=qualname)
                continue
            if any(isinstance(arg, ast.Starred) for arg in call.args) or \
                    any(kw.arg is None for kw in call.keywords):
                continue  # *args / **kwargs: arity not statically known
            got = len(call.args) + len(call.keywords)
            if got != sig.param_count:
                yield Finding(
                    RULE, module.path, call.lineno,
                    f"{name} takes {sig.param_count} argument(s), call "
                    f"passes {got}",
                    symbol=qualname)

    # ------------------------------------------------------------------
    # Interception-layer bypass
    # ------------------------------------------------------------------
    def _check_dispatch_bypass(self, module: ParsedModule) -> Iterator[Finding]:
        if _in_kernel32_package(module.path) or _in_libc_module(module.path):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                imports_impl = "kernel32.impl_" in source or (
                    source.endswith("kernel32") and any(
                        alias.name.startswith("impl_")
                        for alias in node.names))
                if node.level and source.startswith("impl_"):
                    imports_impl = True
                if imports_impl:
                    yield Finding(
                        RULE, module.path, node.lineno,
                        "imports a kernel32 implementation module directly; "
                        "simulated calls must dispatch through the "
                        "interception layer (ctx.k32)")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Subscript):
                target = node.func.value
                subscripted = target.id if isinstance(target, ast.Name) else (
                    target.attr if isinstance(target, ast.Attribute) else "")
                if subscripted in ("IMPLEMENTATIONS", "LIBC_IMPLEMENTATIONS"):
                    yield Finding(
                        RULE, module.path, node.lineno,
                        f"calls {subscripted}[...] directly, bypassing the "
                        "interception layer")
