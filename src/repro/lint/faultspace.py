"""Fault-space validator: fault lists and inline FaultSpecs, statically.

A campaign is only as good as its fault list.  ``repro run`` already
validates fault-list files when it loads them — but that is mid-setup,
after the operator walked away; the paper's 3,306-run campaigns took
days, so a typo'd export name on line 2,900 is an expensive way to
learn about drift.  This pass front-loads every check the loader
performs, as lint findings instead of a runtime exception:

- fault-list files (``*.lst``/``*.flt``/``*.faults``): each line must
  parse, name a registry export, corrupt a parameter the signature
  declares, use a legal fault type, and target invocation >= 1;
- inline ``FaultSpec(...)`` constructions and
  ``FaultSpec.from_line("...")`` literals in Python source get the
  same treatment wherever the arguments are compile-time constants.

Dynamic constructions (variables, f-strings) are skipped — the runtime
validation still owns those.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from ..core.faults import FaultSpec, FaultType, FaultWindow, IoFault, ResourceFault
from ..nt.kernel32.signatures import REGISTRY
from .core import (
    FaultListFile,
    Finding,
    ParsedModule,
    Rule,
    suggest,
    walk_in_scope,
)

RULE = "fault-space"

_FAULT_TYPE_VALUES = {fault_type.value for fault_type in FaultType}
_FAULT_TYPE_NAMES = {fault_type.name for fault_type in FaultType}

# Sustained-fault literals the rule validates by construction; each
# constructor's positional parameters are its class's ``__slots__``.
_FAMILY_SPECS = {spec.__name__: spec
                 for spec in (IoFault, ResourceFault, FaultWindow)}


def _validate_fault(path: str, line: int, function: str,
                    param_index: Optional[int], fault_type: Optional[str],
                    invocation: Optional[int],
                    symbol: str = "") -> Iterator[Finding]:
    """Shared semantic checks for one (function, index, type, invocation)."""
    sig = REGISTRY.get(function)
    if sig is None:
        yield Finding(
            RULE, path, line,
            f"unknown export {function!r}{suggest(function, REGISTRY)}",
            symbol=symbol)
        return
    if param_index is not None:
        if not sig.injectable:
            yield Finding(
                RULE, path, line,
                f"{function} has no parameters and is not injectable "
                "(one of the 130 excluded exports)", symbol=symbol)
        elif param_index >= sig.param_count:
            yield Finding(
                RULE, path, line,
                f"{function} declares {sig.param_count} parameter(s); "
                f"index {param_index} is out of range", symbol=symbol)
        elif param_index < 0:
            yield Finding(RULE, path, line,
                          f"negative parameter index {param_index}",
                          symbol=symbol)
    if fault_type is not None and fault_type not in _FAULT_TYPE_VALUES:
        yield Finding(
            RULE, path, line,
            f"illegal fault type {fault_type!r} (legal: "
            f"{', '.join(sorted(_FAULT_TYPE_VALUES))})", symbol=symbol)
    if invocation is not None and invocation < 1:
        yield Finding(RULE, path, line,
                      f"invocation index must be >= 1, got {invocation}",
                      symbol=symbol)


def _validate_line(path: str, line: int, text: str,
                   symbol: str = "") -> Iterator[Finding]:
    """Checks for one fault-list line (a file line or a
    ``FaultSpec.from_line`` literal)."""
    parts = text.split()
    if len(parts) != 4:
        yield Finding(RULE, path, line,
                      f"malformed fault line (expected 4 fields, got "
                      f"{len(parts)}): {text!r}", symbol=symbol)
        return
    try:
        param_index, invocation = int(parts[1]), int(parts[3])
    except ValueError:
        yield Finding(RULE, path, line,
                      f"non-integer index field in fault line: {text!r}",
                      symbol=symbol)
        return
    yield from _validate_fault(path, line, parts[0], param_index, parts[2],
                               invocation, symbol=symbol)


class FaultSpaceRule(Rule):
    name = RULE
    description = ("fault-list files and inline FaultSpecs must describe "
                   "faults the registry can inject")

    # ------------------------------------------------------------------
    # Fault-list files
    # ------------------------------------------------------------------
    def check_fault_file(self, fault_file: FaultListFile) -> Iterable[Finding]:
        findings: list[Finding] = []
        for line_number, raw_line in enumerate(
                fault_file.text.splitlines(), start=1):
            line = raw_line.strip()
            if line and not line.startswith("#"):
                findings.extend(
                    _validate_line(fault_file.path, line_number, line))
        return findings

    # ------------------------------------------------------------------
    # Inline FaultSpec literals
    # ------------------------------------------------------------------
    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        scopes = [("", module.tree)]
        scopes.extend((info.qualname, info.node)
                      for info in module.index.defs)
        seen: set[int] = set()
        for symbol, scope in scopes:
            for node in walk_in_scope(scope):
                if not isinstance(node, ast.Call) or id(node) in seen:
                    continue
                seen.add(id(node))
                findings.extend(self._check_call(module, symbol, node))
        return findings

    def _check_call(self, module: ParsedModule, symbol: str,
                    call: ast.Call) -> Iterator[Finding]:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "FaultSpec":
            yield from self._check_constructor(module, symbol, call)
        elif isinstance(func, ast.Name) and func.id in _FAMILY_SPECS:
            yield from self._check_family_literal(module, symbol, call,
                                                  func.id)
        elif isinstance(func, ast.Attribute) and func.attr == "from_line" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "FaultSpec":
            yield from self._check_from_line(module, symbol, call)

    def _check_constructor(self, module: ParsedModule, symbol: str,
                           call: ast.Call) -> Iterator[Finding]:
        args: dict[str, ast.AST] = {}
        names = FaultSpec.__slots__
        for position, arg in enumerate(call.args):
            if position < len(names):
                args[names[position]] = arg
        for keyword in call.keywords:
            if keyword.arg:
                args[keyword.arg] = keyword.value

        function = self._const(args.get("function"), str)
        if function is None:
            return  # dynamic name: runtime validation owns it
        param_index = self._const(args.get("param_index"), int)
        invocation = self._const(args.get("invocation"), int)
        fault_type = self._fault_type_literal(args.get("fault_type"))
        if isinstance(fault_type, Finding):
            yield Finding(fault_type.rule, module.path, call.lineno,
                          fault_type.message, symbol=symbol)
            fault_type = None
        yield from _validate_fault(module.path, call.lineno, function,
                                   param_index, fault_type, invocation,
                                   symbol=symbol)

    def _check_from_line(self, module: ParsedModule, symbol: str,
                         call: ast.Call) -> Iterator[Finding]:
        text = self._const(call.args[0], str) if call.args else None
        if text is not None:
            yield from _validate_line(module.path, call.lineno, text, symbol)

    # ------------------------------------------------------------------
    # Sustained fault families (IoFault / ResourceFault / FaultWindow)
    # ------------------------------------------------------------------
    def _check_family_literal(self, module: ParsedModule, symbol: str,
                              call: ast.Call,
                              name: str) -> Iterator[Finding]:
        """Validate an inline sustained-fault literal by constructing
        the real spec: the spec constructors already encode every rule
        (legal op/errno combinations, window bounds, severity ranges),
        so lint defers to them instead of duplicating the table."""
        spec_type = _FAMILY_SPECS[name]
        values, dynamic = self._literal_arguments(call, spec_type.__slots__)
        if dynamic:
            return  # dynamic arguments: runtime validation owns them
        try:
            spec_type(**values)
        except TypeError:
            return  # wrong arity/keywords: Python itself reports this
        except ValueError as exc:
            yield Finding(RULE, module.path, call.lineno,
                          f"invalid {name}: {exc}", symbol=symbol)

    def _literal_arguments(self, call: ast.Call,
                           param_names: tuple[str, ...]):
        """(keyword → constant value, any_dynamic) for a spec call.

        A nested ``FaultWindow(...)`` literal is evaluated recursively;
        any argument that is not a compile-time constant marks the call
        dynamic.
        """
        nodes: dict[str, ast.AST] = {}
        for position, arg in enumerate(call.args):
            if position < len(param_names):
                nodes[param_names[position]] = arg
        for keyword in call.keywords:
            if keyword.arg:
                nodes[keyword.arg] = keyword.value
        values: dict[str, object] = {}
        for key, node in nodes.items():
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, (str, int, float)):
                values[key] = node.value
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "FaultWindow":
                inner, dynamic = self._literal_arguments(
                    node, FaultWindow.__slots__)
                if dynamic:
                    return {}, True
                try:
                    values[key] = FaultWindow(**inner)
                except (TypeError, ValueError):
                    # The nested window is invalid; the module walk
                    # visits that FaultWindow call on its own, so the
                    # error is reported there, once.
                    return {}, True
            else:
                return {}, True
        return values, False

    # ------------------------------------------------------------------
    @staticmethod
    def _const(node: Optional[ast.AST], kind: type):
        if isinstance(node, ast.Constant) and type(node.value) is kind:
            return node.value
        if kind is int and isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, ast.USub) \
                and isinstance(node.operand, ast.Constant) \
                and type(node.operand.value) is int:
            return -node.operand.value
        return None

    @staticmethod
    def _fault_type_literal(node: Optional[ast.AST]):
        """``FaultType.ZERO``-style attribute -> its line-format value.

        Returns the string value, None for dynamic/absent expressions,
        or a Finding for an attribute that is not a legal fault type.
        """
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "FaultType":
            if node.attr in _FAULT_TYPE_NAMES:
                return FaultType[node.attr].value
            return Finding(
                RULE, "", 0,
                f"FaultType has no member {node.attr!r} (legal: "
                f"{', '.join(sorted(_FAULT_TYPE_NAMES))})")
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "FaultType" \
                    and node.args and isinstance(node.args[0], ast.Constant):
                return str(node.args[0].value)
        return None
