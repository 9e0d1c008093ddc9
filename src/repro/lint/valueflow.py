"""Value-flow tier: per-parameter usage facts, fault-equivalence classes.

The campaign enumerates the full (function × parameter × fault) grid,
but many corruptions are provably indistinguishable before a single run
executes: a parameter the implementation never reads cannot produce
distinct outcomes for distinct corrupted values, and a pointer that is
only ever dereferenced faults the same way for every non-null
corruption.  This module turns that observation into three artifacts:

- **usage facts** — for every intercepted kernel32 export (and, through
  the interprocedural rules, every reachable server handler) an
  abstract interpretation of the registered implementation computes how
  each parameter is *used*: never read, accepted as-is, null/zero
  checked only, branched on equality against constants, bounds
  compared, length-consumed, passed through, or fully value-consumed;
- **equivalence classes** — usage facts that make corrupted values
  indistinguishable collapse them into one class per (function,
  parameter) slice of the fault grid, emitted as a deterministic,
  fingerprinted pruning manifest the planner can consume
  (``repro lint --emit-equivalence`` / ``repro run
  --prune-equivalent``);
- **rules** — :class:`DeadParamRule` (a corruption target no code can
  observe) and :class:`UseBeforeValidateRule` (a value dereferenced on
  a path before its only validation), both in the ``valueflow`` rule
  family.

**Soundness over pruning power.**  A class is only emitted when the
*simulator's own decode semantics* make the members indistinguishable —
e.g. a required-pointer decode raises an access violation for NULL and
wild values alike, so all three corruptions of a dereferenced-only
pointer share one outcome; an optional pointer accepts NULL, so only
the two wild corruptions collapse.  Value-*consuming* usages (lengths,
sizes, timeouts, pass-throughs) never derive classes: those are exactly
the corruptions the paper observes to be "sometimes detected, sometimes
not", and their outcomes legitimately depend on the corrupted value.
Anything the evaluator cannot resolve (a dynamic parameter index, the
frame escaping to an unresolvable call) poisons the whole export into
singletons.  The :func:`equiv_check` oracle closes the loop dynamically
by executing every member of sampled classes and failing on divergence.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Iterable, Optional, Sequence

from .core import Finding, ParsedModule, Rule, walk_in_scope

# ----------------------------------------------------------------------
# Abstract values
#
# The lattice is deliberately small.  Decode results (dereferenced
# objects, resolved handles) are *not* tracked: a corrupted pointer
# never yields content (the decode itself faults or returns None), so
# only raw word values can carry a corruption into later uses.
# ----------------------------------------------------------------------
FRAME = ("frame",)
ARGTABLE = ("argtable",)
OPAQUE = ("opaque",)


def _raw(index: int) -> tuple:
    return ("raw", index)


def _argobj(index: int) -> tuple:
    return ("argobj", index)


def _const(value) -> tuple:
    return ("const", value)


# Frame accessor -> the decode fact it records for its parameter index.
ACCESSOR_FACTS = {
    "uint": "raw",
    "handle_value": "raw",
    "boolean": "bool",
    "timeout_seconds": "timeout",
    "pointer": "deref",
    "string": "deref",
    "buffer": "deref",
    "out_cell": "deref",
    "opt_pointer": "opt-deref",
    "opt_string": "opt-deref",
    "opt_buffer": "opt-deref",
    "opt_out_cell": "opt-deref",
    "out_sink": "opt-deref",
    "handle_object": "resolve",
    "process_handle": "pseudo",
}

DECODE_FACTS = frozenset(ACCESSOR_FACTS.values())

# Accessors whose result can be None and therefore should be
# None-checked before use (feeds UseBeforeValidateRule).
NULLABLE_ACCESSORS = frozenset({
    "opt_pointer", "opt_string", "opt_buffer", "opt_out_cell",
    "out_sink", "handle_object", "process_handle",
})

_INLINE_DEPTH = 5
_MAX_LITERAL_LOOP = 8

# Fault-type value strings, in canonical order (DEFAULT_FAULT_TYPES).
ZERO, ONES, FLIP = "zero", "ones", "flip"
ALL_FAULTS = (ZERO, ONES, FLIP)


class ExportFacts:
    """Everything the evaluator learned about one implementation."""

    __slots__ = ("export", "facts", "consts", "imprecise")

    def __init__(self, export: str):
        self.export = export
        self.facts: dict[int, set] = {}
        self.consts: dict[int, set] = {}
        self.imprecise = False

    def add(self, index: int, fact: str) -> None:
        self.facts.setdefault(index, set()).add(fact)

    def add_const(self, index: int, value: int) -> None:
        self.consts.setdefault(index, set()).add(value)


class ImplSite:
    """Where an ``@k32impl`` registration lives in the linted tree."""

    __slots__ = ("export", "path", "qualname", "node", "helpers")

    def __init__(self, export: str, path: str, qualname: str,
                 node: ast.FunctionDef, helpers: dict):
        self.export = export
        self.path = path
        self.qualname = qualname
        self.node = node
        self.helpers = helpers  # same-module name -> FunctionDef


def _k32impl_export(decorator: ast.expr) -> Optional[str]:
    """``@k32impl("Name")`` -> "Name"; None for other decorators."""
    if not isinstance(decorator, ast.Call) or len(decorator.args) != 1:
        return None
    func = decorator.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None)
    if name != "k32impl":
        return None
    arg = decorator.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


def find_impl_sites(modules: Sequence[ParsedModule]) -> dict:
    """export name -> :class:`ImplSite`, over the linted modules."""
    sites: dict[str, ImplSite] = {}
    for module in modules:
        helpers = {node.name: node for node in module.tree.body
                   if isinstance(node, ast.FunctionDef)}
        for node in helpers.values():
            for decorator in node.decorator_list:
                export = _k32impl_export(decorator)
                if export is not None:
                    sites[export] = ImplSite(export, module.path,
                                             node.name, node, helpers)
    return sites


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------
class _Evaluator:
    """Abstract interpretation of one implementation function.

    Control flow is over-approximated exactly like the segment CFGs in
    :mod:`repro.lint.engine`: both branches of an ``if`` are walked
    with a shared environment, loop bodies are walked once (literal
    tuple loops are unrolled per binding), exception edges are ignored.
    Facts are *sets*, so re-walking a region is harmless.
    """

    def __init__(self, site: ImplSite, facts: ExportFacts):
        self.site = site
        self.facts = facts
        self.stack: list[str] = []

    # -- fact helpers ---------------------------------------------------
    def _use(self, value, fact: str) -> None:
        if isinstance(value, tuple) and value[0] == "raw":
            self.facts.add(value[1], fact)

    def _consume(self, value) -> None:
        """Record that a raw word flowed somewhere value-sensitive."""
        if isinstance(value, tuple) and value[0] in ("raw", "argobj"):
            self.facts.add(value[1], "consumed")
        elif value is FRAME:
            # The frame escaped to code we cannot see: any parameter
            # may be decoded there.  Poison the whole export.
            self.facts.imprecise = True

    _SKIP = object()  # a const-None index: the `index is not None` guard

    def _index_of(self, node: ast.expr, env: dict):
        """Constant parameter index, ``_SKIP`` for None, else None."""
        known = False
        value = None
        if isinstance(node, ast.Constant):
            known, value = True, node.value
        elif isinstance(node, ast.Name):
            bound = env.get(node.id)
            if isinstance(bound, tuple) and bound[0] == "const":
                known, value = True, bound[1]
        if known and value is None:
            # ``frame.opt_out_cell(cell_index)`` where the caller passed
            # None and guards on it — a skipped decode, not imprecision.
            return self._SKIP
        if known and isinstance(value, int) and not isinstance(value, bool):
            return value
        return None

    # -- statements -----------------------------------------------------
    def walk(self, body: Sequence[ast.stmt], env: dict) -> None:
        for stmt in body:
            self.stmt(stmt, env)

    def stmt(self, node: ast.stmt, env: dict) -> None:
        if isinstance(node, ast.Expr):
            self.eval(node.value, env)
        elif isinstance(node, ast.Assign):
            value = self.eval(node.value, env)
            if isinstance(node.value, (ast.Tuple, ast.List)):
                # Remember literal tuples by name so a later
                # ``for i in values:`` can unroll over them.
                value = ("literal", node.value)
            for target in node.targets:
                self.bind(target, value, env)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.bind(node.target, self.eval(node.value, env), env)
        elif isinstance(node, ast.AugAssign):
            self._consume(self.eval(node.value, env))
            if isinstance(node.target, ast.Name):
                self._consume(env.get(node.target.id))
                env[node.target.id] = OPAQUE
        elif isinstance(node, ast.Return):
            if node.value is not None:
                value = self.eval(node.value, env)
                self._use(value, "passthrough")
                env.setdefault("__returns__", []).append(value)
        elif isinstance(node, ast.If):
            self.eval_test(node.test, env)
            self.walk(node.body, env)
            self.walk(node.orelse, env)
        elif isinstance(node, ast.While):
            self.eval_test(node.test, env)
            self.walk(node.body, env)
            self.walk(node.orelse, env)
        elif isinstance(node, ast.For):
            self.for_stmt(node, env)
        elif isinstance(node, ast.Try):
            self.walk(node.body, env)
            for handler in node.handlers:
                self.walk(handler.body, env)
            self.walk(node.orelse, env)
            self.walk(node.finalbody, env)
        elif isinstance(node, ast.With):
            for item in node.items:
                value = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, value, env)
            self.walk(node.body, env)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self.eval(node.exc, env)
        elif isinstance(node, ast.Assert):
            self.eval_test(node.test, env)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self.eval(target, env)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef, ast.Import, ast.ImportFrom,
                               ast.Pass, ast.Break, ast.Continue,
                               ast.Global, ast.Nonlocal)):
            pass
        else:  # pragma: no cover - exotic statements
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._consume(self.eval(child, env))

    def bind(self, target: ast.expr, value, env: dict) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind(element, OPAQUE, env)
        else:
            # Stores into attributes/subscripts make the value escape.
            self.eval(target, env)
            self._consume(value)

    def for_stmt(self, node: ast.For, env: dict) -> None:
        bindings = self._loop_bindings(node.target, node.iter, env)
        if bindings is not None:
            for binding in bindings:
                env.update(binding)
                self.walk(node.body, env)
        else:
            self._consume(self.eval(node.iter, env))
            self.bind(node.target, OPAQUE, env)
            self.walk(node.body, env)
        self.walk(node.orelse, env)

    def _loop_bindings(self, target: ast.expr, iterable: ast.expr,
                       env: dict) -> Optional[list]:
        """Per-iteration environments for small literal loops.

        Handles ``for i in (3, 4, 5):`` and ``for i, v in
        enumerate(values, start=1):`` over a literal tuple — the idioms
        implementations use to decode runs of adjacent parameters.
        """
        start = None
        if isinstance(iterable, ast.Call) and \
                isinstance(iterable.func, ast.Name) and \
                iterable.func.id == "enumerate" and iterable.args:
            start = 0
            for keyword in iterable.keywords:
                if keyword.arg == "start" and \
                        isinstance(keyword.value, ast.Constant):
                    start = keyword.value.value
            iterable = iterable.args[0]
        literal = iterable
        if isinstance(literal, ast.Name):
            bound = env.get(literal.id)
            if isinstance(bound, tuple) and bound[0] == "literal":
                literal = bound[1]
        if not (isinstance(literal, (ast.Tuple, ast.List)) and
                len(literal.elts) <= _MAX_LITERAL_LOOP):
            return None
        values = [_const(e.value) if isinstance(e, ast.Constant)
                  else OPAQUE for e in literal.elts]
        if start is None:
            if isinstance(target, ast.Name):
                return [{target.id: value} for value in values]
            return None
        if isinstance(target, ast.Tuple) and len(target.elts) == 2 and \
                all(isinstance(e, ast.Name) for e in target.elts):
            index_name, value_name = (e.id for e in target.elts)
            return [{index_name: _const(start + position),
                     value_name: value}
                    for position, value in enumerate(values)]
        return None

    # -- branch tests ---------------------------------------------------
    def eval_test(self, node: ast.expr, env: dict) -> None:
        """A condition: bare truthiness of a raw word is a zero-check."""
        if isinstance(node, ast.BoolOp):
            for operand in node.values:
                self.eval_test(operand, env)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            self.eval_test(node.operand, env)
            return
        value = self.eval(node, env)
        self._use(value, "null-check")

    # -- expressions ----------------------------------------------------
    def eval(self, node: ast.expr, env: dict):
        if isinstance(node, ast.Constant):
            return _const(node.value)
        if isinstance(node, ast.Name):
            return env.get(node.id, OPAQUE)
        if isinstance(node, ast.Attribute):
            return self.attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self.subscript(node, env)
        if isinstance(node, ast.Call):
            return self.call(node, env)
        if isinstance(node, ast.Compare):
            return self.compare(node, env)
        if isinstance(node, ast.BoolOp):
            return self.boolop(node, env)
        if isinstance(node, ast.BinOp):
            self._consume(self.eval(node.left, env))
            self._consume(self.eval(node.right, env))
            return OPAQUE
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                self._use(self.eval(node.operand, env), "null-check")
            else:
                self._consume(self.eval(node.operand, env))
            return OPAQUE
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._consume(self.eval(node.value, env))
            return OPAQUE
        if isinstance(node, ast.IfExp):
            self.eval_test(node.test, env)
            self.eval(node.body, env)
            self.eval(node.orelse, env)
            return OPAQUE
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._consume(self.eval(element, env))
            return OPAQUE
        # Everything else (f-strings, dicts, comprehensions, lambdas,
        # starred args): walk child expressions, consume raw words.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._consume(self.eval(child, env))
        return OPAQUE

    def attribute(self, node: ast.Attribute, env: dict):
        value = self.eval(node.value, env)
        if value is FRAME and node.attr == "args":
            return ARGTABLE
        if isinstance(value, tuple) and value[0] == "argobj":
            if node.attr == "raw":
                self.facts.add(value[1], "raw")
                return _raw(value[1])
            # ``.kind`` (and anything else on a DecodedArg) observes
            # the corruption class directly — value-sensitive.
            self.facts.add(value[1], "raw")
            self.facts.add(value[1], "consumed")
            return OPAQUE
        if isinstance(value, tuple) and value[0] == "raw":
            self.facts.add(value[1], "consumed")
        return OPAQUE

    def subscript(self, node: ast.Subscript, env: dict):
        value = self.eval(node.value, env)
        self.slice_uses(node.slice, env)
        if value is ARGTABLE:
            index = self._index_of(node.slice, env)
            if index is not None:
                return _argobj(index)
            self.facts.imprecise = True
            return OPAQUE
        self._consume(value)
        return OPAQUE

    def slice_uses(self, node: ast.expr, env: dict) -> None:
        """A raw word used as a slice bound is length-consumed."""
        if isinstance(node, ast.Slice):
            for bound in (node.lower, node.upper, node.step):
                if bound is not None:
                    self._use(self.eval(bound, env), "length")
        elif isinstance(node, ast.Tuple):
            for element in node.elts:
                self.slice_uses(element, env)
        else:
            self._consume(self.eval(node, env))

    def boolop(self, node: ast.BoolOp, env: dict):
        # ``frame.uint(2) or 1``: truthiness of every operand is
        # tested, and a raw operand's *value* flows out of the
        # expression.
        flowing = OPAQUE
        for operand in node.values:
            value = self.eval(operand, env)
            self._use(value, "null-check")
            if isinstance(value, tuple) and value[0] == "raw":
                flowing = value
        return flowing

    def compare(self, node: ast.Compare, env: dict):
        operands = [self.eval(node.left, env)]
        operands.extend(self.eval(comp, env) for comp in node.comparators)
        comparators = [node.left, *node.comparators]
        for position, value in enumerate(operands):
            if not (isinstance(value, tuple) and value[0] == "raw"):
                continue
            ops = set()
            if position > 0:
                ops.add(type(node.ops[position - 1]))
            if position < len(node.ops):
                ops.add(type(node.ops[position]))
            others = [comparators[i] for i in range(len(comparators))
                      if i != position]
            self.raw_compare(value[1], ops, others)
        return OPAQUE

    def raw_compare(self, index: int, ops: set, others: list) -> None:
        if ops & {ast.Lt, ast.LtE, ast.Gt, ast.GtE}:
            self.facts.add(index, "bounds")
            return
        constants: list = []
        symbolic = False
        for other in others:
            for leaf in self._equality_leaves(other):
                if isinstance(leaf, ast.Constant):
                    constants.append(leaf.value)
                else:
                    symbolic = True
        if symbolic:
            # Compared against a name we cannot evaluate (module
            # constants, other locals): equality behaviour depends on
            # values we do not know.
            self.facts.add(index, "eq-sym")
            return
        if all(value in (0, None, False) for value in constants):
            self.facts.add(index, "null-check")
            return
        if all(isinstance(value, int) and not isinstance(value, bool)
               for value in constants):
            self.facts.add(index, "eq-const")
            for value in constants:
                self.facts.add_const(index, value)
            return
        self.facts.add(index, "eq-sym")

    @staticmethod
    def _equality_leaves(node: ast.expr) -> Iterable[ast.expr]:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                yield element
        else:
            yield node

    # -- calls ----------------------------------------------------------
    def call(self, node: ast.Call, env: dict):
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value, env)
            if receiver is FRAME:
                return self.frame_call(func.attr, node, env)
            self.eval_args(node, env)
            return OPAQUE
        if isinstance(func, ast.Name):
            helper = self.site.helpers.get(func.id)
            if helper is not None and len(self.stack) < _INLINE_DEPTH \
                    and func.id not in self.stack:
                return self.inline(helper, node, env)
            self.eval_args(node, env)
            return OPAQUE
        self.eval(func, env)
        self.eval_args(node, env)
        return OPAQUE

    def eval_args(self, node: ast.Call, env: dict) -> None:
        for arg in node.args:
            self._consume(self.eval(arg, env))
        for keyword in node.keywords:
            self._consume(self.eval(keyword.value, env))

    def frame_call(self, method: str, node: ast.Call, env: dict):
        fact = ACCESSOR_FACTS.get(method)
        if fact is not None:
            if not node.args:
                self.facts.imprecise = True
                return OPAQUE
            index = self._index_of(node.args[0], env)
            if index is self._SKIP:
                return OPAQUE
            if index is None:
                self.facts.imprecise = True
                return OPAQUE
            self.facts.add(index, fact)
            for extra in node.args[1:]:
                self.eval(extra, env)
            if method in ("uint", "handle_value"):
                return _raw(index)
            return OPAQUE
        if method == "arg":
            index = self._index_of(node.args[0], env) if node.args else None
            if index is self._SKIP:
                return OPAQUE
            if index is None:
                self.facts.imprecise = True
                return OPAQUE
            return _argobj(index)
        if method in ("fail", "succeed", "new_handle"):
            for arg in node.args:
                self._use(self.eval(arg, env), "passthrough")
            for keyword in node.keywords:
                self._use(self.eval(keyword.value, env), "passthrough")
            return OPAQUE
        # Unknown frame method: treat like any opaque call.
        self.eval_args(node, env)
        return OPAQUE

    def inline(self, helper: ast.FunctionDef, node: ast.Call, env: dict):
        """Same-module helper call: walk the body with seeded formals."""
        arguments = helper.args
        formals = [a.arg for a in arguments.posonlyargs + arguments.args]
        values: dict[str, object] = {}
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self.facts.imprecise = True
                self._consume(self.eval(arg.value, env))
                continue
            value = self.eval(arg, env)
            if position < len(formals):
                values[formals[position]] = value
            else:
                self._consume(value)
        for keyword in node.keywords:
            value = self.eval(keyword.value, env)
            if keyword.arg is not None and keyword.arg in formals:
                values[keyword.arg] = value
            else:
                self._consume(value)
        defaults = arguments.defaults
        for offset, default in enumerate(defaults):
            name = formals[len(formals) - len(defaults) + offset]
            if name not in values:
                values[name] = (_const(default.value)
                                if isinstance(default, ast.Constant)
                                else OPAQUE)
        callee_env = {name: values.get(name, OPAQUE) for name in formals}
        self.stack.append(helper.name)
        try:
            self.walk(helper.body, callee_env)
        finally:
            self.stack.pop()
        returns = callee_env.get("__returns__", [])
        raws = [value for value in returns
                if isinstance(value, tuple) and value[0] == "raw"]
        if raws and len(set(raws)) == 1 and len(returns) == len(raws):
            return raws[0]
        return OPAQUE


def evaluate_impl(site: ImplSite) -> ExportFacts:
    """Run the abstract interpreter over one registered implementation."""
    facts = ExportFacts(site.export)
    arguments = site.node.args
    formals = [a.arg for a in arguments.posonlyargs + arguments.args]
    env: dict[str, object] = {name: OPAQUE for name in formals}
    if formals:
        env[formals[0]] = FRAME
    evaluator = _Evaluator(site, facts)
    evaluator.walk(site.node.body, env)
    return facts


# ----------------------------------------------------------------------
# Classification: facts -> usage label + equivalence groups
#
# Groups collapse faults whose *decode-level* behaviour is identical:
#   required deref  : zero -> NULL AV, ones/flip -> wild AV  => all AV
#   optional deref  : zero -> legal None, ones/flip -> wild AV
#   handle resolve  : all three corruptions miss the handle table
#   pseudo handle   : ones == INVALID_HANDLE_VALUE == calling process
# Value-consuming usages never group (the corrupted word reaches
# behaviour).  ``flip`` grouping assumes the uncorrupted original fits
# in 31 bits (true for every simulated word), so a flipped value is
# never zero and never collides with small branch constants.
# ----------------------------------------------------------------------
def classify(facts: set, consts: set) -> tuple:
    """(decode+use fact set, eq constants) -> (usage, groups)."""
    decode = facts & DECODE_FACTS
    uses = facts - DECODE_FACTS
    if not facts:
        return "unused", [list(ALL_FAULTS)]
    if decode <= {"deref"} and not uses:
        return "dereferenced", [list(ALL_FAULTS)]
    if decode <= {"deref", "opt-deref"} and not uses:
        if "opt-deref" in decode:
            return "optional-deref", [[ONES, FLIP]]
        return "dereferenced", [list(ALL_FAULTS)]
    if decode <= {"resolve"} and not uses:
        return "handle-checked", [list(ALL_FAULTS)]
    if decode <= {"pseudo"} and not uses:
        return "pseudo-handle", [[ZERO, FLIP]]
    if decode <= {"timeout"} and not uses:
        return "timeout", []
    if decode <= {"raw", "bool"}:
        if "bool" in decode and uses <= {"null-check"}:
            return "boolean", [[ONES, FLIP]]
        if not uses:
            return "accepted-as-is", [list(ALL_FAULTS)]
        if uses <= {"null-check"}:
            return "null-checked-only", [[ONES, FLIP]]
        if uses <= {"null-check", "eq-const"}:
            group = [ONES, FLIP]
            if 0 not in consts and "null-check" not in uses:
                group = list(ALL_FAULTS)
            return "equality-branched", [group]
        if uses <= {"null-check", "eq-const", "eq-sym", "bounds"}:
            return "bounds-compared", []
        if uses <= {"null-check", "length"}:
            return "length-consumed", []
        if uses <= {"null-check", "passthrough"}:
            return "passed-through", []
        return "consumed", []
    return "mixed", []


# Generic (no registered implementation) classification by signature
# parameter type, mirroring ``generic_implementation`` exactly.
_GENERIC_BY_CODE = {
    "I": ("accepted-as-is", [list(ALL_FAULTS)]),
    "Z": ("accepted-as-is", [list(ALL_FAULTS)]),
    "F": ("accepted-as-is", [list(ALL_FAULTS)]),
    "B": ("accepted-as-is", [list(ALL_FAULTS)]),
    "T": ("accepted-as-is", [list(ALL_FAULTS)]),
    "P": ("dereferenced", [list(ALL_FAULTS)]),
    "S": ("dereferenced", [list(ALL_FAULTS)]),
    "O": ("dereferenced", [list(ALL_FAULTS)]),
    "P?": ("optional-deref", [[ONES, FLIP]]),
    "S?": ("optional-deref", [[ONES, FLIP]]),
    "O?": ("optional-deref", [[ONES, FLIP]]),
    "H": ("handle-checked", [list(ALL_FAULTS)]),
    # A corrupted-to-zero or corrupted-to-ones optional handle is
    # *legal* (absent); only flip risks hitting the validity check.
    "H?": ("handle-opt", [[ZERO, ONES]]),
}


class ParamUsage:
    """One parameter's derived usage and equivalence groups."""

    __slots__ = ("function", "index", "name", "usage", "groups",
                 "implemented")

    def __init__(self, function: str, index: int, name: str, usage: str,
                 groups: list, implemented: bool):
        self.function = function
        self.index = index
        self.name = name
        self.usage = usage
        self.groups = groups
        self.implemented = implemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ParamUsage {self.function}[{self.index}] "
                f"{self.usage} groups={self.groups}>")


# ----------------------------------------------------------------------
# The manifest
# ----------------------------------------------------------------------
class EquivalenceManifest:
    """A deterministic, fingerprinted set of fault-equivalence classes.

    ``classes`` is a sorted list of ``{"function", "param", "name",
    "usage", "faults"}`` dicts; each ``faults`` list names the
    fault-type values (in canonical zero/ones/flip order) whose
    outcomes the static analysis claims are identical.  The first
    member of each class is the representative the planner schedules.
    """

    VERSION = 1

    def __init__(self, classes: Sequence[dict]):
        self.classes = [dict(entry) for entry in classes]
        self.classes.sort(key=lambda e: (e["function"], e["param"],
                                         e["faults"]))
        self.fingerprint = hashlib.sha256(
            json.dumps(self.classes, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]
        self._lookup: dict[tuple, dict[str, int]] = {}
        for position, entry in enumerate(self.classes):
            slot = self._lookup.setdefault(
                (entry["function"], entry["param"]), {})
            for fault_value in entry["faults"]:
                slot[fault_value] = position

    # ------------------------------------------------------------------
    @property
    def collapsible_count(self) -> int:
        """Runs a pruned campaign saves over the full grid, per
        invocation: every class executes one representative."""
        return sum(len(entry["faults"]) - 1 for entry in self.classes)

    def group_key(self, fault) -> Optional[tuple]:
        """(function, param, class index) for a prunable fault spec.

        Faults of other families and fault types outside every class
        map to None — they are always scheduled.
        """
        if not fault.prunable:
            return None
        slot = self._lookup.get((fault.function, fault.param_index))
        if not slot:
            return None
        position = slot.get(fault.fault_type.value)
        if position is None:
            return None
        return (fault.function, fault.param_index, position)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"version": self.VERSION, "fingerprint": self.fingerprint,
                "classes": self.classes}

    @classmethod
    def from_json(cls, payload: dict) -> "EquivalenceManifest":
        if not isinstance(payload, dict) or \
                payload.get("version") != cls.VERSION:
            raise ValueError("unsupported equivalence manifest version")
        classes = payload.get("classes")
        if not isinstance(classes, list):
            raise ValueError("equivalence manifest has no classes list")
        for entry in classes:
            if not isinstance(entry, dict) or \
                    not isinstance(entry.get("function"), str) or \
                    not isinstance(entry.get("param"), int) or \
                    not isinstance(entry.get("faults"), list):
                raise ValueError("malformed equivalence class entry")
        return cls(classes)

    @classmethod
    def load(cls, path: str) -> "EquivalenceManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def dumps(self) -> str:
        """The manifest file's text (what :meth:`save` writes)."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    def render_text(self) -> str:
        lines = [f"equivalence manifest {self.fingerprint}: "
                 f"{len(self.classes)} class(es), "
                 f"{self.collapsible_count} collapsible run(s) "
                 "per invocation"]
        for entry in self.classes:
            lines.append(
                f"  {entry['function']}[{entry['param']}] "
                f"{entry.get('name', '?')}: {entry.get('usage', '?')} "
                f"-> {{{', '.join(entry['faults'])}}}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
class ValueFlow:
    """The computed tier: per-export usages and the manifest."""

    def __init__(self, usages: dict, sites: dict, imprecise: set,
                 unanalyzed: set):
        self.usages = usages          # export -> list[ParamUsage]
        self.sites = sites            # export -> ImplSite
        self.imprecise = imprecise    # exports poisoned to singletons
        self.unanalyzed = unanalyzed  # registered impls outside scope
        classes = []
        for export in sorted(usages):
            for usage in usages[export]:
                for group in usage.groups:
                    if len(group) >= 2:
                        classes.append({
                            "function": export,
                            "param": usage.index,
                            "name": usage.name,
                            "usage": usage.usage,
                            "faults": list(group),
                        })
        self.manifest = EquivalenceManifest(classes)


def analyze_valueflow(modules: Sequence[ParsedModule]) -> ValueFlow:
    """Compute the value-flow tier for the linted modules.

    Exports whose implementation is registered at runtime but whose
    source is *outside* the linted scope are marked ``unanalyzed`` and
    derive no classes — pruning from a partial tree would be unsound.
    """
    from ..nt.kernel32 import IMPLEMENTATIONS
    from ..nt.kernel32.signatures import iter_signatures

    sites = find_impl_sites(modules)
    usages: dict[str, list] = {}
    imprecise: set = set()
    unanalyzed: set = set()
    for signature in iter_signatures():
        if not signature.params:
            continue
        export = signature.name
        site = sites.get(export)
        if site is not None:
            facts = evaluate_impl(site)
            per_param = []
            for param in signature.params:
                if facts.imprecise:
                    usage, groups = "opaque", []
                    imprecise.add(export)
                else:
                    usage, groups = classify(
                        facts.facts.get(param.index, set()),
                        facts.consts.get(param.index, set()))
                per_param.append(ParamUsage(export, param.index,
                                            param.name, usage, groups,
                                            implemented=True))
            usages[export] = per_param
        elif export in IMPLEMENTATIONS:
            unanalyzed.add(export)
            usages[export] = [
                ParamUsage(export, param.index, param.name,
                           "unanalyzed", [], implemented=True)
                for param in signature.params]
        else:
            usages[export] = [
                ParamUsage(export, param.index, param.name,
                           *_GENERIC_BY_CODE[param.ptype.value],
                           implemented=False)
                for param in signature.params]
    return ValueFlow(usages, sites, imprecise, unanalyzed)


_CACHE: list = [None, None]


def valueflow_for(modules: Sequence[ParsedModule]) -> ValueFlow:
    """Single-slot cache over :func:`analyze_valueflow`, so the rules
    and the CLI entry points share one computation per lint run."""
    key = tuple((module.path, id(module.tree)) for module in modules)
    if _CACHE[0] != key:
        _CACHE[0] = key
        _CACHE[1] = analyze_valueflow(modules)
    return _CACHE[1]


def compute_equivalence(modules: Sequence[ParsedModule]
                        ) -> EquivalenceManifest:
    return valueflow_for(modules).manifest


# ----------------------------------------------------------------------
# The dynamic oracle
# ----------------------------------------------------------------------
class EquivCheckReport:
    """Outcome of executing every member of sampled classes."""

    __slots__ = ("fingerprint", "candidates", "sampled", "executed",
                 "divergences")

    def __init__(self, fingerprint: str, candidates: int, sampled: list,
                 executed: int, divergences: list):
        self.fingerprint = fingerprint
        self.candidates = candidates
        self.sampled = sampled
        self.executed = executed
        self.divergences = divergences

    @property
    def clean(self) -> bool:
        return not self.divergences

    def render_text(self) -> str:
        lines = [f"equivalence oracle ({self.fingerprint}): "
                 f"{len(self.sampled)}/{self.candidates} class(es) "
                 f"sampled, {self.executed} run(s) executed"]
        for entry, signatures in self.divergences:
            lines.append(f"  DIVERGED {entry['function']}"
                         f"[{entry['param']}] ({entry['usage']}):")
            for fault_value in entry["faults"]:
                lines.append(f"    {fault_value}: "
                             f"{signatures[fault_value]}")
        lines.append("equivalence oracle clean" if self.clean else
                     f"equivalence oracle: {len(self.divergences)} "
                     "class(es) diverged")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "fingerprint": self.fingerprint,
            "candidates": self.candidates,
            "sampled": [(e["function"], e["param"]) for e in self.sampled],
            "executed": self.executed,
            "divergences": [
                {"function": entry["function"], "param": entry["param"],
                 "usage": entry["usage"],
                 "signatures": {fault: list(map(str, signature))
                                for fault, signature in signatures.items()}}
                for entry, signatures in self.divergences],
        }


def _outcome_signature(run) -> tuple:
    """The fields two equivalent runs must agree on.

    ``response_time`` is excluded (per-run seeds derive from the fault
    key, so timing jitter differs across class members by construction)
    and so is ``activated_as_noop`` (whether a corruption was a no-op
    depends on the original word, not on behaviour).
    """
    failure_mode = getattr(run, "failure_mode", None)
    return (
        run.activated,
        getattr(run.outcome, "value", run.outcome),
        getattr(failure_mode, "value", failure_mode),
        run.restarts_detected,
        run.retries_used,
        run.server_came_up,
    )


def equiv_check(modules: Sequence[ParsedModule], sample: int = 6,
                workload_names: Optional[Sequence[str]] = None,
                config=None) -> EquivCheckReport:
    """Execute every member of sampled classes; fail on divergence.

    Classes are candidates when some registered workload's fault-free
    profile (no middleware, the cheapest configuration) calls the
    target function — members of other classes would never activate and
    would vacuously agree.  Sampling is a deterministic stride over the
    sorted candidate list, so CI always checks the same classes for a
    given tree.
    """
    from ..core.faults import FaultSpec, FaultType
    from ..core.runner import RunConfig, execute_run
    from ..core.workload import WORKLOADS, MiddlewareKind

    manifest = valueflow_for(modules).manifest
    run_config = config if config is not None else RunConfig()
    names = sorted(workload_names if workload_names is not None
                   else WORKLOADS)
    first_caller: dict[str, str] = {}
    for name in names:
        profile = execute_run(WORKLOADS[name], MiddlewareKind.NONE, None,
                              run_config)
        for function in profile.called_functions:
            first_caller.setdefault(function, name)

    candidates = [entry for entry in manifest.classes
                  if entry["function"] in first_caller]
    if sample and 0 < sample < len(candidates):
        stride = len(candidates) / sample
        picked = [candidates[int(position * stride)]
                  for position in range(sample)]
    else:
        picked = list(candidates)

    executed = 0
    divergences = []
    for entry in picked:
        workload = WORKLOADS[first_caller[entry["function"]]]
        signatures = {}
        for fault_value in entry["faults"]:
            fault = FaultSpec(entry["function"], entry["param"],
                              FaultType(fault_value), 1)
            run = execute_run(workload, MiddlewareKind.NONE, fault,
                              run_config)
            executed += 1
            signatures[fault_value] = _outcome_signature(run)
        if len(set(signatures.values())) > 1:
            divergences.append((entry, signatures))
    return EquivCheckReport(manifest.fingerprint, len(candidates),
                            picked, executed, divergences)


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
def _is_trivial_body(body: Sequence[ast.stmt]) -> bool:
    """pass / docstring / ellipsis / bare raise — interface stubs."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue
        if isinstance(stmt, ast.Raise):
            continue
        return False
    return True


class DeadParamRule(Rule):
    """A declared corruption target no code can observe.

    Two populations: kernel32 implementations whose signature declares
    a parameter the body never touches at all (the idiom for
    deliberate acceptance is a bare discard like ``frame.uint(2)``,
    which *does* count as touched), and role-reachable project
    functions with a parameter that is never read.
    """

    name = "dead-param"
    family = "valueflow"
    description = ("every declared parameter should be read, or "
                   "explicitly discarded")

    def check_project(self,
                      modules: Sequence[ParsedModule]) -> Iterable[Finding]:
        yield from self._impl_findings(modules)
        yield from self._project_findings(modules)

    def _impl_findings(self, modules) -> Iterable[Finding]:
        flow = valueflow_for(modules)
        for export in sorted(flow.sites):
            site = flow.sites[export]
            if export in flow.imprecise:
                continue
            for usage in flow.usages.get(export, ()):
                if usage.usage != "unused":
                    continue
                yield Finding(
                    self.name, site.path, site.node.lineno,
                    f"{export} parameter {usage.index} "
                    f"({usage.name}) is never read by the "
                    "implementation — its fault injections are "
                    "indistinguishable no-ops",
                    symbol=site.qualname,
                    suggestion=f"decode it explicitly (e.g. "
                               f"`frame.uint({usage.index})  # "
                               f"{usage.name}: accepted as-is`) or "
                               "validate it")

    def _project_findings(self, modules) -> Iterable[Finding]:
        from .callgraph import callgraph_for

        graph = callgraph_for(modules)
        roles = graph.roles()
        if not roles:
            return
        roots: list = []
        for role_roots in roles.values():
            roots.extend(role_roots)
        for key in sorted(graph.reachable_from(roots)):
            summary = graph.summaries.get(key)
            if summary is None or summary.node is None:
                continue
            node = summary.node
            if not isinstance(node, ast.FunctionDef) or \
                    _is_trivial_body(node.body):
                continue
            loaded = {n.id for n in walk_in_scope(node)
                      if isinstance(n, ast.Name)}
            arguments = node.args
            formals = [a.arg for a in (arguments.posonlyargs +
                                       arguments.args +
                                       arguments.kwonlyargs)]
            for formal in formals[:1] if summary.class_name else []:
                loaded.add(formal)  # self/cls is the receiver, not data
            for formal in formals:
                if formal.startswith("_") or formal in loaded:
                    continue
                module_name, qualname = key
                yield Finding(
                    self.name, summary_path(graph, key), node.lineno,
                    f"parameter {formal} of {qualname} is never read "
                    "on any path",
                    symbol=qualname,
                    suggestion=f"drop {formal}, or prefix it with an "
                               "underscore to mark it deliberate")


def summary_path(graph, key) -> str:
    """Display path for a call-graph function key."""
    module_name, _qualname = key
    index = graph.project.modules.get(module_name)
    return index.path if index is not None else module_name


class UseBeforeValidateRule(Rule):
    """A nullable value consumed on a path before its only check.

    Covers kernel32 implementations (locals bound from the optional /
    resolving frame accessors, which return None for absent values) and
    role-reachable project functions (parameters None-checked *after*
    their first dereference).  The check-after-use shape means the
    validation can never protect the earlier use.
    """

    name = "use-before-validate"
    family = "valueflow"
    description = ("validate nullable values before the first "
                   "dereference, not after")

    def check_project(self,
                      modules: Sequence[ParsedModule]) -> Iterable[Finding]:
        flow = valueflow_for(modules)
        for export in sorted(flow.sites):
            site = flow.sites[export]
            nullable = self._nullable_locals(site.node)
            yield from self._scan(site.node, nullable, site.path,
                                  site.qualname)
        yield from self._project_findings(modules)

    def _project_findings(self, modules) -> Iterable[Finding]:
        from .callgraph import callgraph_for

        graph = callgraph_for(modules)
        roles = graph.roles()
        if not roles:
            return
        roots: list = []
        for role_roots in roles.values():
            roots.extend(role_roots)
        for key in sorted(graph.reachable_from(roots)):
            summary = graph.summaries.get(key)
            if summary is None or summary.node is None:
                continue
            node = summary.node
            if not isinstance(node, ast.FunctionDef):
                continue
            arguments = node.args
            formals = [a.arg for a in (arguments.posonlyargs +
                                       arguments.args +
                                       arguments.kwonlyargs)]
            if summary.class_name and formals:
                formals = formals[1:]
            _module_name, qualname = key
            yield from self._scan(node, set(formals),
                                  summary_path(graph, key), qualname)

    @staticmethod
    def _nullable_locals(node: ast.FunctionDef) -> set:
        names = set()
        for current in walk_in_scope(node):
            if not isinstance(current, ast.Assign):
                continue
            value = current.value
            if isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Attribute) and \
                    value.func.attr in NULLABLE_ACCESSORS:
                for target in current.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _scan(self, node: ast.FunctionDef, names: set, path: str,
              qualname: str) -> Iterable[Finding]:
        if not names:
            return
        first_use: dict[str, int] = {}
        first_check: dict[str, int] = {}
        rebound_before_check: set = set()
        for current in ast.walk(node):
            if isinstance(current, (ast.If, ast.While, ast.Assert)):
                test = current.test
                for name in self._checked_names(test):
                    if name in names and name not in first_check:
                        first_check[name] = test.lineno
            if isinstance(current, ast.Assign):
                # A (re)binding from a nullable accessor *defines* the
                # value; any other rebind makes later checks refer to a
                # different value, so suppress.
                value = current.value
                defines = (isinstance(value, ast.Call)
                           and isinstance(value.func, ast.Attribute)
                           and value.func.attr in NULLABLE_ACCESSORS)
                if not defines:
                    for target in current.targets:
                        if isinstance(target, ast.Name) and \
                                target.id in names and \
                                target.id not in first_check:
                            rebound_before_check.add(target.id)
            used = None
            if isinstance(current, ast.Attribute) and \
                    isinstance(current.value, ast.Name):
                used = current.value.id
            elif isinstance(current, ast.Subscript) and \
                    isinstance(current.value, ast.Name):
                used = current.value.id
            elif isinstance(current, ast.Call) and \
                    isinstance(current.func, ast.Name):
                used = current.func.id
            if used in names and used not in first_use:
                first_use[used] = current.lineno
        for name in sorted(names):
            use_line = first_use.get(name)
            check_line = first_check.get(name)
            if use_line is None or check_line is None or \
                    use_line >= check_line or \
                    name in rebound_before_check:
                continue
            yield Finding(
                self.name, path, use_line,
                f"{name} is dereferenced here but its None-check only "
                "happens later — the validation cannot protect this use",
                symbol=qualname,
                suggestion=f"hoist the `if {name} is None` check on line "
                           f"{check_line} above line {use_line}")

    @staticmethod
    def _checked_names(test: ast.expr) -> Iterable[str]:
        """Names whose truthiness / None-ness the condition observes."""
        queue = [test]
        while queue:
            current = queue.pop()
            if isinstance(current, ast.BoolOp):
                queue.extend(current.values)
            elif isinstance(current, ast.UnaryOp) and \
                    isinstance(current.op, ast.Not):
                queue.append(current.operand)
            elif isinstance(current, ast.Name):
                yield current.id
            elif isinstance(current, ast.Compare):
                operands = [current.left, *current.comparators]
                nones = any(isinstance(op, ast.Constant) and
                            op.value is None for op in operands)
                if nones:
                    for operand in operands:
                        if isinstance(operand, ast.Name):
                            yield operand.id
